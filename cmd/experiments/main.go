// Command experiments regenerates the paper's tables and figures from the
// models. With no flags it runs everything in paper order; -exp selects a
// single experiment and -list enumerates the ids. -parallel sets the
// sweep-engine worker-pool width (every nested scenario fan-out — variant
// races, rating sweeps, Monte-Carlo years — shares it; 1 forces the serial
// reference behavior) and -timeout bounds the whole regeneration. Output
// is byte-identical at every width: tables render in registry order no
// matter which finished first.
//
// -cpuprofile and -memprofile write pprof profiles of the regeneration
// (analyze with `go tool pprof`).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"backuppower/internal/experiments"
	"backuppower/internal/report"
	"backuppower/internal/sweep"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "text", "output format: text or csv")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"sweep worker-pool width (1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the regeneration after this long (0 = no limit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // flush accounting so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	render := func(t report.Table, w io.Writer) error { return t.Render(w) }
	switch *format {
	case "text":
	case "csv":
		render = func(t report.Table, w io.Writer) error { return t.RenderCSV(w) }
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	ctx := sweep.WithWidth(context.Background(), *parallel)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp != "" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			os.Exit(2)
		}
		if err := render(e.Run(ctx), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	tables, err := experiments.RunAll(ctx, experiments.Registry())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	for _, t := range tables {
		if err := render(t, &buf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if _, err := buf.WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
