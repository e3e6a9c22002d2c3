//go:build race

package cluster

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// items at random, so allocation counts of code that pools (fmt, which
// technique names go through) vary from run to run.
const raceEnabled = true
