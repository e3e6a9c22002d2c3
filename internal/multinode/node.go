// Package multinode is a real multi-node emulation of the paper's outage
// handling: per-server agents listening on TCP sockets, a coordinator that
// announces a utility outage, drives Xen-style iterative pre-copy
// migrations between node pairs (actual bytes over actual connections,
// scaled down from the logical state size), powers sources down, and
// migrates back after restore.
//
// The simulated cluster (internal/cluster) answers the cost/performability
// questions analytically; this package exists because faithful outage
// handling is a distributed protocol — cut-over ordering, connection
// failure on power-down, restore coordination — and those code paths only
// mean something against real sockets.
package multinode

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"backuppower/internal/units"
)

// command is the control-plane message the coordinator sends.
type command struct {
	Op   string `json:"op"`             // "migrate", "sleep", "wake", "status", "shutdown"
	Dest string `json:"dest,omitempty"` // migrate: destination data address
	// Rounds carries the pre-copy plan (logical bytes per round) computed
	// by the coordinator from the memory model; the agent ships
	// wire-scaled payloads for each round.
	Rounds []int64 `json:"rounds,omitempty"`
	Scale  int64   `json:"scale,omitempty"` // logical bytes per wire byte
}

// reply is the agent's response.
type reply struct {
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	State     string `json:"state,omitempty"` // "active", "sleeping", "off"
	WireBytes int64  `json:"wireBytes,omitempty"`
	HeldBytes int64  `json:"heldBytes,omitempty"` // logical state held
}

// Node is one server agent. It listens on two ports: a control port for
// coordinator commands and a data port for incoming migration streams.
type Node struct {
	name string

	ctlLn  net.Listener
	dataLn net.Listener

	mu        sync.Mutex
	state     string // "active", "sleeping", "off"
	held      int64  // logical bytes of application state held
	wireBytes int64  // total wire bytes sent or received
	closed    bool

	wg sync.WaitGroup
}

// StartNode launches an agent holding `held` logical bytes of state.
func StartNode(name string, held units.Bytes) (*Node, error) {
	ctl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	data, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctl.Close()
		return nil, err
	}
	n := &Node{name: name, ctlLn: ctl, dataLn: data, state: "active", held: int64(held)}
	n.wg.Add(2)
	go n.acceptLoop(ctl, n.handleControl)
	go n.acceptLoop(data, n.handleData)
	return n, nil
}

// Name returns the agent's name.
func (n *Node) Name() string { return n.name }

// ControlAddr is the address the coordinator dials.
func (n *Node) ControlAddr() string { return n.ctlLn.Addr().String() }

// DataAddr is the address migration streams target.
func (n *Node) DataAddr() string { return n.dataLn.Addr().String() }

// State returns the agent's power state.
func (n *Node) State() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// Held returns the logical state bytes currently held.
func (n *Node) Held() units.Bytes {
	n.mu.Lock()
	defer n.mu.Unlock()
	return units.Bytes(n.held)
}

// WireBytes returns total bytes moved over real sockets.
func (n *Node) WireBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.wireBytes
}

// Close shuts the agent down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.ctlLn.Close()
	n.dataLn.Close()
	n.wg.Wait()
}

func (n *Node) acceptLoop(ln net.Listener, handle func(net.Conn)) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(conn)
	}
}

// handleControl processes newline-delimited JSON commands.
func (n *Node) handleControl(conn net.Conn) {
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var cmd command
		if err := dec.Decode(&cmd); err != nil {
			return
		}
		resp := n.execute(cmd)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if cmd.Op == "shutdown" {
			return
		}
	}
}

func (n *Node) execute(cmd command) reply {
	switch cmd.Op {
	case "status":
		n.mu.Lock()
		defer n.mu.Unlock()
		return reply{OK: true, State: n.state, WireBytes: n.wireBytes, HeldBytes: n.held}
	case "sleep":
		return n.setState("active", "sleeping")
	case "wake":
		return n.setState("sleeping", "active")
	case "poweroff":
		n.mu.Lock()
		n.state = "off"
		n.held = 0 // volatile state gone
		n.mu.Unlock()
		return reply{OK: true, State: "off"}
	case "poweron":
		n.mu.Lock()
		n.state = "active"
		n.mu.Unlock()
		return reply{OK: true, State: "active"}
	case "migrate":
		return n.migrateTo(cmd)
	case "shutdown":
		return reply{OK: true}
	default:
		return reply{OK: false, Err: fmt.Sprintf("unknown op %q", cmd.Op)}
	}
}

func (n *Node) setState(from, to string) reply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != from {
		return reply{OK: false, Err: fmt.Sprintf("state %s, want %s", n.state, from), State: n.state}
	}
	n.state = to
	return reply{OK: true, State: to}
}

// migrateTo streams the pre-copy rounds to the destination's data port:
// each round is a length-prefixed payload of round/scale wire bytes. After
// the final (stop-and-copy) round the source relinquishes its state.
func (n *Node) migrateTo(cmd command) reply {
	if n.State() != "active" {
		return reply{OK: false, Err: "source not active"}
	}
	if cmd.Scale <= 0 {
		return reply{OK: false, Err: "bad scale"}
	}
	conn, err := net.Dial("tcp", cmd.Dest)
	if err != nil {
		return reply{OK: false, Err: err.Error()}
	}
	defer conn.Close()

	var wire int64
	w := bufio.NewWriter(conn)
	for _, logical := range cmd.Rounds {
		payload := logical / cmd.Scale
		if payload < 1 {
			payload = 1
		}
		if err := writeFrame(w, logical, payload); err != nil {
			return reply{OK: false, Err: err.Error()}
		}
		wire += payload
	}
	// Terminator frame: logical size 0.
	if err := writeFrame(w, 0, 0); err != nil {
		return reply{OK: false, Err: err.Error()}
	}
	if err := w.Flush(); err != nil {
		return reply{OK: false, Err: err.Error()}
	}
	// Wait for the destination's ack before releasing state (cut-over).
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != 1 {
		return reply{OK: false, Err: "no cut-over ack"}
	}

	n.mu.Lock()
	moved := n.held
	n.held = 0
	n.wireBytes += wire
	n.mu.Unlock()
	return reply{OK: true, WireBytes: wire, HeldBytes: moved}
}

// handleData receives a migration stream and acks the cut-over.
func (n *Node) handleData(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var logicalTotal, wireTotal int64
	for {
		logical, payload, err := readFrame(r)
		if err != nil {
			return // stream broken: migration failed, no state transfer
		}
		if payload == 0 {
			break // terminator
		}
		logicalTotal = logical // final round's logical size is the residual; total tracked below
		wireTotal += payload
		_ = logicalTotal
	}
	// Count the received traffic, then ack the cut-over: the source
	// returns as soon as it reads the ack, so counting afterwards would
	// let a caller observe the migration done but its bytes missing. The
	// logical amount adopted is communicated out-of-band by the
	// coordinator (it knows the plan); the agent just tracks wire traffic.
	n.mu.Lock()
	n.wireBytes += wireTotal
	n.mu.Unlock()
	// A lost ack needs no handling here: the source, left without it,
	// reports the migration failed and keeps its state.
	_, _ = conn.Write([]byte{1})
}

// AdoptState credits logical state to the node (coordinator-driven after a
// successful cut-over).
func (n *Node) AdoptState(b units.Bytes) {
	n.mu.Lock()
	n.held += int64(b)
	n.mu.Unlock()
}

func writeFrame(w io.Writer, logical, payload int64) error {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(logical))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if payload > 0 {
		if _, err := w.Write(make([]byte, payload)); err != nil {
			return err
		}
	}
	return nil
}

func readFrame(r io.Reader) (logical, payload int64, err error) {
	var hdr [16]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	logical = int64(binary.BigEndian.Uint64(hdr[0:8]))
	payload = int64(binary.BigEndian.Uint64(hdr[8:16]))
	if payload < 0 || payload > 1<<30 {
		return 0, 0, errors.New("multinode: implausible frame")
	}
	if payload > 0 {
		if _, err = io.CopyN(io.Discard, r, payload); err != nil {
			return 0, 0, err
		}
	}
	return logical, payload, nil
}
