package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
)

// This file implements the saturate subcommand: a network load generator.
// Each connection streams freshly encoded frames at a serve process for
// -duration, which is what the CI saturate-smoke job uses to put real
// bytes through the ingest pipeline while scraping net_ring_* live. The
// in-process throughput figures live in BenchmarkHubnetSaturate and the
// perfbench ingest-tcp workload.

// saturateDevices is the load generator's device population, split across
// the connections in disjoint contiguous ranges.
const saturateDevices = 64

// loadGenOpts parameterises the load generator.
type loadGenOpts struct {
	addr  string
	conns int
	dur   time.Duration
}

// runSaturateCmd parses the saturate flags and runs the load generator.
func runSaturateCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("saturate", stdout)
	var o loadGenOpts
	fs.StringVar(&o.addr, "connect", "", "serve process to stream frames at (required)")
	fs.IntVar(&o.conns, "conns", 2, fmt.Sprintf("concurrent load-generator connections (1-%d)", saturateDevices))
	fs.DurationVar(&o.dur, "duration", 5*time.Second, "how long the load generator streams frames")
	startProfiles := profileFlags(fs)
	if ok, err := parse(fs, args); !ok {
		return err
	}
	switch {
	case o.addr == "":
		return fmt.Errorf("-connect is required: run serve in one process and point saturate at it")
	case o.conns < 1:
		return fmt.Errorf("-conns must be at least 1, got %d", o.conns)
	case o.conns > saturateDevices:
		return fmt.Errorf("-conns: the load carries %d devices; %d connections would leave some idle", saturateDevices, o.conns)
	case o.dur <= 0:
		return fmt.Errorf("-duration must be positive, got %v", o.dur)
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()
	return runSaturateLoad(o, stdout)
}

// runSaturateLoad streams frames at a hubnet server from `conns`
// connections over disjoint device ranges for the configured duration,
// one hubnet.FrameSender per connection. Each round sends one scroll frame
// per device with the round number as its sequence, so the server sees
// clean in-order streams, not replays.
func runSaturateLoad(o loadGenOpts, stdout io.Writer) error {
	fmt.Fprintf(stdout, "saturate: %d connection(s) -> %s for %s\n", o.conns, o.addr, o.dur)
	var wg sync.WaitGroup
	var sent atomic.Uint64
	errs := make([]error, o.conns)
	start := time.Now()
	deadline := start.Add(o.dur)
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := hubnet.Dial(o.addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			lo, hi := c*saturateDevices/o.conns+1, (c+1)*saturateDevices/o.conns
			sender := hubnet.NewFrameSender(conn, uint32(lo))
			for seq := 0; time.Now().Before(deadline); seq++ {
				for slot := 0; slot <= hi-lo; slot++ {
					sender.Emit(slot, uint16(seq), 0, uint32(seq)*40)
				}
			}
			errs[c] = sender.Flush()
			sent.Add(conn.Stats().Sent)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("saturate load: %w", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(stdout, "saturate: streamed %d frames in %.1fs (%.0f frames/s)\n",
		sent.Load(), elapsed, float64(sent.Load())/elapsed)
	return nil
}
