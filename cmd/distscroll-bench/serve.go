package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// This file implements the serve subcommand: the networked hub. The process
// listens for frame-ingest connections, demultiplexes the stream across hub
// shards, and (with -ops-listen) exposes the per-shard hub_* and net_*
// series live. A fleet, scale or saturate process points -connect at it.

// serveOpts parameterises a serve invocation.
type serveOpts struct {
	addr      string
	shards    int
	dur       time.Duration
	pipeline  bool
	ringSlots int
	ringBatch int
	onFull    hubnet.FullPolicy
	ops       opsOpts
}

// runServeCmd parses the serve flags and serves until -for or a signal.
func runServeCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("serve", stdout)
	var o serveOpts
	fs.StringVar(&o.addr, "listen", "", "accept frame-ingest connections on this address (e.g. 127.0.0.1:9200; port 0 picks one; required)")
	fs.IntVar(&o.shards, "shards", 1, "number of hub shards; frames route by device id modulo the shard count")
	fs.DurationVar(&o.dur, "for", 0, "stop after this long (0 = serve until SIGINT/SIGTERM)")
	fs.BoolVar(&o.pipeline, "ingest-pipeline", true, "hand decoded frames to per-shard ring workers in batches (false = direct per-frame consume on the connection goroutine)")
	fs.IntVar(&o.ringSlots, "ring-slots", hubnet.DefaultRingSlots, "per-shard ring capacity in batches")
	fs.IntVar(&o.ringBatch, "ring-batch", hubnet.DefaultBatchFrames, "frames per ring hand-off batch")
	policy := fs.String("ring-policy", "block", "what a full shard ring does to its producer: block (lossless backpressure) or drop (shed batches, count them)")
	buildOps := opsFlags(fs)
	startProfiles := profileFlags(fs)
	if ok, err := parse(fs, args); !ok {
		return err
	}
	switch {
	case o.addr == "":
		return fmt.Errorf("-listen is required")
	case o.shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	case o.dur < 0:
		return fmt.Errorf("-for must not be negative, got %v", o.dur)
	case o.ringSlots < 1:
		return fmt.Errorf("-ring-slots must be at least 1, got %d", o.ringSlots)
	case o.ringBatch < 1:
		return fmt.Errorf("-ring-batch must be at least 1, got %d", o.ringBatch)
	case *policy == "block":
		o.onFull = hubnet.BlockOnFull
	case *policy == "drop":
		o.onFull = hubnet.DropOnFull
	default:
		return fmt.Errorf("-ring-policy must be block or drop, got %q", *policy)
	}
	var err error
	if o.ops, err = buildOps(); err != nil {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()
	return runServe(o, stdout)
}

// runServe serves frame ingest until the -for deadline or an
// interrupt, then prints the gateway's accounting.
func runServe(o serveOpts, stdout io.Writer) error {
	reg := telemetry.New()
	srv, err := hubnet.Serve(o.addr, hubnet.Config{
		Shards:      o.shards,
		Registry:    reg,
		Pipeline:    o.pipeline,
		RingSlots:   o.ringSlots,
		BatchFrames: o.ringBatch,
		OnFull:      o.onFull,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "hubnet: serving frame ingest on %s (%d shard(s))\n",
		srv.Addr(), srv.Gateway().Shards())
	if o.pipeline {
		policy := "block"
		if o.onFull == hubnet.DropOnFull {
			policy = "drop"
		}
		fmt.Fprintf(stdout, "hubnet: ingest pipeline on (%d ring slot(s) x %d-frame batches per shard, %s on full)\n",
			o.ringSlots, o.ringBatch, policy)
	}

	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		// Ingested frames are the server's liveness clock: the stall rule
		// falls back to the counter when no gauge carries the name.
		plane, err = startOpsPlane(o.ops, reg, nil, telemetry.MetricNetFrames, stdout)
		if err != nil {
			return err
		}
		defer plane.close(io.Discard)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var deadline <-chan time.Time
	if o.dur > 0 {
		t := time.NewTimer(o.dur)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-sig:
		fmt.Fprintln(stdout, "hubnet: interrupted, draining")
	case <-deadline:
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if plane != nil {
		plane.close(&opsSummary)
	}

	gw := srv.Gateway()
	ns := gw.NetStats()
	hs := gw.Stats()
	fmt.Fprintf(stdout, "net: %d conn(s) (%d still open), %d bytes in, %d frames (%d bad, %d short reads, %d resync bytes)\n",
		ns.ConnsTotal, ns.ConnsOpen, ns.BytesRead, ns.Frames, ns.BadFrames, ns.ShortReads, ns.Resyncs)
	if gw.Pipelined() {
		fmt.Fprintf(stdout, "pipeline: %d ring batch(es), %d stall(s), %d dropped\n",
			ns.RingBatches, ns.RingStalls, ns.RingDropped)
	}
	fmt.Fprintf(stdout, "hub: %d device(s), %d frames decoded, %d events, %d seq gaps\n",
		hs.Devices, hs.Decoded, hs.Events, hs.MissedSeq)
	for i, st := range gw.ShardStats() {
		fmt.Fprintf(stdout, "  shard %d: %d device(s), %d decoded\n", i, st.Devices, st.Decoded)
	}
	_, err = io.WriteString(stdout, opsSummary.String())
	return err
}
