package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// This file implements the fleet subcommand: full-fidelity devices (sensor,
// firmware, rf link) simulated concurrently against one hub, in process or
// forwarded to a serve process with -connect.

// runFleetCmd parses the fleet flags and runs the fleet.
func runFleetCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("fleet", stdout)
	var o fleetOpts
	fs.IntVar(&o.devices, "devices", 0, "number of devices to simulate against one hub (required, at least 1)")
	fs.IntVar(&o.workers, "workers", 0, "bound on concurrently simulating devices (0 = one goroutine per device)")
	fs.Uint64Var(&o.seed, "seed", 1, "master random seed")
	fs.StringVar(&o.outPath, "o", "", "also write the report to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "instrument the fleet and append a Prometheus-format metrics dump to the report")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON telemetry report (per-device counters, latency histograms) to this file")
	fs.BoolVar(&o.reliable, "reliable", false, "wrap every device's RF channel in the ARQ retransmission layer (guaranteed in-order delivery)")
	fs.Float64Var(&o.loss, "loss", -1, "link loss probability in [0,1] (-1 = the model's stock loss)")
	fs.Float64Var(&o.burst, "burst", 0, "per-frame probability of a burst dropping several consecutive frames")
	fs.IntVar(&o.burstLen, "burst-len", 0, "frames dropped per burst (0 = model default)")
	fs.Float64Var(&o.ackLoss, "ack-loss", 0, "loss probability of the reliable-mode ack back-channel")
	fs.StringVar(&o.traceOut, "trace-out", "", "record frame-level causal spans and write a Perfetto/Chrome trace JSON to this file (open in ui.perfetto.dev)")
	fs.BoolVar(&o.flightRec, "flight-recorder", false, "bounded per-device trace rings: anomalies (abandoned frames, seq gaps, SLO breaches) dump the last events to stderr")
	fs.DurationVar(&o.traceSLO, "trace-slo", 0, "end-to-end latency SLO; a frame exceeding it raises a flight-recorder anomaly (0 = off)")
	fs.StringVar(&o.connect, "connect", "", "forward every device's frames to a serve process at this address instead of the in-process hub")
	buildOps := opsFlags(fs)
	startProfiles := profileFlags(fs)
	if ok, err := parse(fs, args); !ok {
		return err
	}
	switch {
	case o.devices < 1:
		return fmt.Errorf("-devices must be at least 1, got %d", o.devices)
	case isSet(fs, "loss") && !(o.loss >= 0 && o.loss <= 1):
		return fmt.Errorf("-loss must be in [0,1], got %v", o.loss)
	case o.burstLen > 0 && o.burst <= 0:
		return fmt.Errorf("-burst-len sets the length of -burst bursts; set -burst > 0 as well")
	case o.ackLoss > 0 && !o.reliable:
		return fmt.Errorf("-ack-loss drops acks on the -reliable back-channel; add -reliable")
	case o.connect != "" && o.reliable:
		return fmt.Errorf("-reliable needs the in-process ack loop; acks cannot cross the -connect byte stream")
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
	return runFleet(o, stdout)
}

// fleetOpts parameterises a fleet invocation.
type fleetOpts struct {
	devices, workers int
	seed             uint64
	outPath          string
	metrics          bool
	metricsOut       string
	reliable         bool
	loss             float64
	burst            float64
	burstLen         int
	ackLoss          float64
	traceOut         string
	flightRec        bool
	traceSLO         time.Duration
	connect          string
	ops              opsOpts
}

// runFleet simulates n devices concurrently against one hub and prints the
// per-device and aggregate accounting, optionally with full telemetry.
func runFleet(o fleetOpts, stdout io.Writer) error {
	cfg := fleet.Config{Devices: o.devices, Seed: o.seed, Workers: o.workers, Reliable: o.reliable}
	if o.loss >= 0 || o.burst > 0 || o.ackLoss > 0 {
		cfg.Core = core.DefaultConfig()
		if o.loss >= 0 {
			cfg.Core.Link.LossProb = o.loss
		}
		cfg.Core.Link.BurstLossProb = o.burst
		cfg.Core.Link.BurstLossLen = o.burstLen
		cfg.Core.Link.AckLossProb = o.ackLoss
	}
	var tracer *tracing.Tracer
	if o.traceOut != "" || o.flightRec || o.traceSLO > 0 {
		tcfg := tracing.Config{SLO: o.traceSLO}
		if o.flightRec || o.traceSLO > 0 {
			// Anomalies (abandoned frames, seq gaps, SLO breaches) dump
			// their trailing events to stderr.
			tcfg.DumpTo = os.Stderr
		}
		if o.flightRec {
			// Flight-recorder mode: small bounded rings so the trace
			// footprint stays cache-resident even for large fleets.
			// Without it, retain everything for a complete export.
			tcfg.Bounded = true
			tcfg.Capacity = 512
		}
		tracer = tracing.New(tcfg)
		cfg.Tracing = tracer
	}
	var reg *telemetry.Registry
	if o.metrics || o.metricsOut != "" || o.ops.enabled() {
		reg = telemetry.New()
		cfg.Metrics = reg
	}
	if o.metrics || o.metricsOut != "" {
		// Heartbeat progress on stderr while the run is in flight.
		cfg.ReportEvery = 2 * time.Second
		cfg.OnReport = func(s *telemetry.Snapshot) {
			fmt.Fprintf(os.Stderr, "fleet: %d frames decoded, %d sent\n",
				s.Counters[telemetry.MetricHubDecoded], s.Counters[telemetry.MetricRFSent])
		}
	}
	var opsSummary strings.Builder
	var plane *opsPlane
	if o.ops.enabled() {
		// The session fleet has no virtual-time gauge; decoded frames are
		// its liveness clock.
		var err error
		plane, err = startOpsPlane(o.ops, reg, tracer, telemetry.MetricHubDecoded, stdout)
		if err != nil {
			return err
		}
		// Repeated close is safe; the deferred one covers error returns.
		defer plane.close(io.Discard)
	}
	var remote *hubnet.Remote
	if o.connect != "" {
		conn, err := hubnet.Dial(o.connect)
		if err != nil {
			return fmt.Errorf("connect %s: %w", o.connect, err)
		}
		defer conn.Close()
		remote = hubnet.NewRemote(conn)
		cfg.Hub = remote
		fmt.Fprintf(stdout, "hubnet: forwarding frames to %s\n", o.connect)
	}
	r, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	results, err := r.RunAll()
	if err != nil {
		return err
	}
	if remote != nil {
		if err := remote.Err(); err != nil {
			return fmt.Errorf("hubnet stream to %s: %w", o.connect, err)
		}
	}
	if plane != nil {
		plane.close(&opsSummary)
	}

	var report strings.Builder
	fmt.Fprintf(&report, "DistScroll fleet report (%d devices, seed %d)\n", o.devices, o.seed)
	fmt.Fprintf(&report, "%s\n", strings.Repeat("=", 76))
	fmt.Fprintf(&report, "%6s %8s %10s %8s %8s %8s %6s %6s\n",
		"device", "sent", "delivered", "lost", "events", "missed", "dup", "reord")
	for _, res := range results {
		fmt.Fprintf(&report, "%6d %8d %10d %8d %8d %8d %6d %6d\n",
			res.Device, res.Link.Sent, res.Link.Delivered, res.Link.Lost,
			res.Host.Events, res.Host.MissedSeq, res.Host.Duplicates, res.Host.Reordered)
	}
	tot := r.Total(results)
	fmt.Fprintf(&report, "%s\n", strings.Repeat("-", 76))
	fmt.Fprintf(&report, "frames sent %d, delivered %d, lost %d, corrupted %d, events %d, seq gaps %d\n",
		tot.Sent, tot.Delivered, tot.Lost, tot.Corrupted, tot.Events, tot.MissedSeq)
	if o.reliable {
		fmt.Fprintf(&report, "reliable: retransmits %d, timeouts %d, queue drops %d, acks sent %d (lost %d), stale %d, resyncs %d\n",
			tot.Retransmits, tot.Timeouts, tot.QueueDrops, tot.AcksSent, tot.AcksLost, tot.Stale, tot.Resyncs)
	}
	fmt.Fprintf(&report, "virtual time %.1f s, decode throughput %.1f frames/s\n",
		tot.VirtualSeconds, tot.FramesPerSecond)
	if remote != nil {
		fmt.Fprintf(&report, "frames forwarded to %s; host-side accounting (events, seq gaps) lives in the serving process\n", o.connect)
	}
	report.WriteString(opsSummary.String())

	var snap *telemetry.Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	if o.metrics {
		fmt.Fprintf(&report, "\nTelemetry (Prometheus exposition)\n%s\n", strings.Repeat("-", 76))
		if lat, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
			fmt.Fprintf(&report, "# e2e latency: p50=%.2fms p90=%.2fms p99=%.2fms over %d frames\n",
				lat.P50, lat.P90, lat.P99, lat.Count)
		}
		if err := snap.WritePrometheus(&report); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeTelemetryJSON(o.metricsOut, o.seed, results, tot, snap); err != nil {
			return err
		}
		fmt.Fprintf(&report, "wrote telemetry report to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		meta := map[string]any{
			"tool":    "distscroll-bench",
			"devices": o.devices,
			"seed":    o.seed,
			"decoded": tot.Decoded,
		}
		if err := tracer.WritePerfetto(f, meta); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(&report, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", o.traceOut)
	}
	if tracer != nil && tracer.Dumps() > 0 {
		fmt.Fprintf(&report, "flight recorder: %d anomaly dump(s) written to stderr\n", tracer.Dumps())
	}

	if _, err := io.WriteString(stdout, report.String()); err != nil {
		return err
	}
	if o.outPath != "" {
		if err := os.WriteFile(o.outPath, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// deviceCounters is one device's frame accounting in the JSON report.
type deviceCounters struct {
	Device     uint32 `json:"device"`
	Sent       uint64 `json:"sent"`
	Delivered  uint64 `json:"delivered"`
	Lost       uint64 `json:"lost"`
	Corrupted  uint64 `json:"corrupted"`
	Events     uint64 `json:"events"`
	MissedSeq  uint64 `json:"missedSeq"`
	Duplicates uint64 `json:"duplicates"`
	Reordered  uint64 `json:"reordered"`
	// Reliable-delivery counters, zero without -reliable.
	Retransmits uint64 `json:"retransmits,omitempty"`
	AcksSent    uint64 `json:"acksSent,omitempty"`
	AcksLost    uint64 `json:"acksLost,omitempty"`
}

// telemetryReport is the -metrics-out document: per-device counters, fleet
// totals and the full metrics snapshot with latency histograms.
type telemetryReport struct {
	Devices   int                 `json:"devices"`
	Seed      uint64              `json:"seed"`
	PerDevice []deviceCounters    `json:"perDevice"`
	Totals    fleet.Totals        `json:"totals"`
	Metrics   *telemetry.Snapshot `json:"metrics"`
}

func writeTelemetryJSON(path string, seed uint64, results []fleet.Result, tot fleet.Totals, snap *telemetry.Snapshot) error {
	rep := telemetryReport{
		Devices: len(results),
		Seed:    seed,
		Totals:  tot,
		Metrics: snap,
	}
	for _, res := range results {
		rep.PerDevice = append(rep.PerDevice, deviceCounters{
			Device:      res.Device,
			Sent:        res.Link.Sent,
			Delivered:   res.Link.Delivered,
			Lost:        res.Link.Lost,
			Corrupted:   res.Link.Corrupted,
			Events:      res.Host.Events,
			MissedSeq:   res.Host.MissedSeq,
			Duplicates:  res.Host.Duplicates,
			Reordered:   res.Host.Reordered,
			Retransmits: res.ARQ.Retransmits,
			AcksSent:    res.Acks.Sent,
			AcksLost:    res.Acks.Lost,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("telemetry report: %w", err)
	}
	return nil
}
