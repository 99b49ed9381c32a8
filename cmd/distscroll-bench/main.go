// Command distscroll-bench regenerates every figure and experiment of the
// DistScroll paper reproduction (see DESIGN.md Section 4) and runs the
// system's live modes. Each mode is a subcommand with its own flag set, so
// a flag that belongs to another mode is rejected as undefined; with no
// subcommand (or a flag first) the tool runs the study.
//
// Usage:
//
//	distscroll-bench                             # run every experiment
//	distscroll-bench -run F4,E3                  # run selected experiments
//	distscroll-bench study -seed 42 -o report.txt
//	distscroll-bench fleet -devices 64 -metrics              # + Prometheus dump
//	distscroll-bench fleet -devices 64 -metrics-out rep.json # + JSON telemetry
//	distscroll-bench fleet -devices 64 -reliable -loss 0.05  # ARQ on a 5%-loss link
//	distscroll-bench scale -devices 1000,100000 -duration 2s # slab scale sweep
//	distscroll-bench scale -devices 100000 -ops-listen 127.0.0.1:9100 -history-windows 300
//	distscroll-bench serve -listen 127.0.0.1:9200 -shards 4  # networked hub
//	distscroll-bench saturate -connect 127.0.0.1:9200 -conns 4 -duration 20s
//
// Run `distscroll-bench <command> -h` for a command's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/hcilab/distscroll/internal/experiments"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distscroll-bench:", err)
		os.Exit(1)
	}
}

// commands lists the subcommands in usage order; study is the default.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout io.Writer) error
}{
	{"study", "regenerate the paper's figures and experiments (the default)", runStudy},
	{"fleet", "simulate full-fidelity devices against one hub", runFleetCmd},
	{"scale", "sweep packed slab devices on the struct-of-arrays scale path", runScaleCmd},
	{"serve", "run the networked hub: accept frame-ingest connections", runServeCmd},
	{"saturate", "load generator: stream frames at a serve process", runSaturateCmd},
}

func run(args []string, stdout io.Writer) error {
	name := "study"
	if len(args) > 0 {
		switch {
		case args[0] == "-h" || args[0] == "-help" || args[0] == "--help":
			usage(stdout)
			return nil
		case !strings.HasPrefix(args[0], "-"):
			name, args = args[0], args[1:]
		}
	}
	for _, c := range commands {
		if c.name == name {
			return c.run(args, stdout)
		}
	}
	usage(stdout)
	return fmt.Errorf("unknown command %q", name)
}

// usage prints the top-level help: the subcommands and how to reach each
// one's flags.
func usage(w io.Writer) {
	fmt.Fprintf(w, "Usage: distscroll-bench [command] [flags]\n\nCommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "\nWith no command, or a flag as the first argument, distscroll-bench runs study.\n")
	fmt.Fprintf(w, "Run 'distscroll-bench <command> -h' for a command's flags.\n")
}

// newFlagSet returns a subcommand's flag set. Usage and parse errors go to
// stdout so each help text is part of the tool's pinned, testable output.
func newFlagSet(name string, stdout io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("distscroll-bench "+name, flag.ContinueOnError)
	fs.SetOutput(stdout)
	return fs
}

// parse parses a subcommand's arguments. ok is false when the run should
// stop: -h printed the usage (err nil) or the arguments were rejected.
func parse(fs *flag.FlagSet, args []string) (ok bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return false, nil
		}
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return true, nil
}

// isSet reports whether the named flag was given on the command line.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// profileFlags registers -cpuprofile, -memprofile and -runtime-trace on fs.
// The returned start, called after parsing, begins the requested profiles
// and yields the stop that finishes them in reverse order.
func profileFlags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	rtTrace := fs.String("runtime-trace", "", "write a Go runtime execution trace of the run to this file (go tool trace)")
	return func() (func(), error) {
		var stops []func()
		stop := func() {
			for i := len(stops) - 1; i >= 0; i-- {
				stops[i]()
			}
		}
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
		}
		if *rtTrace != "" {
			f, err := os.Create(*rtTrace)
			if err != nil {
				stop()
				return nil, fmt.Errorf("runtime-trace: %w", err)
			}
			if err := trace.Start(f); err != nil {
				f.Close()
				stop()
				return nil, fmt.Errorf("runtime-trace: %w", err)
			}
			stops = append(stops, func() { trace.Stop(); f.Close() })
		}
		if path := *memProf; path != "" {
			stops = append(stops, func() {
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "distscroll-bench: memprofile:", err)
					return
				}
				defer f.Close()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "distscroll-bench: memprofile:", err)
				}
			})
		}
		return stop, nil
	}
}

// opsFlags registers the live ops-plane flags (-ops-listen, -slo-*,
// -history-*) on fs. The returned build, called after parsing, checks
// their values and yields the opsOpts.
func opsFlags(fs *flag.FlagSet) (build func() (opsOpts, error)) {
	var o opsOpts
	fs.StringVar(&o.listen, "ops-listen", "", "serve the live ops plane (/metrics, /vars, /healthz, /debug/pprof) on this address during the run (e.g. 127.0.0.1:9100; port 0 picks one)")
	fs.Float64Var(&o.p99, "slo-p99", 0, "SLO watchdog: breach when the windowed e2e latency p99 exceeds this many milliseconds (0 = off)")
	fs.Float64Var(&o.minFPS, "slo-min-fps", 0, "SLO watchdog: breach when decoded frames per second drop below this floor (0 = off)")
	fs.DurationVar(&o.stall, "slo-stall", 0, "SLO watchdog: breach when the run's progress clock stops advancing for this long (0 = off)")
	fs.IntVar(&o.histWindows, "history-windows", history.DefaultWindows, "retain a rolling telemetry history of this many sampling windows; served at /api/history and the /dash dashboard with -ops-listen, attached to SLO breaches as pre/post forensics")
	fs.DurationVar(&o.histInterval, "history-interval", time.Second, "telemetry history sampling interval")
	fs.StringVar(&o.histOut, "history-out", "", "write the retained telemetry history as JSON to this file when the run ends (implies history)")
	return func() (opsOpts, error) {
		if o.histWindows < 1 {
			return o, fmt.Errorf("-history-windows must be at least 1, got %d", o.histWindows)
		}
		if o.histInterval <= 0 {
			return o, fmt.Errorf("-history-interval must be positive, got %v", o.histInterval)
		}
		return o, nil
	}
}

// runStudy regenerates the selected experiments and prints the report.
func runStudy(args []string, stdout io.Writer) error {
	fs := newFlagSet("study", stdout)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Uint64("seed", 1, "master random seed")
	outPath := fs.String("o", "", "also write the report to this file")
	csvDir := fs.String("csv", "", "write raw study CSVs (trials, conditions) into this directory")
	startProfiles := profileFlags(fs)
	if ok, err := parse(fs, args); !ok {
		return err
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, *seed); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trials.csv and conditions.csv to %s\n", *csvDir)
	}

	var runners []experiments.Runner
	if *runList == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				var known []string
				for _, r := range experiments.All() {
					known = append(known, r.ID)
				}
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
			}
			runners = append(runners, r)
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "DistScroll reproduction report (seed %d)\n", *seed)
	fmt.Fprintf(&report, "%s\n\n", strings.Repeat("=", 60))
	for _, r := range runners {
		rep, err := r.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		report.WriteString(rep.String())
		report.WriteString("\n")
	}

	if _, err := io.WriteString(stdout, report.String()); err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
	}
	return nil
}

// opsOpts carries the live-ops-plane flags (-ops-listen, -slo-*,
// -history-*).
type opsOpts struct {
	listen       string
	p99          float64
	minFPS       float64
	stall        time.Duration
	histWindows  int
	histInterval time.Duration
	histOut      string
}

// slo reports whether any SLO rule was requested.
func (o opsOpts) slo() bool {
	return o.p99 > 0 || o.minFPS > 0 || o.stall > 0
}

// enabled reports whether any ops-plane feature was requested; each one
// reads the one history store the plane starts.
func (o opsOpts) enabled() bool {
	return o.listen != "" || o.slo() || o.histOut != ""
}

// opsPlane bundles the running history sampler, the watchdog subscribed
// to it and the server of one invocation.
type opsPlane struct {
	srv     *ops.Server
	wd      *ops.Watchdog
	hist    *history.Store
	histOut string
}

// startOpsPlane starts the history sampler, the watchdog on its windows
// and (if requested) the HTTP server. stallClock names the series whose
// advancement proves the run is alive: sim_virtual_seconds on the scale
// path, hub_frames_decoded_total for the session fleet.
func startOpsPlane(o opsOpts, reg *telemetry.Registry, tracer *tracing.Tracer, stallClock string, stdout io.Writer) (*opsPlane, error) {
	hist, err := history.Start(history.Config{
		Registry: reg,
		Windows:  o.histWindows,
		Interval: o.histInterval,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "history: sampling telemetry every %v, retaining %d windows\n",
		hist.Interval(), hist.Windows())
	if tracer == nil && o.slo() {
		// Breach forensics dump through a flight recorder; a run without
		// its own tracer gets a small bounded one so the pre/post table
		// still lands on stderr.
		tracer = tracing.New(tracing.Config{Bounded: true, Capacity: 64, DumpTo: os.Stderr})
	}
	wd := ops.StartWatchdog(ops.WatchdogConfig{
		History:         hist,
		LatencyMaxP99Ms: o.p99,
		StallGauge:      stallClock,
		StallAfter:      o.stall,
		MinRate:         minRateRules(o.minFPS),
		Tracer:          tracer,
		OnBreach: func(b ops.Breach) {
			fmt.Fprintf(os.Stderr, "slo watchdog: %s\n", b)
		},
	})
	p := &opsPlane{wd: wd, hist: hist, histOut: o.histOut}
	if o.listen != "" {
		srv, err := ops.Serve(o.listen, ops.Config{Registry: reg, Watchdog: wd, History: hist})
		if err != nil {
			wd.Stop()
			hist.Stop()
			return nil, err
		}
		p.srv = srv
		fmt.Fprintf(stdout, "ops plane listening on %s (metrics, vars, healthz, debug/pprof, api/history, dash)\n", srv.URL())
	}
	return p, nil
}

func minRateRules(minFPS float64) map[string]float64 {
	if minFPS <= 0 {
		return nil
	}
	return map[string]float64{telemetry.MetricHubDecoded: minFPS}
}

// close stops the watchdog before the server so /healthz never serves a
// half-stopped state, takes one final sample so the end-of-run counters
// make the history, stops the sampler (which flushes pending breach
// forensics), and reports the verdict.
func (p *opsPlane) close(report io.Writer) {
	if p == nil {
		return
	}
	p.wd.Stop()
	p.hist.Sample()
	p.hist.Stop()
	p.srv.Close()
	if breaches := p.wd.Breaches(); len(breaches) > 0 {
		fmt.Fprintf(report, "slo watchdog: %d breach(es); first: %s\n", len(breaches), breaches[0])
	}
	if p.histOut != "" {
		path := p.histOut
		p.histOut = "" // close runs twice (explicit + deferred); write once
		if err := writeHistoryJSON(path, p.hist); err != nil {
			fmt.Fprintf(os.Stderr, "distscroll-bench: history-out: %v\n", err)
		} else {
			fmt.Fprintf(report, "wrote telemetry history (%d windows captured) to %s\n",
				p.hist.Captured(), path)
		}
	}
}

// writeHistoryJSON dumps the full retained history as the /api/history
// JSON document.
func writeHistoryJSON(path string, st *history.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteJSON(f, history.Query{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
