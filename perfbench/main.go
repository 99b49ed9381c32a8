// Command perfbench is the repository's benchmark: one command, one seed,
// three workloads that load different layers of the system, each with a
// correctness check.
//
//	perfbench --workload <fleet-arq|scale-ops|ingest-tcp> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the workload untraced and reports the
// end-to-end metrics. With --trace 1 it produces the per-layer ledger:
// a traced run of every workload, each next to an untraced reference run
// whose behaviour checksum it must reproduce. The last line of standard
// output is always the JSON result; everything above it is for people.
// Run it through run.sh, which builds it from the checkout first.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set and the two ways of measuring it.
type workload struct {
	name   string
	run    func(*runCtx, *report) error // end-to-end, untraced
	ledger func(*runCtx, *report) error // per-layer, traced
}

var workloads = []workload{
	{"fleet-arq", fleetArqRun, fleetArqLedger},
	{"scale-ops", scaleOpsRun, scaleOpsLedger},
	{"ingest-tcp", ingestTCPRun, ingestTCPLedger},
}

// sizes is the scale of every workload. The self-test runs tiny ones.
type sizes struct {
	fleetDevices      int
	trajectoryDevices int // fleet devices whose distance trajectory the stage replays use
	replayCalls       int // calls per stage replay
	scaleDevices      int
	scaleVirtual      time.Duration
	opsSetups         int // set-ups timed per scale-ops round
	ingestDevices     int
	ingestRecord      int // frames recorded for the ingest replays
	ingestRounds      int // timed ingest rounds per run
}

var fullSizes = sizes{
	fleetDevices:      16384,
	trajectoryDevices: 8,
	replayCalls:       400000,
	scaleDevices:      400000,
	scaleVirtual:      10 * time.Second,
	opsSetups:         3,
	ingestDevices:     4096,
	ingestRecord:      1 << 19,
	ingestRounds:      8,
}

// runCtx is what every workload run receives.
type runCtx struct {
	seed     uint64
	duration time.Duration // time one run measures
	nproc    int
	sizes    sizes
	outDir   string // where result and span files go; "" writes nothing
	traces   []string
}

// endToEnd and perLayer are the metric sets a result line carries with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names.
var endToEnd = []metricDecl{
	{"frames_per_s", "1/s"},
	{"cpu_ns_per_frame", "ns"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDecl{
	// fleet-arq: the firmware path, spanned through the scheduler,
	// transport and hub seams, with stage replays on its trajectory.
	{"sim.device_run_ns_per_frame", "ns"},
	{"sim.events_per_frame", "events/frame"},
	{"rf.link_send_ns", "ns"},
	{"rf.sends_per_delivered", "ratio"},
	{"core.hub_handle_ns_per_frame", "ns"},
	{"core.admitted_per_delivered", "ratio"},
	{"fleet.allocs_per_frame", "allocs/frame"},
	{"fleet.bytes_per_frame", "B/frame"},
	{"fleet.gc_cycles", "count"},
	{"fleet.gc_pause_ms", "ms"},
	{"fleet.setup_ns_per_device", "ns"},
	{"fleet.live_bytes_per_device", "B"},
	{"gp2d120.sample_ns", "ns"},
	{"adc.read_ns", "ns"},
	{"firmware.filter_ns", "ns"},
	{"mapping.map_ns", "ns"},
	{"firmware.step_ns", "ns"},
	{"firmware.step_allocs", "allocs/step"},
	{"rf.encode_ns", "ns"},
	{"fleet-arq.attributed_ns_per_frame", "ns"},
	{"fleet-arq.unattributed_ns_per_frame", "ns"},
	{"fleet-arq.cpu_busy_ratio", "ratio"},
	{"fleet-arq.tracing_overhead_s", "s"},
	// scale-ops: the slab and the ops plane beside it.
	{"core.slab_tick_ns_per_device", "ns"},
	{"core.slab_tick_observed_ns_per_device", "ns"},
	{"telemetry.snapshot_ns", "ns"},
	{"history.sample_ns", "ns"},
	{"ops.evaluate_ns", "ns"},
	{"ops.scrape_metrics_ms_p50", "ms"},
	{"ops.scrape_metrics_ms_p99", "ms"},
	{"ops.scrape_history_ms_p50", "ms"},
	{"ops.scrape_history_ms_p99", "ms"},
	{"scale.live_bytes_per_device", "B"},
	{"fleet.scale_speedup", "x"},
	{"scale-ops.attributed_ns_per_frame", "ns"},
	{"scale-ops.unattributed_ns_per_frame", "ns"},
	{"scale-ops.cpu_busy_ratio", "ratio"},
	{"scale-ops.tracing_overhead_s", "s"},
	// ingest-tcp: the codec, the gateway and the hub's batch consume.
	{"rf.encode_ns_per_frame", "ns"},
	{"hubnet.send_ns_per_frame", "ns"},
	{"rf.decode_ns_per_frame", "ns"},
	{"hubnet.feed_ns_per_frame", "ns"},
	{"hubnet.drain_ns_per_frame", "ns"},
	{"core.consume_batch_ns_per_frame", "ns"},
	{"hubnet.frames_per_batch", "frames/batch"},
	{"hubnet.ring_stalls_per_mframe", "1/Mframe"},
	{"hubnet.short_reads_per_mframe", "1/Mframe"},
	{"ingest.allocs_per_frame", "allocs/frame"},
	{"hubnet.shard_speedup", "x"},
	{"ingest-tcp.attributed_ns_per_frame", "ns"},
	{"ingest-tcp.unattributed_ns_per_frame", "ns"},
	{"ingest-tcp.cpu_busy_ratio", "ratio"},
	{"ingest-tcp.tracing_overhead_s", "s"},
}

type metricDecl struct{ name, unit string }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: fleet-arq, scale-ops or ingest-tcp")
	seed := flags.Uint64("seed", 1, "seed every input of the workload derives from")
	secs := flags.Int("seconds", 10, "seconds one run measures")
	trace := flags.Int("trace", 0, "1 produces the traced per-layer ledger, 0 the end-to-end figures")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) || flags.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload <fleet-arq|scale-ops|ingest-tcp> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	// The ledger records multi-core behaviour; a single-P run would make
	// every worker count and speed-up figure meaningless.
	if p := runtime.GOMAXPROCS(0); p < 2 {
		fmt.Fprintf(stderr, "perfbench: refusing to record a run at GOMAXPROCS=%d; it must run on more than one core\n", p)
		return 2
	}
	ctx := &runCtx{
		seed:     *seed,
		duration: time.Duration(*secs) * time.Second,
		nproc:    runtime.NumCPU(),
		sizes:    fullSizes,
		outDir:   filepath.Join(".bench_build", "results"),
	}
	if err := os.MkdirAll(ctx.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := stampEnv(w.name, *seed, *trace)
	rep, err := measure(ctx, w, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := emit(stdout, ctx, env, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs one workload untraced, or the whole traced ledger, and
// checks the result carries exactly the declared metrics, all finite.
func measure(ctx *runCtx, w *workload, traced bool) (*report, error) {
	rep := newReport()
	want := endToEnd
	if traced {
		want = perLayer
		for _, l := range workloads {
			if err := l.ledger(ctx, rep); err != nil {
				return nil, fmt.Errorf("%s ledger: %w", l.name, err)
			}
		}
	} else if err := w.run(ctx, rep); err != nil {
		return nil, err
	}
	var missing, bad []string
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		switch {
		case !ok || m.Unit != d.unit:
			missing = append(missing, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, d.name)
			rep.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	if len(missing) > 0 || len(rep.metrics) != len(want) {
		return nil, fmt.Errorf("metric set mismatch: missing %v, have %d want %d", missing, len(rep.metrics), len(want))
	}
	rep.check("metrics.finite", len(bad) == 0, "non-finite: %v", bad)
	rep.check("frames.attempted", rep.attempted > 0, "%d frames attempted", rep.attempted)
	return rep, nil
}

// envStamp says where and from what a result was measured.
type envStamp struct {
	Workload   string `json:"workload"`
	Trace      int    `json:"trace"`
	Seed       uint64 `json:"seed"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	// Commit identifies the measured sources: a SHA-256 over every Go
	// source and module file of the checkout, since a benchmark checkout
	// need not be a git repository.
	Commit string `json:"commit"`
}

func stampEnv(w string, seed uint64, trace int) envStamp {
	return envStamp{
		Workload:   w,
		Trace:      trace,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources under root in path order, skipping
// hidden directories such as the build output.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// result is the machine-readable line, and the document written next to
// the build with everything else a reader needs to trust it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type resultDoc struct {
	Env       envStamp          `json:"env"`
	Result    result            `json:"result"`
	Checks    []check           `json:"checks"`
	Checksums map[string]string `json:"checksums"`
	Notes     []string          `json:"notes"`
	Traces    []string          `json:"traces"`
}

func emit(stdout io.Writer, ctx *runCtx, env envStamp, rep *report) error {
	res := result{Correct: rep.correct(), Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: rep.metrics}
	fmt.Fprintf(stdout, "env workload=%s trace=%d seed=%d go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		env.Workload, env.Trace, env.Seed, env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPU, env.Commit)
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Fprintf(stdout, "metric %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	// failed_ratio is zero in every correct run, so it cannot carry a
	// relative bound; it is gated by the correct/failed fields instead.
	fmt.Fprintf(stdout, "metric %-44s %16.6g %s\n", "failed_ratio", float64(rep.failed)/float64(res.Attempted), "ratio")
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(stdout, "check %-40s %s %s\n", c.Name, verdict, c.Detail)
	}
	names := make([]string, 0, len(rep.checksums))
	for k := range rep.checksums {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "checksum %s %s\n", k, rep.checksums[k])
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	if ctx.outDir != "" {
		doc := resultDoc{Env: env, Result: res, Checks: rep.checks, Checksums: rep.checksums, Notes: rep.notes, Traces: ctx.traces}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(ctx.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", env.Workload, env.Seed, env.Trace))
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
