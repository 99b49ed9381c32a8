package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/ops"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// scale-ops drives the slab path the way an operator runs it: RunScale
// with its live telemetry on, a history store and the watchdog's rules
// evaluated at 4 Hz, and an ops server scraped in one closed loop, so the
// registry is read while the stripes write it.

const (
	layerSlabSweep = iota
	layerSnapshot
	layerHistSample
	layerEvaluate
)

var scaleLayers = []string{"core.slab_sweep", "telemetry.snapshot", "history.sample", "ops.evaluate"}

const (
	// scaleLoss matches fleet-arq's link loss, so the modelled ARQ and
	// the retransmit latency bins have work.
	scaleLoss   = 0.05
	opsInterval = 250 * time.Millisecond
)

// scaleRules are the watchdog's windowed rules: frames must keep being
// decoded, and the end-to-end p99 must stay under 100 ms.
var scaleRules = ops.WatchdogConfig{
	MinRate:         map[string]float64{telemetry.MetricHubDecoded: 1},
	LatencyMetric:   telemetry.MetricHubE2ELatency,
	LatencyMaxP99Ms: 100,
}

var scrapePaths = []string{"/metrics", "/api/history?k=120"}

// opsPlane is one registry with its history store, ops server and the
// HTTP client that scrapes it.
type opsPlane struct {
	reg    *telemetry.Registry
	store  *history.Store
	srv    *ops.Server
	client *http.Client
}

// startOpsPlane builds the plane and warms it: one history window and one
// scrape, so the listener and the client's connection are up before the
// timed phase.
func startOpsPlane() (*opsPlane, error) {
	reg := telemetry.New()
	store, err := history.New(history.Config{Registry: reg, Interval: opsInterval})
	if err != nil {
		return nil, err
	}
	srv, err := ops.Serve("127.0.0.1:0", ops.Config{Registry: reg, History: store})
	if err != nil {
		return nil, err
	}
	p := &opsPlane{reg: reg, store: store, srv: srv,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}}
	store.Sample()
	if _, err := p.scrape(scrapePaths[0]); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *opsPlane) close() {
	p.client.CloseIdleConnections()
	p.srv.Close()
}

// scrape fetches one endpoint whole and returns its latency.
func (p *opsPlane) scrape(path string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := p.client.Get(p.srv.URL() + path)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return time.Since(t0), nil
}

// scaleOutcome is one RunScale round with its ops plane.
type scaleOutcome struct {
	setups     []time.Duration
	cost       phaseCost
	res        fleet.ScaleResult
	decoded    uint64
	sum        string
	scrapeMs   [2][]float64 // per scrapePaths entry
	scrapeErrs int
	samples    int
	breaches   int
}

func runScale(ctx *runCtx, workers int, tr *spanTracer) (scaleOutcome, error) {
	var out scaleOutcome
	cfg := fleet.ScaleConfig{
		Devices:  ctx.sizes.scaleDevices,
		Seed:     ctx.seed,
		Workers:  workers,
		Duration: ctx.sizes.scaleVirtual,
		LossProb: scaleLoss,
	}
	// Set-up is the ops plane's start plus the construction of the fleet.
	// RunScale builds its slab inside the call, so the same build, with
	// the run's configuration, is timed here on its own and discarded.
	// Each set-up starts on a collected heap, so the garbage of the one
	// before is not charged to it.
	var plane *opsPlane
	for i := 0; i < max(ctx.sizes.opsSetups, 1); i++ {
		if plane != nil {
			plane.close()
		}
		runtime.GC()
		t0 := time.Now()
		p, err := startOpsPlane()
		if err != nil {
			return out, err
		}
		plane = p
		if _, err := core.NewStateSlab(core.SlabConfig{Devices: cfg.Devices, Seed: cfg.Seed, LossProb: cfg.LossProb}); err != nil {
			plane.close()
			return out, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer plane.close()
	cfg.Metrics = plane.reg
	var sampler *track
	if tr != nil {
		cfg.Emit = sweepSpans(tr)
		sampler = tr.newTrack("ops-sampler")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		out.samples, out.breaches = plane.sampleLoop(stop, sampler)
	}()
	go func() {
		defer wg.Done()
		out.scrapeMs, out.scrapeErrs = plane.scrapeLoop(stop)
	}()
	ph := startPhase()
	ended := false
	// RunScale's reporter emits a final snapshot once every stripe has
	// finished and before the slab is released: that is the end of the
	// timed phase, and the live heap there still holds the slab.
	cfg.ReportEvery = time.Hour
	cfg.OnReport = func(*telemetry.Snapshot) {
		out.cost = ph.stop()
		out.cost.liveHeapByte = liveHeap()
		ended = true
	}
	res, err := fleet.RunScale(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		return out, err
	}
	if !ended {
		return out, fmt.Errorf("scale run ended without its final report")
	}
	out.res = res

	snap := plane.reg.Snapshot()
	out.decoded = snap.Counters[telemetry.MetricHubDecoded]
	sum := newChecksum()
	sum.add(res.Ticks, res.Frames, res.Delivered, res.Lost, res.Retransmits, res.Switches, uint64(res.MaxWindow), out.decoded)
	if h, ok := snap.Histogram(telemetry.MetricHubE2ELatency); ok {
		sum.add(h.Counts...)
	}
	out.sum = sum.String()
	return out, nil
}

// sampleLoop is the operator's 4 Hz loop: one history window, then the
// watchdog rules over the registry's change since the last window.
func (p *opsPlane) sampleLoop(stop <-chan struct{}, tk *track) (samples, breaches int) {
	t := time.NewTicker(opsInterval)
	defer t.Stop()
	prev, last := p.reg.Snapshot(), time.Now()
	for {
		select {
		case <-stop:
			return samples, breaches
		case <-t.C:
		}
		tk.begin(layerHistSample)
		p.store.Sample()
		tk.end()
		tk.begin(layerSnapshot)
		cur := p.reg.Snapshot()
		tk.end()
		now := time.Now()
		tk.begin(layerEvaluate)
		breaches += len(ops.Evaluate(scaleRules, prev, cur, now.Sub(last)))
		tk.end()
		samples++
		prev, last = cur, now
	}
}

// scrapeLoop scrapes /metrics and /api/history alternately, each request
// sent when the previous one completed, until stop.
func (p *opsPlane) scrapeLoop(stop <-chan struct{}) (ms [2][]float64, errs int) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return ms, errs
		default:
		}
		k := i % len(scrapePaths)
		d, err := p.scrape(scrapePaths[k])
		if err != nil {
			errs++
			time.Sleep(time.Millisecond)
			continue
		}
		ms[k] = append(ms[k], float64(d.Nanoseconds())/1e6)
	}
}

// sweepSpans is a ScaleConfig.Emit seam that turns each stripe's
// once-per-sweep Flush into a span covering the sweep it ends.
func sweepSpans(tr *spanTracer) func(w, lo, hi int) (*fleet.StripeSink, error) {
	return func(w, lo, hi int) (*fleet.StripeSink, error) {
		tk := tr.newTrack(fmt.Sprintf("stripe-%d", w))
		mark := tr.now()
		return &fleet.StripeSink{
			Emit: func(int, uint16, int16, uint32) {},
			Flush: func() error {
				now := tr.now()
				tk.add(layerSlabSweep, mark, now)
				mark = now
				return nil
			},
		}, nil
	}
}

// scaleAudit checks one round's accounting and returns its failed frames:
// the slab delivers every frame once, and the registry's merged decode
// counter must agree with RunScale's own total.
func scaleAudit(o scaleOutcome) uint64 {
	return absDiff(o.res.Frames, o.res.Delivered) + absDiff(o.decoded, o.res.Delivered)
}

func scaleOpsRun(ctx *runCtx, rep *report) error {
	var rs rounds
	var first string
	same, scrapeErrs := true, 0
	var spent time.Duration
	for spent < ctx.duration || len(rs.fps) == 0 {
		o, err := runScale(ctx, ctx.nproc, nil)
		if err != nil {
			return err
		}
		spent += o.cost.wall
		rep.frames(o.res.Frames, scaleAudit(o))
		if first == "" {
			first = o.sum
		}
		same = same && o.sum == first
		scrapeErrs += o.scrapeErrs
		for _, d := range o.setups {
			rs.setup(d)
		}
		rs.add(o.res.Delivered, o.cost)
	}
	rs.report(rep)
	rep.checksums["scale-ops"] = first
	rep.check("scale-ops.checksum_stable", same, "every round must reproduce %s", first)
	rep.check("scale-ops.scrapes", scrapeErrs == 0, "%d failed scrapes", scrapeErrs)
	rep.note("scale-ops: %d rounds of %d devices x %s virtual at %d workers", len(rs.fps), ctx.sizes.scaleDevices, ctx.sizes.scaleVirtual, ctx.nproc)
	return nil
}

// scaleOpsLedger: an untraced reference round, a traced round (sweep
// spans through the Emit seam, spans around the operator loop's calls),
// a single-worker round for the speed-up, and slab tick replays.
func scaleOpsLedger(ctx *runCtx, rep *report) error {
	ref, err := runScale(ctx, ctx.nproc, nil)
	if err != nil {
		return err
	}
	tr := newSpanTracer(scaleLayers...)
	traced, err := runScale(ctx, ctx.nproc, tr)
	if err != nil {
		return err
	}
	one, err := runScale(ctx, 1, nil)
	if err != nil {
		return err
	}
	for _, o := range []scaleOutcome{ref, traced, one} {
		rep.frames(o.res.Frames, scaleAudit(o))
	}
	rep.checksums["scale-ops"] = ref.sum
	rep.check("scale-ops.traced_checksum", traced.sum == ref.sum, "untraced %s, traced %s", ref.sum, traced.sum)
	rep.check("scale-ops.workers_independent", one.sum == ref.sum, "Workers=1 %s, Workers=%d %s", one.sum, ctx.nproc, ref.sum)
	errs := ref.scrapeErrs + traced.scrapeErrs + one.scrapeErrs
	rep.check("scale-ops.scrapes", errs == 0, "%d failed scrapes", errs)

	if err := slabReplays(ctx, rep); err != nil {
		return err
	}
	lt := tr.totals()
	rep.set("telemetry.snapshot_ns", "ns", lt.perCall(layerSnapshot))
	rep.set("history.sample_ns", "ns", lt.perCall(layerHistSample))
	rep.set("ops.evaluate_ns", "ns", lt.perCall(layerEvaluate))
	rep.set("ops.scrape_metrics_ms_p50", "ms", percentile(ref.scrapeMs[0], 0.50))
	rep.set("ops.scrape_metrics_ms_p99", "ms", percentile(ref.scrapeMs[0], 0.99))
	rep.set("ops.scrape_history_ms_p50", "ms", percentile(ref.scrapeMs[1], 0.50))
	rep.set("ops.scrape_history_ms_p99", "ms", percentile(ref.scrapeMs[1], 0.99))
	rep.set("fleet.scale_speedup", "x", one.cost.wall.Seconds()/ref.cost.wall.Seconds())
	rep.note("scale-ops: %d /metrics and %d /api/history scrapes, %d watchdog windows, %d breaches",
		len(ref.scrapeMs[0]), len(ref.scrapeMs[1]), ref.samples, ref.breaches)

	workers := min(ctx.nproc, ctx.sizes.scaleDevices)
	closure(rep, "scale-ops", traced.cost, ref.cost, workers,
		lt.selfSum(layerSlabSweep, layerSnapshot, layerHistSample, layerEvaluate), traced.res.Delivered)
	return ctx.writeTrace("scale-ops", 2, tr)
}

// slabReplays times the slab's tick paths directly on a slab of the
// workload's size and seed, single-threaded, and measures what one slab
// device keeps live.
func slabReplays(ctx *runCtx, rep *report) error {
	n := ctx.sizes.scaleDevices
	before := liveHeap()
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: n, Seed: ctx.seed, LossProb: scaleLoss})
	if err != nil {
		return err
	}
	rep.set("scale.live_bytes_per_device", "B", (float64(liveHeap())-float64(before))/float64(n))

	const period = 40 * time.Millisecond
	sweeps := max(2, 10*ctx.sizes.replayCalls/n)
	at := time.Duration(0)
	t0 := time.Now()
	for s := 0; s < sweeps; s++ {
		at += period
		slab.TickStripe(0, n, at)
	}
	rep.set("core.slab_tick_ns_per_device", "ns", float64(time.Since(t0).Nanoseconds())/float64(sweeps*n))
	lat := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	t0 = time.Now()
	for s := 0; s < sweeps; s++ {
		at += period
		slab.TickStripeObserved(0, n, at, lat)
	}
	rep.set("core.slab_tick_observed_ns_per_device", "ns", float64(time.Since(t0).Nanoseconds())/float64(sweeps*n))
	return nil
}
