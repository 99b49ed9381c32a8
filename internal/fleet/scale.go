package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// ScaleConfig parameterises a struct-of-arrays scale run: the path that
// takes the fleet from tens of thousands of full *Device graphs to a
// million packed slab devices (see core.StateSlab and DESIGN.md §11).
type ScaleConfig struct {
	// Devices is the fleet size.
	Devices int
	// Seed derives every device stream; results are a pure function of
	// (Seed, Devices), independent of Workers.
	Seed uint64
	// Workers is the number of stripes the slab is split into, one worker
	// goroutine per stripe, each driving its own event scheduler.
	// <= 0 takes GOMAXPROCS. Stripes are ceil(Devices/Workers) devices
	// wide, so fewer stripes than asked for may run (ScaleResult.Workers).
	Workers int
	// Duration is the virtual time each device simulates (default 10 s).
	Duration time.Duration
	// SamplePeriod is the firmware tick (default 40 ms, the prototype's
	// 25 Hz loop).
	SamplePeriod time.Duration
	// Entries sizes the mapped menu (default 12, the flat fleet menu).
	Entries int
	// LossProb is the modelled per-frame loss probability.
	LossProb float64

	// Metrics, when non-nil, turns on the live ops plane for this run:
	// each worker folds every sweep into its stripe's telemetry shard
	// (plain counters and a LocalHistogram under a short per-shard lock —
	// no atomics on the tick path, still 0 allocs/op); a Collector
	// registered here merges the shards on every Snapshot into the
	// canonical fw_*/rf_*/arq_*/hub_* names plus the sim_* engine gauges.
	// The merged counters and histograms are deterministic and
	// worker-count independent; the gauges describe the machine
	// (wall-clock rates).
	// The collector stays registered after the run ends, so a post-run
	// scrape reads the final totals.
	Metrics *telemetry.Registry
	// ReportEvery, with OnReport, emits a merged snapshot at this
	// wall-clock interval during the run (plus one final snapshot).
	ReportEvery time.Duration
	// OnReport receives each periodic snapshot. Ignored without Metrics.
	OnReport func(*telemetry.Snapshot)

	// Emit, when set, is called once per worker before its stripe starts
	// and returns the stripe's frame sink: every frame the slab emits is
	// handed to the sink on the worker's own goroutine, the sink is
	// flushed once per sweep, and closed when the stripe completes. This
	// is how a scale run exports its frame stream off-box — the hubnet
	// client's FrameSender satisfies the contract over one TCP
	// connection per worker. Emission never consumes randomness, so a
	// run's results are bit-identical with or without it.
	Emit func(worker, lo, hi int) (*StripeSink, error)
}

// StripeSink receives one stripe's emitted frames. Emit must not be nil;
// Flush and Close may be.
type StripeSink struct {
	// Emit receives each frame the stripe's devices send.
	Emit core.FrameEmitter
	// Flush runs once per sweep (one firmware cycle across the stripe) —
	// the batching boundary for buffered network senders.
	Flush func() error
	// Close runs when the stripe has simulated its full duration.
	Close func() error
}

// ScaleResult is the outcome of one scale run.
type ScaleResult struct {
	Devices int
	// Workers is the number of stripes that ran: no stripe is empty.
	Workers int
	// Ticks is the total number of firmware cycles executed.
	Ticks uint64
	// Frames/Delivered/Lost/Retransmits/Switches aggregate the slab's wire
	// accounting; MaxWindow is the widest ARQ window any device reached.
	Frames      uint64
	Delivered   uint64
	Lost        uint64
	Retransmits uint64
	Switches    uint64
	MaxWindow   uint16
	// VirtualSeconds is the aggregate simulated time (Devices × Duration);
	// WallSeconds the wall-clock cost; RealTimeFactor their ratio — above
	// 1.0 the box simulates the whole fleet faster than real time.
	VirtualSeconds float64
	WallSeconds    float64
	RealTimeFactor float64
	// TicksPerSecond is the firmware-cycle throughput against wall time.
	TicksPerSecond float64
}

// scaleShard is one stripe's telemetry, the only copy there is. The
// stripe's worker folds each sweep into it and the registry collector reads
// it, both under mu; the critical section is a few adds and a 16-bin
// histogram flush, so a scrape sees state at most one sweep old and never
// waits on a sweep. A nil lat means the run is unobserved.
type scaleShard struct {
	mu      sync.Mutex
	lat     *telemetry.LocalHistogram
	ticks   uint64
	sent    uint64
	lost    uint64
	pending uint64 // frames sent by the last sweep, acked by the next
	virtual time.Duration
	elapsed float64
}

// fold adds one sweep of a stripe of devices, swept at virtual time at and
// finished elapsed wall seconds into the run, to the shard, and drains the
// sweep's tally into the shard's histogram.
func (sh *scaleShard) fold(t *core.SweepTally, devices int, at time.Duration, elapsed float64) {
	sent, lost := t.Sent(), t.Lost()
	sh.mu.Lock()
	sh.ticks += uint64(devices)
	sh.sent += sent
	sh.lost += lost
	// The slab clears every device's window at its next tick, so what is
	// on the air after a sweep is exactly what that sweep sent.
	sh.pending = sent
	sh.virtual = at
	sh.elapsed = elapsed
	t.Flush(sh.lat)
	sh.mu.Unlock()
}

// scaleCollector merges the shards into a snapshot. Shards are visited in
// stripe order and every merged quantity is either an integer sum or a
// float64 sum of exactly-representable values (see core.StateSlab's
// latency model), so the merged counters and histograms do not depend on
// the worker count.
type scaleCollector struct {
	cfg    ScaleConfig
	shards []scaleShard
}

func (sc *scaleCollector) collect(s *telemetry.Snapshot) {
	var ticks uint64
	var totals core.SlabTotals
	minVirtual := time.Duration(-1)
	var maxElapsed float64
	for w := range sc.shards {
		sh := &sc.shards[w]
		sh.mu.Lock()
		ticks += sh.ticks
		totals.Sent += sh.sent
		totals.Lost += sh.lost
		totals.Outstanding += sh.pending
		s.MergeHistogram(telemetry.MetricHubE2ELatency, sh.lat.Snapshot())
		if minVirtual < 0 || sh.virtual < minVirtual {
			minVirtual = sh.virtual
		}
		if sh.elapsed > maxElapsed {
			maxElapsed = sh.elapsed
		}
		sh.mu.Unlock()
	}
	// The slab's wire accounting: every frame is one island switch and is
	// delivered once, and every lost first copy is retransmitted once.
	totals.Delivered, totals.Switches, totals.Retransmits = totals.Sent, totals.Sent, totals.Lost

	s.AddCounter(telemetry.MetricFwCycles, ticks)
	totals.Contribute(s)

	s.SetGauge(telemetry.MetricSimDevices, float64(sc.cfg.Devices))
	s.SetGauge(telemetry.MetricSimWorkers, float64(len(sc.shards)))
	// The slowest stripe's virtual clock: the fleet as a whole has
	// simulated at least this far.
	s.SetGauge(telemetry.MetricSimVirtualSeconds, minVirtual.Seconds())
	s.SetGauge(telemetry.MetricSimFramesInFlight, float64(totals.Outstanding))
	if maxElapsed > 0 {
		tps := float64(ticks) / maxElapsed
		s.SetGauge(telemetry.MetricSimTicksPerSec, tps)
		s.SetGauge(telemetry.MetricSimDevSecPerSec, tps*sc.cfg.SamplePeriod.Seconds())
	}
}

// RunScale simulates a packed slab fleet: Workers stripes of contiguous
// devices, each stripe driven by its own virtual clock and scheduler whose
// single periodic event advances the whole stripe through one firmware
// cycle per firing. Construction is batched (one slab, no per-device
// allocation) and the tick path allocates nothing, which is what lets one
// box push a million devices faster than real time.
//
// With cfg.Metrics set the run is live-observable: scraping the registry
// mid-run (see internal/ops) reads each stripe's telemetry as of its last
// completed sweep.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if cfg.Devices < 1 {
		return ScaleResult{}, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 40 * time.Millisecond
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	slab, err := core.NewStateSlab(core.SlabConfig{
		Devices:  cfg.Devices,
		Seed:     cfg.Seed,
		Entries:  cfg.Entries,
		LossProb: cfg.LossProb,
	})
	if err != nil {
		return ScaleResult{}, err
	}

	// Rounding the stripe width up can leave trailing workers no devices
	// (5 devices on 4 workers: stripes of 2, 2 and 1, and a fourth that
	// would start past the end); run only the stripes that hold devices.
	stripe := (cfg.Devices + workers - 1) / workers
	workers = (cfg.Devices + stripe - 1) / stripe
	res := ScaleResult{Devices: cfg.Devices, Workers: workers}
	ticksPerDevice := uint64(cfg.Duration / cfg.SamplePeriod)

	shards := make([]scaleShard, workers)
	var reporter *telemetry.Reporter
	if cfg.Metrics != nil {
		for w := range shards {
			shards[w].lat = telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
		}
		cfg.Metrics.RegisterCollector((&scaleCollector{cfg: cfg, shards: shards}).collect)
		if cfg.OnReport != nil {
			reporter = telemetry.StartReporter(cfg.Metrics, cfg.ReportEvery, cfg.OnReport)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * stripe
		hi := lo + stripe
		if hi > cfg.Devices {
			hi = cfg.Devices
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			// One firing = one stripe sweep: the scheduler carries a single
			// periodic event, so its hot path stays allocation-free and the
			// per-tick cost is the linear walk over the stripe.
			clock := sim.NewClock(0)
			sched := sim.NewScheduler(clock)
			var sink *StripeSink
			var emit core.FrameEmitter
			if cfg.Emit != nil {
				var err error
				if sink, err = cfg.Emit(w, lo, hi); err != nil {
					errs[w] = fmt.Errorf("emit sink for stripe %d: %w", w, err)
					return
				}
				emit = sink.Emit
			}
			sh := &shards[w]
			var tally *core.SweepTally
			if sh.lat != nil {
				tally = new(core.SweepTally)
			}
			// The first sink error is kept; emission after it is the sink's
			// problem (network senders go dark rather than wedging the tick
			// loop).
			var sinkErr error
			sched.Every(cfg.SamplePeriod, func(at time.Duration) {
				slab.Sweep(lo, hi, at, tally, emit)
				if tally != nil {
					sh.fold(tally, hi-lo, at, time.Since(start).Seconds())
				}
				if sink != nil && sink.Flush != nil {
					if err := sink.Flush(); err != nil && sinkErr == nil {
						sinkErr = err
					}
				}
			})
			errs[w] = sched.Run(cfg.Duration)
			if sink != nil && sink.Close != nil {
				if err := sink.Close(); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
			if errs[w] == nil && sinkErr != nil {
				errs[w] = fmt.Errorf("emit sink for stripe %d: %w", w, sinkErr)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	reporter.Stop()
	for _, err := range errs {
		if err != nil {
			return res, fmt.Errorf("fleet: scale stripe: %w", err)
		}
	}

	t := slab.Totals(0, slab.Len())
	res.Frames = t.Sent
	res.Delivered = t.Delivered
	res.Lost = t.Lost
	res.Retransmits = t.Retransmits
	res.Switches = t.Switches
	res.MaxWindow = t.MaxWindow
	res.Ticks = ticksPerDevice * uint64(cfg.Devices)
	res.VirtualSeconds = cfg.Duration.Seconds() * float64(cfg.Devices)
	if res.WallSeconds > 0 {
		res.RealTimeFactor = res.VirtualSeconds / res.WallSeconds
		res.TicksPerSecond = float64(res.Ticks) / res.WallSeconds
	}
	return res, nil
}
