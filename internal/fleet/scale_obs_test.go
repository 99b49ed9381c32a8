package fleet

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestScaleMergedMetricsWorkerCountIndependent pins the shard-merge
// contract of the live ops plane: the merged counters and histograms of a
// scale run are a pure function of (Seed, Devices), no matter how many
// stripes the slab was split into. Gauges are excluded — they describe
// wall-clock rates and progress, not the model.
func TestScaleMergedMetricsWorkerCountIndependent(t *testing.T) {
	base := ScaleConfig{Devices: 300, Seed: 7, Duration: 2 * time.Second, LossProb: 0.1}
	var refCounters map[string]uint64
	var refHists map[string]telemetry.HistogramSnapshot
	for i, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Workers = workers
		cfg.Metrics = telemetry.New()
		if _, err := RunScale(cfg); err != nil {
			t.Fatal(err)
		}
		snap := cfg.Metrics.Snapshot()
		if i == 0 {
			refCounters = snap.Counters
			refHists = snap.Histograms
			if snap.Counters[telemetry.MetricFwCycles] == 0 {
				t.Fatal("merged snapshot has no firmware cycles")
			}
			if h, ok := snap.Histogram(telemetry.MetricHubE2ELatency); !ok || h.Count == 0 {
				t.Fatal("merged snapshot has no e2e latency histogram")
			}
			continue
		}
		if !reflect.DeepEqual(snap.Counters, refCounters) {
			t.Fatalf("merged counters depend on worker count (%d workers):\n%v\nvs\n%v",
				workers, snap.Counters, refCounters)
		}
		if !reflect.DeepEqual(snap.Histograms, refHists) {
			t.Fatalf("merged histograms depend on worker count (%d workers):\n%v\nvs\n%v",
				workers, snap.Histograms, refHists)
		}
	}
}

// TestScaleMergedMetricsMatchResult cross-checks the collector against the
// run's own totals: the canonical counters must agree with ScaleResult and
// the latency histogram must hold one observation per sent frame. The
// uneven splits round the stripe width up past the last device (5 devices
// on 4 workers is stripes of 2, 2 and 1), which must neither run an empty
// stripe nor miscount its cycles.
func TestScaleMergedMetricsMatchResult(t *testing.T) {
	for _, tc := range []struct{ devices, workers, stripes int }{
		{200, 2, 2},
		{5, 4, 3},
		{9, 6, 5},
	} {
		t.Run(fmt.Sprintf("devices=%d,workers=%d", tc.devices, tc.workers), func(t *testing.T) {
			reg := telemetry.New()
			res, err := RunScale(ScaleConfig{
				Devices: tc.devices, Seed: 3, Workers: tc.workers, Duration: 2 * time.Second,
				LossProb: 0.2, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Workers != tc.stripes {
				t.Errorf("ScaleResult.Workers = %d, want the %d stripes that hold devices", res.Workers, tc.stripes)
			}
			snap := reg.Snapshot()
			want := map[string]uint64{
				telemetry.MetricFwCycles:         res.Ticks,
				telemetry.MetricFwScrollEvents:   res.Switches,
				telemetry.MetricFwFramesSent:     res.Frames,
				telemetry.MetricRFSent:           res.Frames + res.Retransmits,
				telemetry.MetricRFLost:           res.Lost,
				telemetry.MetricRFDelivered:      res.Delivered,
				telemetry.MetricARQEnqueued:      res.Frames,
				telemetry.MetricARQAcked:         res.Delivered,
				telemetry.MetricARQRetransmits:   res.Retransmits,
				telemetry.MetricHubDecoded:       res.Delivered,
				telemetry.MetricHubEvents:        res.Delivered,
				telemetry.MetricFwIslandSwitches: res.Switches,
			}
			for name, v := range want {
				if got := snap.Counters[name]; got != v {
					t.Errorf("%s = %d, want %d", name, got, v)
				}
			}
			h, ok := snap.Histogram(telemetry.MetricHubE2ELatency)
			if !ok {
				t.Fatal("no e2e latency histogram in merged snapshot")
			}
			if h.Count != res.Frames {
				t.Fatalf("latency observations %d, want one per sent frame (%d)", h.Count, res.Frames)
			}
			if h.P99 <= 0 || h.Sum <= 0 {
				t.Fatalf("degenerate latency histogram: %+v", h)
			}
			for _, g := range []string{
				telemetry.MetricSimDevices, telemetry.MetricSimWorkers,
				telemetry.MetricSimVirtualSeconds, telemetry.MetricSimFramesInFlight,
			} {
				if _, ok := snap.Gauges[g]; !ok {
					t.Errorf("gauge %s missing from merged snapshot", g)
				}
			}
			if got := snap.Gauges[telemetry.MetricSimDevices]; got != float64(tc.devices) {
				t.Errorf("sim_devices = %g, want %d", got, tc.devices)
			}
			if got := snap.Gauges[telemetry.MetricSimWorkers]; got != float64(tc.stripes) {
				t.Errorf("sim_workers = %g, want %d", got, tc.stripes)
			}
			if got := snap.Gauges[telemetry.MetricSimVirtualSeconds]; got != 2 {
				t.Errorf("sim_virtual_seconds = %g, want 2 after the run", got)
			}
		})
	}
}

// TestScaleInstrumentedMatchesPlain pins that attaching a registry does not
// perturb the simulation itself: the modelled latency draws come from a
// (slot, seq) hash, not the device RNG stream.
func TestScaleInstrumentedMatchesPlain(t *testing.T) {
	cfg := ScaleConfig{Devices: 250, Seed: 11, Workers: 3, Duration: 2 * time.Second, LossProb: 0.05}
	plain, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.New()
	inst, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCounters(plain) != scaleCounters(inst) {
		t.Fatalf("instrumentation changed the simulation:\nplain %+v\ninstrumented %+v",
			scaleCounters(plain), scaleCounters(inst))
	}
}

// TestScaleOnReport exercises the live feed: a mid-run wall-clock reporter
// must observe the canonical counters moving.
func TestScaleOnReport(t *testing.T) {
	reg := telemetry.New()
	var reports atomic.Uint64
	_, err := RunScale(ScaleConfig{
		Devices: 5_000, Seed: 1, Workers: 2, Duration: 20 * time.Second,
		Metrics: reg, ReportEvery: 10 * time.Millisecond,
		OnReport: func(s *telemetry.Snapshot) {
			if s.Counters[telemetry.MetricFwCycles] > 0 {
				reports.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reports.Load() == 0 {
		t.Fatal("no report saw a nonzero cycle counter (final snapshot alone should)")
	}
}

// TestSlabTickObservedZeroAlloc pins the instrumented tick path: advancing
// a stripe with a latency shard attached must still not allocate.
func TestSlabTickObservedZeroAlloc(t *testing.T) {
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: 256, Seed: 9, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	lat := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		at += 40 * time.Millisecond
		slab.TickStripeObserved(0, slab.Len(), at, lat)
	})
	if allocs != 0 {
		t.Fatalf("observed slab tick allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScaleLiveReadFresh pins that a mid-run scrape reads the stripe as of
// its last sweep, with every sweep folded whole. The sink's Flush runs on
// the worker after sweep k, so by then the registry must report at least
// the k−1 sweeps before it, and the counters and latency histogram that one
// fold updates must agree in every snapshot. No wall clock is involved:
// the sweep count drives the test.
func TestScaleLiveReadFresh(t *testing.T) {
	const devices = 200
	const period = 40 * time.Millisecond
	reg := telemetry.New()
	var k uint64
	var failure string
	check := func() {
		k++
		s := reg.Snapshot()
		c := s.Counters
		h, _ := s.Histogram(telemetry.MetricHubE2ELatency)
		switch cycles := c[telemetry.MetricFwCycles]; {
		case cycles < (k-1)*devices || cycles > k*devices:
			failure = fmt.Sprintf("fw_cycles_total = %d, want within [%d, %d]", cycles, (k-1)*devices, k*devices)
		case s.Gauges[telemetry.MetricSimVirtualSeconds] < (time.Duration(k-1) * period).Seconds():
			failure = fmt.Sprintf("sim_virtual_seconds = %g, want >= %g",
				s.Gauges[telemetry.MetricSimVirtualSeconds], (time.Duration(k-1) * period).Seconds())
		case c[telemetry.MetricRFSent] != c[telemetry.MetricFwFramesSent]+c[telemetry.MetricARQRetransmits]:
			failure = fmt.Sprintf("rf_frames_sent_total %d != fw_frames_sent_total %d + arq_retransmits_total %d",
				c[telemetry.MetricRFSent], c[telemetry.MetricFwFramesSent], c[telemetry.MetricARQRetransmits])
		case c[telemetry.MetricHubDecoded] != c[telemetry.MetricFwFramesSent]:
			failure = fmt.Sprintf("hub_frames_decoded_total %d != fw_frames_sent_total %d",
				c[telemetry.MetricHubDecoded], c[telemetry.MetricFwFramesSent])
		case h.Count != c[telemetry.MetricFwFramesSent]:
			failure = fmt.Sprintf("%d latency observations, want one per sent frame (%d)",
				h.Count, c[telemetry.MetricFwFramesSent])
		default:
			return
		}
		failure = fmt.Sprintf("sweep %d: %s", k, failure)
	}
	_, err := RunScale(ScaleConfig{
		Devices: devices, Seed: 4, Workers: 1, Duration: 2 * time.Second, SamplePeriod: period,
		LossProb: 0.1, Metrics: reg,
		Emit: func(_, _, _ int) (*StripeSink, error) {
			return &StripeSink{
				Emit: func(int, uint16, int16, uint32) {},
				Flush: func() error {
					if failure == "" {
						check()
					}
					return nil
				},
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
	if want := uint64(2 * time.Second / period); k != want {
		t.Fatalf("sink flushed %d times, want once per sweep (%d)", k, want)
	}
	if reg.Snapshot().Counters[telemetry.MetricFwFramesSent] == 0 {
		t.Fatal("run sent no frames: the accounting checks saw nothing")
	}
}
