package fleet

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/telemetry"
)

func TestScaleValidation(t *testing.T) {
	if _, err := RunScale(ScaleConfig{Devices: 0}); err == nil {
		t.Fatal("zero-device scale run accepted")
	}
}

// scaleCounters strips the timing fields so runs are comparable.
func scaleCounters(r ScaleResult) ScaleResult {
	r.WallSeconds = 0
	r.RealTimeFactor = 0
	r.TicksPerSecond = 0
	return r
}

func TestScaleDeterministicAcrossRuns(t *testing.T) {
	cfg := ScaleConfig{Devices: 500, Seed: 42, Workers: 4, Duration: 2 * time.Second, LossProb: 0.05}
	a, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaleCounters(a) != scaleCounters(b) {
		t.Fatalf("scale run not deterministic:\n%+v\nvs\n%+v", scaleCounters(a), scaleCounters(b))
	}
	if a.Frames == 0 || a.Switches == 0 {
		t.Fatalf("scale run produced no traffic: %+v", a)
	}
}

// TestScaleWorkerCountIndependent pins the striping contract: every
// per-device stream derives from (seed, slot) alone, so the worker count
// must not change any counter.
func TestScaleWorkerCountIndependent(t *testing.T) {
	base := ScaleConfig{Devices: 300, Seed: 7, Duration: 2 * time.Second, LossProb: 0.1}
	var ref ScaleResult
	for i, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := RunScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Workers = 0
		got = scaleCounters(got)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("results depend on worker count:\n%d workers: %+v\nvs\n%+v", workers, got, ref)
		}
	}
}

func TestScaleLossAccounting(t *testing.T) {
	res, err := RunScale(ScaleConfig{Devices: 200, Seed: 3, Workers: 2, Duration: 2 * time.Second, LossProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 || res.Retransmits != res.Lost {
		t.Fatalf("loss accounting: %+v", res)
	}
	// The modelled ARQ guarantees delivery: every sent frame arrives.
	if res.Delivered != res.Frames {
		t.Fatalf("delivered %d != frames %d under reliable model", res.Delivered, res.Frames)
	}
	if res.MaxWindow == 0 {
		t.Fatal("ARQ window bookkeeping never saw an outstanding frame")
	}
}

// TestScaleSmoke100k is the CI large-fleet gate: 100k packed devices, a
// short virtual horizon, and the aggregate virtual seconds must beat the
// wall clock (the faster-than-real-time criterion at the 100k point).
func TestScaleSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k smoke skipped in -short")
	}
	res, err := RunScale(ScaleConfig{Devices: 100_000, Seed: 1, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("100k fleet produced no frames")
	}
	if res.RealTimeFactor < 1 {
		t.Fatalf("100k devices slower than real time: factor %.2f (%.1f virtual s in %.1f wall s)",
			res.RealTimeFactor, res.VirtualSeconds, res.WallSeconds)
	}
	t.Logf("100k devices: %.0fx real time, %.0f ticks/s, %d frames",
		res.RealTimeFactor, res.TicksPerSecond, res.Frames)
}

// TestSlabTickZeroAlloc pins the batched tick path: advancing a stripe
// must not allocate with any combination of sweep hooks, nor with the
// per-sweep fold into a stripe's telemetry shard that observed runs add.
func TestSlabTickZeroAlloc(t *testing.T) {
	slab, err := core.NewStateSlab(core.SlabConfig{Devices: 256, Seed: 9, LossProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	emit := core.FrameEmitter(func(int, uint16, int16, uint32) { frames++ })
	tally := new(core.SweepTally)
	sh := &scaleShard{lat: telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)}
	at := time.Duration(0)
	for _, tc := range []struct {
		name  string
		tally *core.SweepTally
		emit  core.FrameEmitter
		fold  bool
	}{
		{"tally=nil,emit=nil", nil, nil, false},
		{"tally=set,emit=nil", tally, nil, false},
		{"tally=nil,emit=set", nil, emit, false},
		{"tally=set,emit=set", tally, emit, false},
		{"fold", tally, emit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				at += 40 * time.Millisecond
				slab.Sweep(0, slab.Len(), at, tc.tally, tc.emit)
				if tc.fold {
					sh.fold(tc.tally, slab.Len(), at, at.Seconds())
				}
			})
			if allocs != 0 {
				t.Fatalf("slab sweep allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
	if frames == 0 || sh.sent == 0 {
		t.Fatalf("hooks saw no traffic: %d emitted, %d folded", frames, sh.sent)
	}
}
