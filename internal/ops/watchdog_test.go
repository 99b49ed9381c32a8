package ops

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

func snapWith(counters map[string]uint64) *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	for k, v := range counters {
		s.AddCounter(k, v)
	}
	return s
}

func TestEvaluateMinRate(t *testing.T) {
	cfg := WatchdogConfig{MinRate: map[string]float64{"hub_events_total": 10}}
	prev := snapWith(map[string]uint64{"hub_events_total": 100})

	// 50 events over 2 s = 25/s: healthy.
	cur := snapWith(map[string]uint64{"hub_events_total": 150})
	if got := Evaluate(cfg, prev, cur, 2*time.Second); len(got) != 0 {
		t.Fatalf("healthy rate breached: %v", got)
	}

	// 10 events over 2 s = 5/s: drained.
	cur = snapWith(map[string]uint64{"hub_events_total": 110})
	got := Evaluate(cfg, prev, cur, 2*time.Second)
	if len(got) != 1 || got[0].Rule != "min-rate" || got[0].Value != 5 {
		t.Fatalf("drain not detected: %v", got)
	}
}

func TestEvaluateLatencyP99(t *testing.T) {
	mk := func(fast, slow int) *telemetry.Snapshot {
		h := telemetry.NewLocalHistogram(telemetry.LatencyBucketsMs)
		for i := 0; i < fast; i++ {
			h.Observe(8)
		}
		for i := 0; i < slow; i++ {
			h.Observe(600)
		}
		s := telemetry.NewSnapshot()
		s.MergeHistogram(telemetry.MetricHubE2ELatency, h.Snapshot())
		return s
	}
	cfg := WatchdogConfig{LatencyMaxP99Ms: 100}

	// All-fast window: clean.
	if got := Evaluate(cfg, telemetry.NewSnapshot(), mk(100, 0), time.Second); len(got) != 0 {
		t.Fatalf("fast window breached: %v", got)
	}

	// The *window* is what matters: prev holds 1000 fast frames, the new
	// window adds 100 slow ones. Cumulative p99 looks fine; the delta must
	// not.
	prev := mk(1000, 0)
	cur := mk(1000, 100)
	got := Evaluate(cfg, prev, cur, time.Second)
	if len(got) != 1 || got[0].Rule != "latency-p99" {
		t.Fatalf("windowed tail regression missed: %v", got)
	}
	if got[0].Value <= 100 {
		t.Fatalf("breach p99 %.1f not above limit", got[0].Value)
	}

	// An idle window (no new observations) is not a latency breach.
	if got := Evaluate(cfg, cur, cur, time.Second); len(got) != 0 {
		t.Fatalf("idle window breached latency: %v", got)
	}
}

func TestEvaluateZeroWindow(t *testing.T) {
	cfg := WatchdogConfig{MinRate: map[string]float64{"x": 1}}
	if got := Evaluate(cfg, telemetry.NewSnapshot(), telemetry.NewSnapshot(), 0); got != nil {
		t.Fatalf("zero-dt window evaluated: %v", got)
	}
}

// liveStore starts a real sampling loop over reg at a short interval.
func liveStore(t *testing.T, reg *telemetry.Registry) *history.Store {
	t.Helper()
	st, err := history.Start(history.Config{Registry: reg, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Stop)
	return st
}

func TestWatchdogStallDetection(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(1)
	done := make(chan struct{})
	var once bool
	w := StartWatchdog(WatchdogConfig{
		History:    liveStore(t, reg),
		StallAfter: 25 * time.Millisecond,
		OnBreach: func(Breach) {
			if !once {
				once = true
				close(done)
			}
		},
	})
	defer w.Stop()

	// Keep the clock moving for a while: no breach may fire.
	for i := 0; i < 10; i++ {
		reg.Gauge(telemetry.MetricSimVirtualSeconds).Set(float64(i + 2))
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-done:
		t.Fatalf("advancing clock reported as stalled: %v", w.Breaches())
	default:
	}

	// Now freeze it: the stall rule must fire.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("frozen clock never reported")
	}
	w.Stop()
	breaches := w.Breaches()
	if breaches[0].Rule != "stall" || breaches[0].Metric != telemetry.MetricSimVirtualSeconds {
		t.Fatalf("wrong breach: %+v", breaches[0])
	}
	if w.Healthy() {
		t.Fatal("watchdog still healthy after stall breach")
	}
}

// TestWatchdogFiresFlightRecorder pins the PR-5 integration: a breach must
// produce a bounded flight-recorder dump through the watchdog's own
// recorder.
func TestWatchdogFiresFlightRecorder(t *testing.T) {
	var dump strings.Builder
	tracer := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	reg := telemetry.New()
	done := make(chan struct{})
	var once bool
	w := StartWatchdog(WatchdogConfig{
		History: liveStore(t, reg),
		MinRate: map[string]float64{telemetry.MetricHubEvents: 100},
		Tracer:  tracer,
		OnBreach: func(Breach) {
			if !once {
				once = true
				close(done)
			}
		},
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drained registry never breached")
	}
	w.Stop()
	if tracer.Dumps() == 0 {
		t.Fatal("breach did not fire the flight recorder")
	}
	if out := dump.String(); !strings.Contains(out, "slo-watchdog") || !strings.Contains(out, "min-rate") {
		t.Fatalf("dump missing watchdog context:\n%s", out)
	}
	bs := w.Breaches()
	if len(bs) == 0 || bs[0].Limit != 100 {
		t.Fatalf("breach list wrong: %v", bs)
	}
}

func TestWatchdogNilAndNoop(t *testing.T) {
	var w *Watchdog
	if !w.Healthy() || w.Breaches() != nil {
		t.Fatal("nil watchdog must be healthy and empty")
	}
	w.Stop() // must not panic
	if StartWatchdog(WatchdogConfig{}) != nil {
		t.Fatal("rule-less config started a watchdog")
	}
	st, err := history.New(history.Config{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if StartWatchdog(WatchdogConfig{History: st}) != nil {
		t.Fatal("rule-less config with a store started a watchdog")
	}
	if StartWatchdog(WatchdogConfig{StallAfter: time.Second}) != nil {
		t.Fatal("storeless config started a watchdog")
	}
}
