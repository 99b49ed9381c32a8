package ops

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// These pin the one-sampler design: the history store is the ops plane's
// only sampler and the watchdog judges exactly the store's windows.

// TestOneSnapshotPerWindow counts registry snapshots through a collector:
// with history and every SLO rule on, each window snapshots the registry
// exactly once (a watchdog with its own sampler took a second one).
func TestOneSnapshotPerWindow(t *testing.T) {
	reg := telemetry.New()
	var snapshots int
	reg.RegisterCollector(func(*telemetry.Snapshot) { snapshots++ })
	decoded := reg.Counter(telemetry.MetricHubDecoded)
	lat := reg.Histogram(telemetry.MetricHubE2ELatency, telemetry.LatencyBucketsMs)
	clk := newFakeClock()
	w, st := clockedWatchdog(t, reg, clk, WatchdogConfig{
		MinRate:         map[string]float64{telemetry.MetricHubDecoded: 10},
		LatencyMaxP99Ms: 1000,
		StallGauge:      telemetry.MetricHubDecoded,
		StallAfter:      5 * time.Second,
	})
	const n = 20
	for i := 1; i < n; i++ { // clockedWatchdog captured the first window
		decoded.Add(100)
		lat.Observe(5)
		stepN(st, clk, 1, time.Second)
	}
	if snapshots != n || st.Captured() != n {
		t.Fatalf("%d registry snapshots over %d windows, want exactly one per window", snapshots, st.Captured())
	}
	if !w.Healthy() {
		t.Fatalf("healthy run breached: %v", w.Breaches())
	}
}

// TestWatchdogSkipsWindowInProgress attaches mid-window after a stretch
// of pre-run idle time: that window mixes idle time from before the run
// with the run's first events, so it must not read as a drain. The next,
// fully observed window is evaluated.
func TestWatchdogSkipsWindowInProgress(t *testing.T) {
	reg := telemetry.New()
	events := reg.Counter(telemetry.MetricHubEvents)
	clk := newFakeClock()
	st, err := history.New(history.Config{Registry: reg, Interval: time.Second, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	st.Sample()
	clk.advance(900 * time.Millisecond) // idle before the run starts
	w := StartWatchdog(WatchdogConfig{
		History: st,
		MinRate: map[string]float64{telemetry.MetricHubEvents: 1000},
	})
	defer w.Stop()
	events.Add(150) // 1500/s over the run's first 100 ms, 150/s over the window
	stepN(st, clk, 1, 100*time.Millisecond)
	events.Add(1500)
	stepN(st, clk, 1, time.Second)
	if !w.Healthy() {
		t.Fatalf("the window in progress at attach was judged: %v", w.Breaches())
	}
	stepN(st, clk, 1, time.Second) // a genuinely drained window
	if bs := w.Breaches(); len(bs) != 1 || bs[0].Rule != "min-rate" {
		t.Fatalf("drained window after attach not judged: %v", bs)
	}
}

// TestConcurrentSamplesSerialiseDeliveries races two samplers (the CLI's
// final Sample runs while the loop is still live) against a subscribed
// watchdog: deliveries must never overlap and must arrive in window
// order. Run under -race, which also checks the watchdog's own
// unsynchronised window state.
func TestConcurrentSamplesSerialiseDeliveries(t *testing.T) {
	reg := telemetry.New()
	reg.Counter(telemetry.MetricHubEvents).Add(1)
	st := newHistStore(t, reg)
	w := StartWatchdog(WatchdogConfig{
		History:    st,
		MinRate:    map[string]float64{telemetry.MetricHubEvents: 1e12},
		StallGauge: telemetry.MetricHubEvents,
		StallAfter: 3 * time.Second,
	})
	var inFlight atomic.Int32
	var last *telemetry.Snapshot
	delivered, ordered := 0, true // unsynchronised on purpose
	cancel := st.Subscribe(func(prev, cur *telemetry.Snapshot, _ time.Duration) {
		if inFlight.Add(1) != 1 {
			t.Error("overlapping deliveries")
		}
		if last != nil && prev != last {
			ordered = false
		}
		last = cur
		delivered++
		inFlight.Add(-1)
	})

	const perSampler = 100
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSampler; j++ {
				st.Sample()
			}
		}()
	}
	wg.Wait()
	w.Stop()
	cancel()
	if got := st.Captured(); got != 2*perSampler {
		t.Fatalf("captured %d windows, want %d", got, 2*perSampler)
	}
	if delivered != 2*perSampler-1 || !ordered {
		t.Fatalf("%d deliveries (want %d), in window order: %v", delivered, 2*perSampler-1, ordered)
	}
	if w.Healthy() {
		t.Fatal("the watchdog never judged the drained windows")
	}
}

// TestWatchdogReportsEachEpisodeOnce pins edge-triggered windowed rules:
// a drain lasting many windows is one breach (one marker, one capture),
// and a drain after a recovery is a second one.
func TestWatchdogReportsEachEpisodeOnce(t *testing.T) {
	reg := telemetry.New()
	events := reg.Counter(telemetry.MetricHubEvents)
	clk := newFakeClock()
	w, st := clockedWatchdog(t, reg, clk, WatchdogConfig{
		MinRate: map[string]float64{telemetry.MetricHubEvents: 100},
	})
	stepN(st, clk, 5, time.Second) // drained for five windows
	clk.advance(time.Hour)         // a skipped, stretched window does not split it
	st.Sample()
	stepN(st, clk, 2, 0) // nor do frozen-clock windows
	stepN(st, clk, 1, time.Second)
	if got := len(w.Breaches()); got != 1 {
		t.Fatalf("one drain reported %d times: %v", got, w.Breaches())
	}
	events.Add(500)
	stepN(st, clk, 1, time.Second) // recovered
	stepN(st, clk, 3, time.Second) // drained again
	bs := w.Breaches()
	if len(bs) != 2 || bs[1].Rule != "min-rate" {
		t.Fatalf("second drain not reported once: %v", bs)
	}
	if marks := st.Query(history.Query{}).Breaches; len(marks) != 2 {
		t.Fatalf("%d timeline markers for two drains", len(marks))
	}
}

// TestHistoryNonFiniteGauge pins the NaN-gauge fix: a poisoned gauge is
// retained as 0, so /api/history keeps serving decodable JSON instead of
// a 200 with an empty body.
func TestHistoryNonFiniteGauge(t *testing.T) {
	reg := telemetry.New()
	reg.Gauge(telemetry.MetricNetRingDepth).Set(math.NaN())
	reg.Gauge(telemetry.MetricSimDevices).Set(math.Inf(1))
	st := newHistStore(t, reg)
	st.Sample()
	reg.Gauge(telemetry.MetricNetRingDepth).Set(math.Inf(-1))
	st.Sample()

	code, body := getBody(t, Handler(Config{Registry: reg, History: st}), "/api/history")
	if code != http.StatusOK {
		t.Fatalf("/api/history = %d", code)
	}
	var res history.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("/api/history body not JSON: %v\n%q", err, body)
	}
	for _, name := range []string{telemetry.MetricNetRingDepth, telemetry.MetricSimDevices} {
		vals := res.Series[name].Values
		if len(vals) != 2 || vals[0] != 0 || vals[1] != 0 {
			t.Fatalf("%s = %v, want non-finite samples as 0", name, vals)
		}
	}
}
