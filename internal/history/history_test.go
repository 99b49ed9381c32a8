package history

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// tickClock advances one interval per call, making every window's dt
// exactly the configured cadence.
func tickClock(step time.Duration) func() time.Time {
	t := time.UnixMilli(1_700_000_000_000)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func newTestStore(t *testing.T, windows int) *Store {
	t.Helper()
	s, err := New(Config{
		Registry: telemetry.New(),
		Windows:  windows,
		Interval: time.Second,
		Now:      tickClock(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func snap() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
	}
}

func TestCounterWindowedRates(t *testing.T) {
	s := newTestStore(t, 8)
	for i, total := range []uint64{100, 150, 150, 400} {
		sn := snap()
		sn.Counters["hub_events_total"] = total
		s.Observe(sn)
		if got := s.Captured(); got != uint64(i+1) {
			t.Fatalf("captured %d after %d windows", got, i+1)
		}
	}
	res := s.Query(Query{})
	sd, ok := res.Series["hub_events_total"]
	if !ok || sd.Kind != "counter" {
		t.Fatalf("missing counter series: %+v", res.Series)
	}
	// First sight records rate 0 (no spike from pre-history), then the
	// per-second deltas.
	want := []float64{0, 50, 0, 250}
	if len(sd.Values) != len(want) {
		t.Fatalf("got %d windows, want %d", len(sd.Values), len(want))
	}
	for i, w := range want {
		if sd.Values[i] != w {
			t.Fatalf("window %d rate %g, want %g (all %v)", i, sd.Values[i], w, sd.Values)
		}
	}
}

func TestCounterRegressionRebaselines(t *testing.T) {
	s := newTestStore(t, 8)
	for _, total := range []uint64{100, 150, 30, 40} {
		sn := snap()
		sn.Counters["c"] = total
		s.Observe(sn)
	}
	vals := s.Query(Query{}).Series["c"].Values
	// The backwards step (registry swap) records 0, then deltas resume.
	want := []float64{0, 50, 0, 10}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d rate %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
}

func TestGaugeRepeatsLastValue(t *testing.T) {
	s := newTestStore(t, 8)
	sn := snap()
	sn.Gauges["sim_devices"] = 7
	s.Observe(sn)
	s.Observe(snap()) // gauge vanished: repeat last value
	sn = snap()
	sn.Gauges["sim_devices"] = 9
	s.Observe(sn)
	vals := s.Query(Query{}).Series["sim_devices"].Values
	want := []float64{7, 7, 9}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d gauge %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
}

func TestHistogramDeltaDigests(t *testing.T) {
	reg := telemetry.New()
	s, err := New(Config{Registry: reg, Windows: 8, Interval: time.Second, Now: tickClock(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("hub_e2e_latency_ms", []float64{1, 5, 20, 100})
	h.Observe(1)
	s.Sample() // first sight: empty digest, baseline latched
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	s.Sample()
	s.Sample() // no new observations: empty digest

	sd := s.Query(Query{}).Series["hub_e2e_latency_ms"]
	if sd.Kind != "histogram" {
		t.Fatalf("kind %q", sd.Kind)
	}
	if sd.Count[0] != 0 {
		t.Fatalf("first-sight digest count %g, want 0", sd.Count[0])
	}
	if sd.Count[1] != 100 {
		t.Fatalf("window 1 digest count %g, want 100", sd.Count[1])
	}
	// All 100 observations were 10ms: every quantile of the window's
	// delta lands in the bucket containing 10.
	if sd.P50[1] <= 0 || sd.P99[1] < sd.P50[1] || sd.Max[1] < sd.P99[1] {
		t.Fatalf("digest quantiles not ordered: p50=%g p99=%g max=%g", sd.P50[1], sd.P99[1], sd.Max[1])
	}
	if sd.Count[2] != 0 || sd.P99[2] != 0 {
		t.Fatalf("idle window digest not empty: count=%g p99=%g", sd.Count[2], sd.P99[2])
	}
}

func TestRingWrapKeepsLastWindows(t *testing.T) {
	s := newTestStore(t, 4)
	for i := 1; i <= 10; i++ {
		sn := snap()
		sn.Gauges["g"] = float64(i)
		s.Observe(sn)
	}
	res := s.Query(Query{})
	if res.Count != 10 || res.Start != 6 || res.Capacity != 4 {
		t.Fatalf("count=%d start=%d capacity=%d", res.Count, res.Start, res.Capacity)
	}
	vals := res.Series["g"].Values
	want := []float64{7, 8, 9, 10}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("window %d value %g, want %g (all %v)", i, vals[i], w, vals)
		}
	}
	if len(res.Times) != 4 {
		t.Fatalf("times %v", res.Times)
	}
	for i := 1; i < len(res.Times); i++ {
		if res.Times[i] != res.Times[i-1]+1000 {
			t.Fatalf("times not 1s apart: %v", res.Times)
		}
	}
}

func TestQuerySelection(t *testing.T) {
	s := newTestStore(t, 8)
	for i := 0; i < 5; i++ {
		sn := snap()
		sn.Counters["hub_events_total"] = uint64(i * 10)
		sn.Counters["net_frames_total"] = uint64(i * 20)
		sn.Gauges["sim_devices"] = 3
		s.Observe(sn)
	}

	res := s.Query(Query{LastK: 2})
	if len(res.Times) != 2 || res.Start != 3 {
		t.Fatalf("lastK: start=%d times=%v", res.Start, res.Times)
	}
	if len(res.Series) != 3 {
		t.Fatalf("unfiltered query returned %d series", len(res.Series))
	}

	res = s.Query(Query{Series: []string{"sim_devices"}})
	if len(res.Series) != 1 || res.Series["sim_devices"].Kind != "gauge" {
		t.Fatalf("series filter: %+v", res.Series)
	}

	res = s.Query(Query{Prefixes: []string{"hub_", "net_"}})
	if len(res.Series) != 2 {
		t.Fatalf("prefix filter: %+v", res.Series)
	}

	names := s.SeriesNames()
	if len(names) != 3 || names[0] != "hub_events_total" {
		t.Fatalf("series names %v", names)
	}
}

func TestMarkBreachForensics(t *testing.T) {
	s := newTestStore(t, 32)
	for i := 1; i <= 5; i++ {
		sn := snap()
		sn.Counters["hub_frames_decoded_total"] = uint64(i * 100)
		sn.Gauges["net_ring_depth"] = float64(i)
		s.Observe(sn)
	}

	var got *Forensics
	mark := s.MarkBreach(BreachMark{
		Rule: "min-rate", Metric: "hub_frames_decoded_total", Value: 0, Limit: 50, AtMillis: 123,
	}, 3, func(f *Forensics) { got = f })
	if mark.Window != 5 {
		t.Fatalf("mark window %d, want 5", mark.Window)
	}

	for i := 6; i <= 7; i++ {
		sn := snap()
		sn.Counters["hub_frames_decoded_total"] = uint64(i * 100)
		s.Observe(sn)
		if got != nil {
			t.Fatalf("forensics fired after %d post windows, want 3", i-5)
		}
	}
	sn := snap()
	sn.Counters["hub_frames_decoded_total"] = 800
	s.Observe(sn)
	if got == nil {
		t.Fatal("forensics never fired")
	}
	if got.Mark.Window != 5 || got.Start != 0 || len(got.Times) != 8 {
		t.Fatalf("capture shape: mark=%d start=%d windows=%d", got.Mark.Window, got.Start, len(got.Times))
	}
	if _, ok := got.Series["hub_frames_decoded_total"]; !ok {
		t.Fatalf("capture missing breach metric: %v", got.Series)
	}

	var tbl strings.Builder
	got.WriteTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"min-rate", "hub_frames_decoded_total", "<- breach"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	// The latched marker shows up on the query timeline too.
	res := s.Query(Query{})
	if len(res.Breaches) != 1 || res.Breaches[0].Window != 5 || res.Breaches[0].AtMillis != 123 {
		t.Fatalf("query breaches: %+v", res.Breaches)
	}
}

func TestStopFlushesPendingForensics(t *testing.T) {
	s := newTestStore(t, 16)
	sn := snap()
	sn.Counters["c"] = 10
	s.Observe(sn)

	var got *Forensics
	s.MarkBreach(BreachMark{Rule: "stall", Metric: "c"}, 10, func(f *Forensics) { got = f })
	s.Stop() // run ends inside the tail: the capture fires with what exists
	if got == nil {
		t.Fatal("Stop did not flush the pending capture")
	}
	if len(got.Times) != 1 {
		t.Fatalf("flushed capture has %d windows, want 1", len(got.Times))
	}
	s.Stop() // idempotent
}

func TestSamplerLoop(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("hub_events_total").Add(1)
	s, err := Start(Config{Registry: reg, Windows: 64, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Captured() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never captured 3 windows")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	after := s.Captured()
	time.Sleep(10 * time.Millisecond)
	if got := s.Captured(); got != after {
		t.Fatalf("sampler still running after Stop: %d -> %d", after, got)
	}
	s.Stop() // idempotent
}

func TestNilAndErrorPaths(t *testing.T) {
	var s *Store
	s.Stop()
	s.Sample()
	s.Observe(nil)
	if s.Windows() != 0 || s.Interval() != 0 || s.Captured() != 0 {
		t.Fatal("nil accessors must be inert")
	}
	if res := s.Query(Query{}); res == nil || len(res.Series) != 0 {
		t.Fatalf("nil query: %+v", res)
	}
	if names := s.SeriesNames(); names != nil {
		t.Fatalf("nil series names: %v", names)
	}
	s.MarkBreach(BreachMark{}, 1, nil)

	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil registry")
	}
	if _, err := Start(Config{}); err == nil {
		t.Fatal("Start accepted a nil registry")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := New(Config{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Windows() != DefaultWindows || s.Interval() != DefaultInterval {
		t.Fatalf("defaults: windows=%d interval=%s", s.Windows(), s.Interval())
	}
}

func TestSubscribe(t *testing.T) {
	s := newTestStore(t, 8)
	s.Observe(snap())
	type delivery struct {
		prev, cur *telemetry.Snapshot
		gap       time.Duration
	}
	var got []delivery
	cancel := s.Subscribe(func(prev, cur *telemetry.Snapshot, gap time.Duration) {
		got = append(got, delivery{prev, cur, gap})
	})
	a, b := snap(), snap()
	s.Observe(a) // the window in progress at Subscribe: skipped
	if len(got) != 0 {
		t.Fatalf("window in progress delivered: %+v", got)
	}
	s.Observe(b)
	if len(got) != 1 || got[0].prev != a || got[0].cur != b || got[0].gap != time.Second {
		t.Fatalf("delivery %+v, want (a, b, 1s)", got)
	}
	cancel()
	cancel() // idempotent
	s.Observe(snap())
	if len(got) != 1 {
		t.Fatalf("delivered after cancel: %d", len(got))
	}
	var nilStore *Store
	nilStore.Subscribe(nil)()
}
