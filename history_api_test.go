package distscroll_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	distscroll "github.com/hcilab/distscroll"
)

// historyDoc mirrors the /api/history JSON document shape for decoding.
type historyDoc struct {
	IntervalSeconds float64                      `json:"intervalSeconds"`
	Capacity        int                          `json:"capacity"`
	Count           uint64                       `json:"count"`
	Times           []int64                      `json:"times"`
	Series          map[string]historySeriesData `json:"series"`
}

type historySeriesData struct {
	Kind   string    `json:"kind"`
	Values []float64 `json:"values,omitempty"`
	Count  []float64 `json:"count,omitempty"`
	P99    []float64 `json:"p99,omitempty"`
}

func TestFleetHistoryServed(t *testing.T) {
	f, err := distscroll.NewFleet(4,
		distscroll.WithEntries(10),
		distscroll.WithSeed(5),
		distscroll.WithOpsServer("127.0.0.1:0"),
		distscroll.WithHistory(32, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseOps()

	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}

	// The sampler runs on wall clock; give it a few intervals to capture
	// the post-run counters.
	deadline := time.Now().Add(5 * time.Second)
	var doc historyDoc
	for {
		code, body := get(t, f.OpsURL()+"/api/history")
		if code != http.StatusOK {
			t.Fatalf("/api/history = %d:\n%.500s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/api/history not JSON: %v\n%.500s", err, body)
		}
		if doc.Count >= 2 && len(doc.Series) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never captured: count=%d series=%d", doc.Count, len(doc.Series))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if doc.Capacity != 32 {
		t.Fatalf("capacity = %d, want 32", doc.Capacity)
	}
	if doc.IntervalSeconds != 0.005 {
		t.Fatalf("intervalSeconds = %g, want 0.005", doc.IntervalSeconds)
	}
	if _, ok := doc.Series["fw_cycles_total"]; !ok {
		t.Fatalf("history missing fw_cycles_total; have %d series", len(doc.Series))
	}
	if len(doc.Times) == 0 {
		t.Fatal("history has no window timestamps")
	}

	// The dashboard rides along whenever history is on.
	code, body := get(t, f.OpsURL()+"/dash")
	if code != http.StatusOK || !strings.Contains(body, "<svg") {
		t.Fatalf("/dash = %d, svg=%v", code, strings.Contains(body, "<svg"))
	}

	// WriteHistory emits the same document without the server.
	var buf bytes.Buffer
	if err := f.WriteHistory(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var dump historyDoc
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("WriteHistory not JSON: %v\n%.500s", err, buf.String())
	}
	if dump.Count == 0 {
		t.Fatal("WriteHistory captured nothing")
	}

	if err := f.CloseOps(); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseOps(); err != nil {
		t.Fatalf("second CloseOps: %v", err)
	}
}

func TestFleetHistoryWithoutServer(t *testing.T) {
	// WithHistory alone samples in-process; WriteHistory is the only tap.
	f, err := distscroll.NewFleet(2,
		distscroll.WithEntries(10),
		distscroll.WithSeed(2),
		distscroll.WithHistory(16, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseOps()
	if f.OpsURL() != "" {
		t.Fatalf("OpsURL without server = %q", f.OpsURL())
	}
	if _, err := f.RunAll(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		if err := f.WriteHistory(&buf, 4); err != nil {
			t.Fatal(err)
		}
		var doc historyDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("WriteHistory not JSON: %v", err)
		}
		if doc.Count >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never captured: count=%d", doc.Count)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := f.CloseOps(); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryOptionValidation(t *testing.T) {
	// Device constructor rejects the fleet-only history option.
	if _, err := distscroll.New(distscroll.WithEntries(10), distscroll.WithHistory(0, 0)); err == nil {
		t.Fatal("New accepted WithHistory")
	}
	// Negative parameters are configuration errors.
	if _, err := distscroll.NewFleet(2, distscroll.WithEntries(10), distscroll.WithHistory(-1, 0)); err == nil {
		t.Fatal("negative window count accepted")
	}
	if _, err := distscroll.NewFleet(2, distscroll.WithEntries(10), distscroll.WithHistory(0, -time.Second)); err == nil {
		t.Fatal("negative interval accepted")
	}
	// WriteHistory without the option is an error, not a panic.
	f, err := distscroll.NewFleet(2, distscroll.WithEntries(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteHistory(&buf, 0); err == nil {
		t.Fatal("WriteHistory without WithHistory succeeded")
	}
}

// TestSLOWatchdogImpliesHistory pins that the watchdog's sampler is the
// history store: WithSLOWatchdog alone starts one at WithHistory's
// defaults, and WithHistory still sets its cadence in either order.
func TestSLOWatchdogImpliesHistory(t *testing.T) {
	slo := distscroll.WithSLOWatchdog(distscroll.SLO{StallAfter: time.Hour})
	for _, opts := range [][]distscroll.Option{
		{slo},
		{slo, distscroll.WithHistory(16, 5*time.Millisecond)},
		{distscroll.WithHistory(16, 5*time.Millisecond), slo},
	} {
		f, err := distscroll.NewFleet(2, append([]distscroll.Option{distscroll.WithEntries(10)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.WriteHistory(&buf, 0); err != nil {
			t.Fatalf("%d options: %v", len(opts), err)
		}
		var doc historyDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		want := 1.0
		if len(opts) > 1 {
			want = 0.005
		}
		if doc.IntervalSeconds != want {
			t.Fatalf("%d options: interval %gs, want %gs", len(opts), doc.IntervalSeconds, want)
		}
		if err := f.CloseOps(); err != nil {
			t.Fatal(err)
		}
	}
}
