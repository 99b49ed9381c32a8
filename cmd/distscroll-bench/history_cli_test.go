package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
)

// TestScaleHistoryOut pins the -history-* flags end to end on the scale
// path: the run samples while live and the final JSON replay file decodes
// with the canonical series present.
func TestScaleHistoryOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")
	var out bytes.Buffer
	if err := run([]string{
		"scale", "-devices", "400", "-seed", "3", "-duration", "2s",
		"-history-windows", "64", "-history-interval", "50ms", "-history-out", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "history: sampling telemetry every 50ms, retaining 64 windows") {
		t.Fatalf("no history banner in:\n%s", s)
	}
	if !strings.Contains(s, "wrote telemetry history") {
		t.Fatalf("no history-out line in:\n%s", s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc history.Result
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("history-out not JSON: %v\n%.300s", err, data)
	}
	if doc.Capacity != 64 || doc.Count == 0 {
		t.Fatalf("history shape: capacity=%d count=%d", doc.Capacity, doc.Count)
	}
	// The close-path final sample guarantees the end-of-run totals landed.
	sd, ok := doc.Series["sim_devices"]
	if !ok {
		t.Fatalf("history missing sim_devices; have %d series", len(doc.Series))
	}
	if n := len(sd.Values); n == 0 || sd.Values[n-1] != 400 {
		t.Fatalf("sim_devices history = %v", sd.Values)
	}
	if _, ok := doc.Series["hub_e2e_latency_ms"]; !ok {
		t.Fatal("history missing the latency digest series")
	}
}

// TestServeHistoryEndpoints boots serve with the ops plane and history on
// ephemeral ports and scrapes /api/history and /dash over real HTTP.
func TestServeHistoryEndpoints(t *testing.T) {
	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"serve", "-listen", "127.0.0.1:0", "-for", "3s",
			"-ops-listen", "127.0.0.1:0",
			"-history-windows", "32", "-history-interval", "50ms",
		}, out)
	}()

	url := opsURL(t, out)
	code, body := httpGet(t, url+"/api/history?k=8")
	if code != http.StatusOK {
		t.Fatalf("/api/history = %d:\n%.300s", code, body)
	}
	var doc history.Result
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/api/history not JSON: %v\n%.300s", err, body)
	}
	if doc.Capacity != 32 {
		t.Fatalf("capacity = %d, want 32", doc.Capacity)
	}
	code, body = httpGet(t, url+"/dash")
	if code != http.StatusOK || !strings.Contains(body, "<svg") {
		t.Fatalf("/dash = %d, svg=%v", code, strings.Contains(body, "<svg"))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestScaleSLOBreachEndToEnd induces a min-rate breach on a live scale
// run and checks every surface the one sampler feeds: the breach marker on
// /api/history, the structured 503 on /healthz, and the flight-recorder
// dump of the pre/post-breach history table.
func TestScaleSLOBreachEndToEnd(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr // the breach log and the flight-recorder dump
	defer func() { os.Stderr = saved }()

	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"scale", "-devices", "2000", "-workers", "2", "-seed", "4", "-duration", "600s",
			"-ops-listen", "127.0.0.1:0", "-history-interval", "50ms", "-slo-min-fps", "1e12",
		}, out)
	}()
	url := opsURL(t, out)

	var doc history.Result
	deadline := time.Now().Add(5 * time.Second)
	for len(doc.Breaches) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no breach marker on /api/history")
		}
		time.Sleep(20 * time.Millisecond)
		code, body := httpGet(t, url+"/api/history?k=4")
		if code != http.StatusOK {
			t.Fatalf("/api/history = %d:\n%.300s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/api/history not JSON: %v\n%.300s", err, body)
		}
	}
	if b := doc.Breaches[0]; b.Rule != "min-rate" || b.Metric != "hub_frames_decoded_total" || b.Limit != 1e12 {
		t.Fatalf("breach marker %+v", b)
	}

	code, body := httpGet(t, url+"/healthz")
	var health struct {
		Status   string `json:"status"`
		Breaches []struct {
			Rule  string  `json:"rule"`
			Limit float64 `json:"limit"`
		} `json:"breaches"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d (%v):\n%.300s", code, err, body)
	}
	if health.Status != "slo breach" || len(health.Breaches) == 0 ||
		health.Breaches[0].Rule != "min-rate" || health.Breaches[0].Limit != 1e12 {
		t.Fatalf("/healthz body %+v", health)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slo watchdog:") {
		t.Fatalf("no breach verdict in the run summary:\n%s", out.String())
	}
	dump, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FLIGHT RECORDER dump", "pre/post-breach history", "<- breach"} {
		if !bytes.Contains(dump, []byte(want)) {
			t.Fatalf("flight-recorder dump missing %q:\n%.2000s", want, dump)
		}
	}
}

// opsURL waits for a live run to announce its ops plane on out and
// returns the base URL.
func opsURL(t *testing.T, out *syncBuf) string {
	t.Helper()
	listenRe := regexp.MustCompile(`ops plane listening on (\S+) \([^)]*api/history[^)]*\)`)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ops plane never announced history endpoints:\n%s", out.String())
	return ""
}

// httpGet fetches u whole and returns status and body.
func httpGet(t *testing.T, u string) (int, string) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHistoryFlagValidation pins the rejections of history flag misuse,
// translated from the single-namespace CLI: value checks on the live
// modes, undefined flags on the study and the deleted baseline writer.
func TestHistoryFlagValidation(t *testing.T) {
	checkRejected(t, []rejection{
		{[]string{"scale", "-devices", "100", "-history-windows", "0"}, "-history-windows must be at least 1"},
		{[]string{"scale", "-devices", "100", "-history-interval", "-1s"}, "-history-interval must be positive"},
		{[]string{"fleet", "-devices", "2", "-history-windows", "0"}, "-history-windows must be at least 1"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-history-interval", "0s"}, "-history-interval must be positive"},
		{[]string{"-history-out", "x.json"}, "flag provided but not defined: -history-out"},
		{[]string{"-history-windows", "16", "-run", "F3"}, "flag provided but not defined: -history-windows"},
		{[]string{"saturate", "-connect", "127.0.0.1:9", "-history-out", "x.json"}, "flag provided but not defined: -history-out"},
		{[]string{"scale", "-devices", "100", "-scale-json", "x.json", "-history-out", "y.json"}, "flag provided but not defined: -scale-json"},
	})
}
