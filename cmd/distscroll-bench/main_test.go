package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectedExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "F3,F4", "-seed", "9"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "F3") || !strings.Contains(s, "F4") {
		t.Fatalf("report:\n%s", s)
	}
	if !strings.Contains(s, "fit_r2") {
		t.Fatalf("missing metrics:\n%s", s)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "Z9"}, &out); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	var out bytes.Buffer
	if err := run([]string{"-run", "F3", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Hardware inventory") {
		t.Fatalf("file report:\n%s", data)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-run", "F3", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	trials, err := os.ReadFile(filepath.Join(dir, "trials.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trials), "P01") || !strings.Contains(string(trials), "wrong_selection") {
		t.Fatalf("trials.csv:\n%.200s", trials)
	}
	conds, err := os.ReadFile(filepath.Join(dir, "conditions.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distscroll", "hybrid", "winter", "throughput_bps"} {
		if !strings.Contains(string(conds), want) {
			t.Fatalf("conditions.csv missing %q:\n%.300s", want, conds)
		}
	}
}

func TestRunCaseInsensitiveIDs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "f3"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestFleetMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "5", "-seed", "4", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fleet report (5 devices, seed 4)") {
		t.Fatalf("report header:\n%s", s)
	}
	// One table row per device plus the aggregate lines.
	for _, want := range []string{"frames sent", "decode throughput"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	if got := strings.Count(s, "\n"); got < 5+5 {
		t.Fatalf("report too short (%d lines):\n%s", got, s)
	}
}

func TestFleetModeWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.txt")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "2", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fleet report (2 devices") {
		t.Fatalf("file report:\n%s", data)
	}
}

// TestFleetMetricsOut is the fleet-telemetry smoke: a 16-device fleet
// with -metrics and -metrics-out must account every frame per device and
// bin exactly one latency observation per delivered frame. CI runs it
// under the race detector.
func TestFleetMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "16", "-seed", "7", "-metrics", "-metrics-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	rep, delivered := readFleetReport(t, path, 16)
	if rep.Metrics == nil {
		t.Fatal("no metrics snapshot in report")
	}
	lat, ok := rep.Metrics.Histogram("hub_e2e_latency_ms")
	if !ok {
		t.Fatal("no e2e latency histogram")
	}
	if lat.Count != delivered {
		t.Fatalf("latency observations %d != delivered frames %d", lat.Count, delivered)
	}
	var bucketSum uint64
	for _, c := range lat.Counts {
		bucketSum += c
	}
	if bucketSum != delivered {
		t.Fatalf("bucket counts sum %d != delivered frames %d", bucketSum, delivered)
	}
}

// readFleetReport decodes a -metrics-out document, checks it holds one row
// per device and that every device's frames add up (sent = delivered +
// lost + corrupted), and returns it with the delivered total.
func readFleetReport(t *testing.T, path string, devices int) (telemetryReport, uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetryReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%.300s", err, data)
	}
	if rep.Devices != devices || len(rep.PerDevice) != devices {
		t.Fatalf("device counts: %d devices, %d per-device rows, want %d", rep.Devices, len(rep.PerDevice), devices)
	}
	var delivered uint64
	for _, d := range rep.PerDevice {
		if d.Sent == 0 {
			t.Fatalf("device %d sent no frames", d.Device)
		}
		if d.Sent != d.Delivered+d.Lost+d.Corrupted {
			t.Fatalf("device %d loss accounting: %+v", d.Device, d)
		}
		delivered += d.Delivered
	}
	return rep, delivered
}

// TestFleetTraceSoak is the traced lossy fleet soak: a 32-device reliable
// fleet on a lossy, bursty link with span tracing attached. The Perfetto
// export must hold exactly one host-side demux slice per decoded frame,
// decoded must equal the delivered frames in the telemetry report, every
// flow end must have a matching start, and every slice must sit on the
// host process (pid 0). CI runs it under the race detector.
func TestFleetTraceSoak(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	fleetPath := filepath.Join(dir, "fleet.json")
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "32", "-seed", "9", "-reliable",
		"-loss", "0.05", "-burst", "0.01", "-burst-len", "3",
		"-trace-out", tracePath, "-metrics-out", fleetPath}, &out); err != nil {
		t.Fatal(err)
	}
	_, delivered := readFleetReport(t, fleetPath, 32)

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			ID  any    `json:"id"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
		OtherData struct {
			Decoded uint64 `json:"decoded"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace not JSON: %v\n%.300s", err, data)
	}
	var slices uint64
	starts, ends := map[any]bool{}, map[any]bool{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Pid != 0 {
				t.Fatalf("demux slice on pid %d; host slices must live on the host process (pid 0)", e.Pid)
			}
		case "s":
			starts[e.ID] = true
		case "f":
			ends[e.ID] = true
		}
	}
	if slices != trace.OtherData.Decoded || slices != delivered {
		t.Fatalf("%d demux slices, %d decoded, %d delivered; want all equal", slices, trace.OtherData.Decoded, delivered)
	}
	if len(ends) == 0 {
		t.Fatal("trace has no flow ends")
	}
	for id := range ends {
		if !starts[id] {
			t.Fatalf("flow end %v without a matching start", id)
		}
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "3", "-seed", "8", "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Telemetry (Prometheus exposition)",
		"# TYPE rf_frames_sent_total counter",
		"hub_e2e_latency_ms_bucket",
		`hub_e2e_latency_ms_count{device="1"}`,
		"fw_cycles_total",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%.2000s", want, s)
		}
	}
}

func TestScaleMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "500", "-seed", "3", "-duration", "1s"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "scale sweep (seed 3") || !strings.Contains(s, "rt_factor") {
		t.Fatalf("scale report:\n%s", s)
	}
	if !strings.Contains(s, "      500") {
		t.Fatalf("missing 500-device row:\n%s", s)
	}
}

func TestScaleSweepList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "100,200", "-duration", "500ms"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "      100") || !strings.Contains(s, "      200") {
		t.Fatalf("sweep rows missing:\n%s", s)
	}
}

func TestScaleValidationRejectsBadDevices(t *testing.T) {
	for _, args := range [][]string{
		{"scale", "-devices", "0"},
		{"scale", "-devices", "-3"},
		{"scale", "-devices", "100,0"},
		{"scale", "-devices", "abc"},
		{"scale"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestScaleWarnsOnExcessWorkers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scale", "-devices", "2", "-workers", "9", "-duration", "100ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warning: -workers 9 exceeds -devices 2") {
		t.Fatalf("no worker warning:\n%s", out.String())
	}
}

// TestRejectsOutOfRangeValues pins values the single-namespace CLI
// accepted silently: a negative fleet size (it ran the experiments and
// exited 0), a non-positive scale duration (the run printed it, then
// simulated RunScale's 10 s default instead) and a loss probability
// outside [0,1] or NaN on the scale path (which the fleet path rejected
// only above 1).
func TestRejectsOutOfRangeValues(t *testing.T) {
	checkRejected(t, []rejection{
		{[]string{"fleet", "-devices", "-3"}, "-devices must be at least 1"},
		{[]string{"fleet", "-devices", "0"}, "-devices must be at least 1"},
		{[]string{"fleet"}, "-devices must be at least 1"},
		{[]string{"scale", "-devices", "10", "-duration", "-1s"}, "-duration must be positive"},
		{[]string{"scale", "-devices", "10", "-duration", "0s"}, "-duration must be positive"},
		{[]string{"scale", "-devices", "10", "-loss", "2"}, "-loss must be in [0,1]"},
		{[]string{"scale", "-devices", "10", "-loss", "-0.5"}, "-loss must be in [0,1]"},
		{[]string{"scale", "-devices", "10", "-loss", "NaN"}, "-loss must be in [0,1]"},
		{[]string{"fleet", "-devices", "2", "-loss", "-0.5"}, "-loss must be in [0,1]"},
		{[]string{"fleet", "-devices", "2", "-loss", "NaN"}, "-loss must be in [0,1]"},
	})
}
