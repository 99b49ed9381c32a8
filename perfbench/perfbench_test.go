package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/rf"
)

// tinySizes keeps every workload to a fraction of a second.
var tinySizes = sizes{
	fleetDevices:      24,
	trajectoryDevices: 2,
	replayCalls:       2000,
	scaleDevices:      3000,
	scaleVirtual:      2 * time.Second,
	opsSetups:         1,
	ingestDevices:     256,
	ingestRecord:      4096,
	ingestRounds:      2,
}

func tinyCtx() *runCtx {
	return &runCtx{seed: 7, duration: 400 * time.Millisecond, nproc: 2, sizes: tinySizes}
}

func requireMetrics(t *testing.T, rep *report, want []metricDecl) {
	t.Helper()
	if len(rep.metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, m.Value, m.Unit, d.unit)
		}
	}
	for _, c := range rep.checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if !rep.correct() {
		t.Errorf("run not correct: %d of %d frames failed", rep.failed, rep.attempted)
	}
}

func TestEndToEndTiny(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(tinyCtx(), w, false)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if v := rep.metrics[d.name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v)
				}
			}
		})
	}
}

func TestLedgerTiny(t *testing.T) {
	rep, err := measure(tinyCtx(), &workloads[0], true)
	if err != nil {
		t.Fatal(err)
	}
	requireMetrics(t, rep, perLayer)
	for _, w := range workloads {
		if rep.checksums[w.name] == "" {
			t.Errorf("ledger carries no checksum for %s", w.name)
		}
	}
}

func TestSameSeedSameChecksums(t *testing.T) {
	ctx := tinyCtx()
	f1, err1 := runFleet(fleetOpts{devices: 16, seed: 3, workers: 2})
	f2, err2 := runFleet(fleetOpts{devices: 16, seed: 3, workers: 2})
	s1, err3 := runScale(ctx, 2, nil)
	s2, err4 := runScale(ctx, 2, nil)
	in := genIngestInputs(ctx.sizes.ingestDevices, ctx.seed)
	lim := ingestLimit{sweeps: []int{5, 5}}
	i1, err5 := runIngest(in, 2, 2, lim, nil)
	i2, err6 := runIngest(in, 2, 2, lim, nil)
	for _, err := range []error{err1, err2, err3, err4, err5, err6} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]string{{f1.sum, f2.sum}, {s1.sum, s2.sum}, {i1.sum, i2.sum}} {
		if p[0] != p[1] {
			t.Errorf("same seed, different checksums: %s vs %s", p[0], p[1])
		}
	}
	if f3, err := runFleet(fleetOpts{devices: 16, seed: 4, workers: 2}); err != nil || f3.sum == f1.sum {
		t.Errorf("another seed should change the fleet checksum (err %v)", err)
	}
}

// dropOne is a hub that loses the first frame of device 3.
type dropOne struct {
	fleet.HubBackend
	dropped atomic.Bool
}

func (d *dropOne) Handle(p []byte, at time.Duration) {
	if rf.PayloadDevice(p) == 3 && d.dropped.CompareAndSwap(false, true) {
		return
	}
	d.HubBackend.Handle(p, at)
}

func TestDroppedFrameFailsFleetCheck(t *testing.T) {
	var hub *dropOne
	o, err := runFleet(fleetOpts{devices: 8, seed: 7, workers: 2, wrapHub: func(h fleet.HubBackend) fleet.HubBackend {
		hub = &dropOne{HubBackend: h}
		return hub
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !hub.dropped.Load() {
		t.Fatal("the wrapper never saw a frame of device 3")
	}
	if o.failed == 0 {
		t.Fatal("a frame lost at the hub went unnoticed by the fleet-arq check")
	}
}

func TestRefusesSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fleet-arq", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut)
	if code == 0 || out.Len() != 0 || !strings.Contains(errOut.String(), "GOMAXPROCS=1") {
		t.Fatalf("exit %d, stdout %q, stderr %q: want a refusal without a result", code, out.String(), errOut.String())
	}
}

// TestBenchmarkJSONDeclaresLedger keeps BENCHMARK.json and the metric
// sets the benchmark prints in step.
func TestBenchmarkJSONDeclaresLedger(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark prints %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark runs %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
