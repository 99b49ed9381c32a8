package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one invocation measured and checked.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted uint64
	failed    uint64
	checks    []check
	checksums map[string]string
	notes     []string
}

// check is one correctness assertion; a failing check makes the run
// incorrect whatever its frame counts say.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, checksums: map[string]string{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// frames adds one run's frame accounting.
func (r *report) frames(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

// correct holds when every check passed and no frame failed.
func (r *report) correct() bool {
	if r.failed != 0 || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// rounds gathers a run's timed rounds into the end-to-end metrics, each
// the median over the rounds.
type rounds struct{ fps, cpuNs, heapMB, setupS []float64 }

func (r *rounds) add(frames uint64, c phaseCost) {
	r.fps = append(r.fps, float64(frames)/c.wall.Seconds())
	r.cpuNs = append(r.cpuNs, perFrame(c.cpu, frames))
	r.heapMB = append(r.heapMB, float64(c.liveHeapByte)/(1<<20))
}

func (r *rounds) setup(d time.Duration) { r.setupS = append(r.setupS, d.Seconds()) }

func (r *rounds) report(rep *report) {
	rep.set("frames_per_s", "1/s", median(r.fps))
	rep.set("cpu_ns_per_frame", "ns", median(r.cpuNs))
	rep.set("setup_s", "s", median(r.setupS))
	rep.set("live_heap_mb", "MB", median(r.heapMB))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase brackets a timed phase: wall time, process CPU time and the
// allocator and GC counters it moved.
type phase struct {
	wall0 time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
}

type phaseCost struct {
	wall, cpu    time.Duration
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
	liveHeapByte uint64
}

func startPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuTime()
	p.wall0 = time.Now()
	return p
}

// stop ends the phase. The caller fills liveHeapByte once the phase's
// helpers have stopped, while it still holds the system under test.
func (p *phase) stop() phaseCost {
	wall := time.Since(p.wall0)
	cpu := cpuTime() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := phaseCost{
		wall:       wall,
		cpu:        cpu,
		mallocs:    ms.Mallocs - p.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - p.ms0.TotalAlloc,
		gcCycles:   ms.NumGC - p.ms0.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs - p.ms0.PauseTotalNs),
	}
	return c
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func perFrame(d time.Duration, frames uint64) float64 {
	if frames == 0 {
		return math.NaN()
	}
	return float64(d.Nanoseconds()) / float64(frames)
}

// checksum is an FNV-1a digest over a sequence of counters: the behaviour
// fingerprint every throughput figure carries, so a speed-up that changes
// what the system did cannot pass as a gain.
type checksum struct{ h hash.Hash64 }

func newChecksum() *checksum { return &checksum{h: fnv.New64a()} }

func (c *checksum) add(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		c.h.Write(b[:])
	}
}

func (c *checksum) String() string { return fmt.Sprintf("%016x", c.h.Sum64()) }

// absDiff is |a-b| for counters.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
