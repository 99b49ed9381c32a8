package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// spanTracer records spans that the benchmark's own code opens around the
// calls it makes into each layer. Spans live on tracks; a track is written
// by one goroutine at a time (a fleet device, a slab stripe, a client
// connection), so recording takes no lock. Per-layer totals accumulate as
// spans close; a bounded sample of raw spans is kept in memory for the
// trace file written when the run ends.
type spanTracer struct {
	layers []string
	epoch  time.Time

	mu     sync.Mutex
	tracks []*track
	// rawLeft is the raw-span budget still unassigned to tracks: the first
	// tracks take it, so a 16k-device fleet keeps a readable sample
	// instead of tens of millions of spans.
	rawLeft int
}

// rawPerTrack caps the raw spans one track keeps; rawTotal caps them all.
const (
	rawPerTrack = 20000
	rawTotal    = 200000
)

func newSpanTracer(layers ...string) *spanTracer {
	return &spanTracer{layers: layers, epoch: time.Now(), rawLeft: rawTotal}
}

// now is nanoseconds since the tracer's epoch on the monotonic clock.
func (t *spanTracer) now() int64 { return int64(time.Since(t.epoch)) }

// track is one single-writer span stack. A nil *track records nothing, so
// traced and untraced runs share one code path.
type track struct {
	name  string
	t     *spanTracer
	depth int
	stack [8]openSpan
	// self and calls are indexed by layer. Self time is a span's
	// duration minus the time its child spans cover.
	self  []int64
	calls []int64
	raw   []rawSpan
}

type openSpan struct {
	layer int
	start int64
	child int64
}

type rawSpan struct {
	layer      int
	start, dur int64
}

// newTrack registers a track; safe for concurrent use.
func (t *spanTracer) newTrack(name string) *track {
	n := len(t.layers)
	tk := &track{name: name, t: t, self: make([]int64, n), calls: make([]int64, n)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := min(rawPerTrack, t.rawLeft); k > 0 {
		tk.raw = make([]rawSpan, 0, k)
		t.rawLeft -= k
	}
	t.tracks = append(t.tracks, tk)
	return tk
}

func (tk *track) begin(layer int) {
	if tk == nil {
		return
	}
	tk.stack[tk.depth] = openSpan{layer: layer, start: tk.t.now()}
	tk.depth++
}

func (tk *track) end() {
	if tk == nil {
		return
	}
	tk.depth--
	s := tk.stack[tk.depth]
	tk.close(s, tk.t.now()-s.start)
}

// add records a span measured outside begin/end, e.g. the interval
// between two calls of a seam the benchmark does not wrap itself.
func (tk *track) add(layer int, start, end int64) {
	if tk == nil {
		return
	}
	tk.close(openSpan{layer: layer, start: start}, end-start)
}

func (tk *track) close(s openSpan, d int64) {
	tk.self[s.layer] += d - s.child
	tk.calls[s.layer]++
	if tk.depth > 0 {
		tk.stack[tk.depth-1].child += d
	}
	if len(tk.raw) < cap(tk.raw) {
		tk.raw = append(tk.raw, rawSpan{layer: s.layer, start: s.start, dur: d})
	}
}

// layerTotals sums self time and call counts per layer over every track.
// Call it once the tracks' writers have finished.
type layerTotals struct {
	self, calls []int64
}

func (t *spanTracer) totals() layerTotals {
	n := len(t.layers)
	lt := layerTotals{self: make([]int64, n), calls: make([]int64, n)}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tk := range t.tracks {
		for l := 0; l < n; l++ {
			lt.self[l] += tk.self[l]
			lt.calls[l] += tk.calls[l]
		}
	}
	return lt
}

// selfSum is the summed self time of the given layers.
func (lt layerTotals) selfSum(layers ...int) int64 {
	var s int64
	for _, l := range layers {
		s += lt.self[l]
	}
	return s
}

// perCall is a layer's mean self time per call in ns (0 without calls).
func (lt layerTotals) perCall(layer int) float64 {
	if lt.calls[layer] == 0 {
		return 0
	}
	return float64(lt.self[layer]) / float64(lt.calls[layer])
}

// writeChrome writes the sampled raw spans in the Chrome trace-event
// format (load it in Perfetto or chrome://tracing): one thread per track,
// process pid for the workload.
func (t *spanTracer) writeChrome(w io.Writer, pid int, process string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%q}}", pid, process)
	for tid, tk := range t.tracks {
		if len(tk.raw) == 0 {
			continue
		}
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%q}}", pid, tid, tk.name)
		for _, s := range tk.raw {
			fmt.Fprintf(bw, ",\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
				t.layers[s.layer], pid, tid, float64(s.start)/1e3, float64(s.dur)/1e3)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// closure reports the closure line of a traced run: the summed self time
// of the layer spans against the core time the traced phase had (wall
// time times the workers that ran it), the remainder nobody's span
// covers, the CPU share the phase kept busy, and what tracing cost.
func closure(rep *report, w string, traced, untraced phaseCost, workers int, attributed int64, frames uint64) {
	budget := float64(traced.wall.Nanoseconds()) * float64(workers)
	rep.set(w+".attributed_ns_per_frame", "ns", float64(attributed)/float64(frames))
	rep.set(w+".unattributed_ns_per_frame", "ns", (budget-float64(attributed))/float64(frames))
	rep.set(w+".cpu_busy_ratio", "ratio", float64(traced.cpu)/(float64(traced.wall)*float64(runtime.GOMAXPROCS(0))))
	rep.set(w+".tracing_overhead_s", "s", (traced.wall - untraced.wall).Seconds())
}

// writeTrace writes a traced run's sampled spans next to the build.
func (ctx *runCtx) writeTrace(w string, pid int, tr *spanTracer) error {
	if ctx.outDir == "" {
		return nil
	}
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", ctx.outDir, w, ctx.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, pid, w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	ctx.traces = append(ctx.traces, path)
	return nil
}
