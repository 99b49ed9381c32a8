// Package history is a bounded in-process time-series store over the
// telemetry registry, and the ops plane's one sampler: it samples a
// Registry snapshot on a fixed cadence and retains the last N windows per
// series in preallocated ring buffers. Counters are stored as windowed
// rates (per second), gauges as raw samples, histograms as per-window
// delta digests (count/p50/p99/max computed from the bucket deltas
// between consecutive snapshots).
//
// Subscribers (Subscribe) receive each window's previous and current
// snapshots and the measured gap between them, serialised in window
// order: the SLO watchdog judges health from exactly the windows the
// dashboard shows, without a snapshot or clock of its own.
//
// The package is dependency-free and built for the hot ops plane:
// appending a window is O(series) with zero steady-state allocations —
// every ring, scratch histogram, and bucket slice is allocated when a
// series is first seen and reused forever after. The clock is injectable
// so tests and the deterministic scale path stay seed-stable.
package history

import (
	"math"
	"slices"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/telemetry"
)

// Kind classifies a retained series.
type Kind uint8

const (
	// KindCounter series retain the windowed rate (delta per second).
	KindCounter Kind = iota
	// KindGauge series retain the raw sampled value.
	KindGauge
	// KindHistogram series retain a per-window delta Digest.
	KindHistogram
)

// String names the kind for JSON and the dashboard.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Digest is one window's histogram summary: the number of observations
// that landed in the window and the quantiles of the window's delta
// distribution. Max is the q=1 quantile (clamped to the top bucket
// bound, like every bucketed quantile).
type Digest struct {
	Count float64
	P50   float64
	P99   float64
	Max   float64
}

// Defaults for Config zero values.
const (
	DefaultWindows  = 120
	DefaultInterval = time.Second
)

// Config parameterises a Store.
type Config struct {
	// Registry is the telemetry registry to sample. Required.
	Registry *telemetry.Registry
	// Windows is how many sample windows each series retains
	// (<= 0 takes DefaultWindows).
	Windows int
	// Interval is the sampling cadence (<= 0 takes DefaultInterval).
	Interval time.Duration
	// Now injects the clock; nil takes time.Now. Every window is
	// stamped with Now() and rates divide by the measured gap between
	// consecutive samples, so a test clock makes the store fully
	// deterministic.
	Now func() time.Time
}

// series is one retained metric: a ring of scalar values (counter rates
// or gauge samples) or a ring of histogram digests, plus the previous
// cumulative snapshot needed to form the next window's delta.
type series struct {
	kind Kind

	// vals is the scalar ring (KindCounter, KindGauge).
	vals []float64
	// digs is the digest ring (KindHistogram).
	digs []Digest

	// prevCount is the last cumulative counter value (KindCounter).
	prevCount uint64
	// lastVal repeats a gauge's last seen value when the gauge
	// disappears from a snapshot (KindGauge).
	lastVal float64
	// prevHist is the last cumulative histogram snapshot and delta is
	// the reusable scratch for the window's bucket deltas
	// (KindHistogram). Both reuse their slices across windows.
	prevHist telemetry.HistogramSnapshot
	delta    telemetry.HistogramSnapshot
}

// Store retains bounded telemetry history. All methods are safe for
// concurrent use; the zero Store is not usable — build one with New or
// Start.
type Store struct {
	reg      *telemetry.Registry
	windows  int
	interval time.Duration
	now      func() time.Time

	// sampleMu serialises window capture and everything that runs on a
	// window: subscriber deliveries and forensics callbacks. It is held
	// across those callbacks on purpose — that is the serialisation — so
	// they must not re-enter Sample, Observe, Stop or a cancel. It is
	// taken before mu, never inside it.
	sampleMu sync.Mutex
	// prev is the previous window's snapshot, handed to subscribers with
	// the current one (sampleMu).
	prev *telemetry.Snapshot
	subs []*subscriber // sampleMu

	mu     sync.Mutex
	series map[string]*series
	// times is the shared window-timestamp ring (unix milliseconds).
	times []int64
	// count is the total number of windows ever captured; the ring
	// index of window g is g % windows, valid while g >= count-windows.
	// Written with both locks held, so either one suffices to read it.
	count  uint64
	lastAt time.Time

	// marks are latched breach markers (bounded at maxMarks).
	marks []BreachMark
	// pending are breach forensics waiting for their post-breach tail.
	pending []*pendingForensics

	stop     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
}

// subscriber is one Subscribe registration; from is the window count when
// it subscribed.
type subscriber struct {
	fn   func(prev, cur *telemetry.Snapshot, gap time.Duration)
	from uint64
}

// New builds a passive store: nothing samples it until the caller drives
// Sample/Observe (tests, deterministic runs) or it was built via Start.
func New(cfg Config) (*Store, error) {
	if cfg.Registry == nil {
		return nil, errNoRegistry
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{
		reg:      cfg.Registry,
		windows:  cfg.Windows,
		interval: cfg.Interval,
		now:      cfg.Now,
		series:   make(map[string]*series),
		times:    make([]int64, cfg.Windows),
		stop:     make(chan struct{}),
	}, nil
}

// Start builds a store and launches its sampler goroutine, which
// captures one window every Interval until Stop.
func Start(cfg Config) (*Store, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.loopDone = make(chan struct{})
	go s.loop()
	return s, nil
}

func (s *Store) loop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Stop halts the sampler (if one is running), waits for it to exit, and
// flushes any breach forensics still waiting for their post-breach tail
// so no onReady callback is lost on shutdown. Safe to call more than
// once and on a nil store.
func (s *Store) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	if s.loopDone != nil {
		<-s.loopDone
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	s.flushPending()
}

// Subscribe hands fn every window whose previous window was captured
// after Subscribe returned — the window already in progress is skipped —
// as the previous and current registry snapshots and the measured gap
// between their capture times (<= 0 when the clock did not advance).
// Deliveries run outside the store lock, one at a time in window order,
// on whichever goroutine captured the window. fn must not call Sample,
// Observe, Stop or the returned cancel; it may call MarkBreach and Query.
// After cancel returns, fn is not running and never runs again. cancel is
// idempotent. Nil-safe.
func (s *Store) Subscribe(fn func(prev, cur *telemetry.Snapshot, gap time.Duration)) (cancel func()) {
	if s == nil {
		return func() {}
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	sub := &subscriber{fn: fn, from: s.count}
	s.subs = append(s.subs, sub)
	return func() {
		s.sampleMu.Lock()
		defer s.sampleMu.Unlock()
		s.subs = slices.DeleteFunc(s.subs, func(o *subscriber) bool { return o == sub })
	}
}

// Windows reports the ring capacity.
func (s *Store) Windows() int {
	if s == nil {
		return 0
	}
	return s.windows
}

// Interval reports the configured sampling cadence.
func (s *Store) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Captured reports how many windows have ever been sampled.
func (s *Store) Captured() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sample captures one window from the registry now. The snapshot itself
// allocates (it is the registry's export path); the Observe append does
// not.
func (s *Store) Sample() {
	if s == nil {
		return
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	s.observe(s.reg.Snapshot())
}

// Observe appends one window from an already-taken registry snapshot,
// which the store keeps as the next window's previous snapshot (do not
// modify it afterwards). Steady state performs zero allocations: every
// series ring and scratch buffer already exists, and only a brand-new
// metric name allocates (its one-time series creation). Counter windows
// record delta/dt against the previous sample (a counter that went
// backwards — registry swap — rebaselines at rate 0); gauges record the
// raw sample (non-finite as 0), repeating the last value if the gauge
// vanished; histograms record the delta digest between consecutive
// cumulative snapshots.
func (s *Store) Observe(snap *telemetry.Snapshot) {
	if s == nil || snap == nil {
		return
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	s.observe(snap)
}

// observe is Observe with sampleMu held.
func (s *Store) observe(snap *telemetry.Snapshot) {
	now := s.now()

	s.mu.Lock()
	g := s.count
	gap := now.Sub(s.lastAt)
	dt := s.interval.Seconds()
	if g > 0 && gap > 0 {
		dt = gap.Seconds()
	}
	s.lastAt = now
	idx := int(g % uint64(s.windows))
	s.times[idx] = now.UnixMilli()

	// Discover series that appeared this window. Creation seeds the
	// previous cumulative state from the current sample, so the first
	// window records rate 0 / an empty digest rather than a spurious
	// spike from the whole pre-history accumulation.
	for name, v := range snap.Counters {
		if s.series[name] == nil {
			s.series[name] = &series{kind: KindCounter, vals: make([]float64, s.windows), prevCount: v}
		}
	}
	for name := range snap.Gauges {
		if s.series[name] == nil {
			s.series[name] = &series{kind: KindGauge, vals: make([]float64, s.windows)}
		}
	}
	for name, h := range snap.Histograms {
		if s.series[name] == nil {
			sr := &series{kind: KindHistogram, digs: make([]Digest, s.windows)}
			sr.rebaseline(h)
			s.series[name] = sr
		}
	}

	// Every retained series gets a value this window, even if it
	// vanished from the snapshot.
	for name, sr := range s.series {
		switch sr.kind {
		case KindCounter:
			rate := 0.0
			if cur, ok := snap.Counters[name]; ok {
				if cur >= sr.prevCount {
					rate = float64(cur-sr.prevCount) / dt
				}
				sr.prevCount = cur
			}
			sr.vals[idx] = rate
		case KindGauge:
			if v, ok := snap.Gauges[name]; ok {
				sr.lastVal = finite(v)
			}
			sr.vals[idx] = sr.lastVal
		case KindHistogram:
			var d Digest
			if h, ok := snap.Histograms[name]; ok {
				d = sr.windowDigest(h)
			}
			sr.digs[idx] = d
		}
	}

	s.count++
	ready := s.advancePending()
	s.mu.Unlock()

	for _, p := range ready {
		p.fire()
	}
	prev := s.prev
	s.prev = snap
	for _, sub := range s.subs {
		if g > sub.from {
			sub.fn(prev, snap, gap)
		}
	}
}

// windowDigest forms the digest of the observations between the previous
// cumulative snapshot and cur, then rebaselines. Shape changes and
// counter regressions (registry swaps) record an empty window. Reuses
// the series' scratch slices: zero allocations once warmed.
func (sr *series) windowDigest(cur telemetry.HistogramSnapshot) Digest {
	ok := sr.delta.Delta(sr.prevHist, cur)
	sr.rebaseline(cur)
	d := &sr.delta
	if !ok || d.Count == 0 {
		return Digest{}
	}
	return Digest{
		Count: float64(d.Count),
		P50:   d.Quantile(0.5),
		P99:   d.Quantile(0.99),
		Max:   d.Quantile(1),
	}
}

// rebaseline copies cur into the series' previous cumulative snapshot,
// reusing the existing slices.
func (sr *series) rebaseline(cur telemetry.HistogramSnapshot) {
	sr.prevHist.Bounds = append(sr.prevHist.Bounds[:0], cur.Bounds...)
	sr.prevHist.Counts = append(sr.prevHist.Counts[:0], cur.Counts...)
	sr.prevHist.Count = cur.Count
	sr.prevHist.Sum = cur.Sum
}

// finite maps NaN and ±Inf to 0, the rule telemetry's exporters apply:
// encoding/json rejects non-finite floats, so one poisoned gauge would
// otherwise blank every /api/history response while it stays retained.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
