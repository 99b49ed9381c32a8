package ops

import (
	"fmt"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
	"github.com/hcilab/distscroll/internal/tracing"
)

// Breach is one SLO violation observed by the watchdog. The JSON shape
// is the /healthz 503 body schema.
type Breach struct {
	// Rule names the rule that fired: "min-rate", "latency-p99", "stall".
	Rule string `json:"rule"`
	// Metric is the series the rule evaluated.
	Metric string `json:"metric"`
	// Value is the observed quantity, Limit the configured threshold
	// (units depend on the rule: per-second rate, milliseconds, seconds).
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// WindowSeconds is the evaluation window the rule fired over.
	WindowSeconds float64 `json:"window"`
	// AtMillis is the breach detection time (unix milliseconds).
	AtMillis int64 `json:"atMillis"`
	// History is the breach's pre/post forensics capture, attached
	// asynchronously once the history store (WatchdogConfig.History) has
	// sampled the post-breach tail. Excluded from the /healthz body —
	// fetch it from /api/history or the flight-recorder dump.
	History *history.Forensics `json:"-"`
}

// String renders the breach for /healthz and log lines.
func (b Breach) String() string {
	return fmt.Sprintf("%s: %s %.3g (limit %.3g)", b.Rule, b.Metric, b.Value, b.Limit)
}

// WatchdogConfig parameterises an SLO watchdog.
type WatchdogConfig struct {
	// History is the sampler the watchdog subscribes to (required): rules
	// evaluate the deltas between the store's consecutive windows
	// (windowed, so a long healthy history cannot mask a current outage),
	// timed by the store's clock. Every breach is latched as a marker on
	// the store's timeline and schedules a forensics capture: once the
	// post-breach tail is sampled, the pre/post capture is attached to
	// the Breach record and — with Tracer — dumped through the flight
	// recorder as a history table.
	History *history.Store
	// PostBreachWindows is the post-breach tail length in history
	// windows (<= 0 takes history.DefaultPostWindows).
	PostBreachWindows int

	// MinRate maps counter names to their minimum healthy per-second
	// rate-of-change. A window where delta/dt drops below the floor is a
	// drain (the pipeline stopped producing).
	MinRate map[string]float64

	// LatencyMaxP99Ms, when > 0, breaches if the named histogram's p99
	// over the window exceeds it. LatencyMetric defaults to
	// hub_e2e_latency_ms. Windows with no observations are skipped —
	// absence of traffic is MinRate's job.
	LatencyMetric   string
	LatencyMaxP99Ms float64

	// StallAfter, when > 0, breaches if the StallGauge (default
	// sim_virtual_seconds) fails to advance for that long of window time —
	// the stuck-clock detector for a wedged worker. A name with no gauge
	// falls back to the counter of the same name, so progress counters
	// (e.g. hub_frames_decoded_total) work as stall clocks too.
	StallGauge string
	StallAfter time.Duration

	// OnBreach is called for every breach as it is detected (on the
	// store's sampling goroutine; keep it fast, and do not Stop the
	// watchdog from it).
	OnBreach func(Breach)
	// Tracer, when set, receives a flight-recorder anomaly per breach and
	// per forensics capture through the watchdog's own recorder. Both run
	// on the store's serialised window path, so the dump machinery's
	// single-writer contract holds.
	Tracer *tracing.Tracer
}

// Watchdog evaluates SLO rules over the history store's windows. Health is
// latched: once any rule fires the watchdog stays unhealthy (and /healthz
// stays 503) so a flapping breach cannot hide from a slow scraper.
type Watchdog struct {
	cfg      WatchdogConfig
	recorder *tracing.Recorder
	cancel   func()

	mu       sync.Mutex
	breaches []Breach

	// Window state, touched only on the store's serialised window path.
	// elapsed is the observed window time since the watchdog attached
	// (the flight-recorder timestamp); stallFor accumulates observed
	// window time since the stall clock last moved. It is credited per
	// window, clamped (see onWindow), so a single stretched wall gap — a
	// GC pause, a suspended CI runner — cannot alone exceed StallAfter
	// while the run is healthy.
	elapsed  time.Duration
	stallFor time.Duration
	// evals counts evaluated windows; firing holds, per rule and metric,
	// the last one it breached in. A windowed rule is reported when it
	// starts failing, not again for every window it keeps failing: at a
	// sub-second history cadence a persistent drain would otherwise fill
	// the bounded breach list, the timeline markers, the pending captures
	// and the tracer's dump budget within seconds, starving the forensics.
	evals  uint64
	firing map[ruleKey]uint64
}

// ruleKey names one windowed rule on one metric.
type ruleKey struct{ rule, metric string }

// maxBreaches bounds the retained breach list; /healthz needs the shape of
// the failure, not an unbounded log.
const maxBreaches = 32

// StartWatchdog subscribes cfg's rules to cfg.History until Stop. The
// window already in progress is skipped, so a run that attaches mid-window
// cannot read idle time from before it as a drain. Returns nil (a no-op
// watchdog that is always healthy) when cfg.History is nil or no rule is
// configured.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.History == nil {
		return nil
	}
	if len(cfg.MinRate) == 0 && cfg.LatencyMaxP99Ms <= 0 && cfg.StallAfter <= 0 {
		return nil
	}
	if cfg.LatencyMetric == "" {
		cfg.LatencyMetric = telemetry.MetricHubE2ELatency
	}
	if cfg.StallGauge == "" {
		cfg.StallGauge = telemetry.MetricSimVirtualSeconds
	}
	w := &Watchdog{cfg: cfg, firing: make(map[ruleKey]uint64)}
	if cfg.Tracer != nil {
		w.recorder = cfg.Tracer.NewRecorder("slo-watchdog", 0)
	}
	w.cancel = cfg.History.Subscribe(w.onWindow)
	return w
}

// onWindow evaluates one store window. A window stretched far beyond the
// store's interval means the sampler (or the whole process — a GC pause, a
// suspended CI runner) was starved of wall time, not that the pipeline
// drained: counter deltas over such a window measure the scheduler, not
// the model, so the rate/latency rules skip it, and the stall accumulator
// is credited at most 2× Interval so one giant gap cannot alone latch a
// stuck-clock breach on a healthy run. A frozen clock yields gap <= 0,
// which evaluates nothing and accumulates nothing — wall time that did not
// observably pass cannot count as stall time.
func (w *Watchdog) onWindow(prev, cur *telemetry.Snapshot, gap time.Duration) {
	window := gap
	if window > 0 {
		w.elapsed += window
	}
	if max := 2 * w.cfg.History.Interval(); window > max {
		window = max
	} else if gap > 0 {
		w.evals++
		for _, b := range Evaluate(w.cfg, prev, cur, gap) {
			k := ruleKey{b.Rule, b.Metric}
			last := w.firing[k]
			w.firing[k] = w.evals
			if last == 0 || last != w.evals-1 {
				w.report(b)
			}
		}
	}
	if b, ok := w.checkStall(prev, cur, window); ok {
		w.report(b)
	}
}

// checkStall tracks the stall gauge across windows: any change resets the
// accumulator; StallAfter of accumulated observed window time without one
// is a breach.
func (w *Watchdog) checkStall(prev, cur *telemetry.Snapshot, window time.Duration) (Breach, bool) {
	if w.cfg.StallAfter <= 0 {
		return Breach{}, false
	}
	if stallValue(cur, w.cfg.StallGauge) != stallValue(prev, w.cfg.StallGauge) {
		w.stallFor = 0
		return Breach{}, false
	}
	if window > 0 {
		w.stallFor += window
	}
	if w.stallFor < w.cfg.StallAfter {
		return Breach{}, false
	}
	stuck := w.stallFor
	w.stallFor = 0 // re-arm so a persistent stall fires once per StallAfter
	return Breach{
		Rule:          "stall",
		Metric:        w.cfg.StallGauge,
		Value:         stuck.Seconds(),
		Limit:         w.cfg.StallAfter.Seconds(),
		WindowSeconds: stuck.Seconds(),
	}, true
}

// stallValue reads the stall clock: the named gauge, or the counter of the
// same name when no such gauge exists.
func stallValue(s *telemetry.Snapshot, name string) float64 {
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	return float64(s.Counters[name])
}

// Evaluate runs the windowed rules (min-rate, latency-p99) over a pair of
// snapshots dt apart and returns every breach. Pure: no watchdog state, so
// rule semantics are unit-testable without a clock. Stall detection needs
// cross-window memory and lives in the watchdog.
func Evaluate(cfg WatchdogConfig, prev, cur *telemetry.Snapshot, dt time.Duration) []Breach {
	var out []Breach
	if dt <= 0 {
		return nil
	}
	for name, floor := range cfg.MinRate {
		delta := float64(cur.Counters[name] - prev.Counters[name])
		rate := delta / dt.Seconds()
		if rate < floor {
			out = append(out, Breach{Rule: "min-rate", Metric: name, Value: rate, Limit: floor, WindowSeconds: dt.Seconds()})
		}
	}
	if cfg.LatencyMaxP99Ms > 0 {
		name := cfg.LatencyMetric
		if name == "" {
			name = telemetry.MetricHubE2ELatency
		}
		ch, ok := cur.Histogram(name)
		if ok {
			ph, _ := prev.Histogram(name)
			var d telemetry.HistogramSnapshot
			if d.Delta(ph, ch) && d.Count > 0 {
				if p99 := d.Quantile(0.99); p99 > cfg.LatencyMaxP99Ms {
					out = append(out, Breach{Rule: "latency-p99", Metric: name, Value: p99, Limit: cfg.LatencyMaxP99Ms, WindowSeconds: dt.Seconds()})
				}
			}
		}
	}
	return out
}

// report latches unhealthy, marks the history timeline (scheduling the
// forensics capture, and stamping the breach with the window's time),
// records the breach, fires the flight recorder, and notifies OnBreach.
func (w *Watchdog) report(b Breach) {
	// idx is set below, before the capture can fire: onReady runs on a
	// later window (or the store's Stop), both serialised after this one.
	idx := -1
	mark := w.cfg.History.MarkBreach(history.BreachMark{
		Rule: b.Rule, Metric: b.Metric, Value: b.Value, Limit: b.Limit,
	}, w.cfg.PostBreachWindows, func(f *history.Forensics) {
		w.attachForensics(idx, f)
	})
	b.AtMillis = mark.AtMillis
	w.mu.Lock()
	if len(w.breaches) < maxBreaches {
		idx = len(w.breaches)
		w.breaches = append(w.breaches, b)
	}
	w.mu.Unlock()
	if w.recorder != nil {
		w.recorder.Anomaly(tracing.HopSessionSLO, 0, w.elapsed,
			clampU32(b.Value), clampU32(b.Limit), b.String())
	}
	if w.cfg.OnBreach != nil {
		w.cfg.OnBreach(b)
	}
}

// attachForensics lands a completed history capture on its breach record
// and dumps the pre/post table through the flight recorder. Runs on the
// store's window path via the MarkBreach callback.
func (w *Watchdog) attachForensics(idx int, f *history.Forensics) {
	if f == nil {
		return
	}
	if idx >= 0 {
		w.mu.Lock()
		w.breaches[idx].History = f
		w.mu.Unlock()
	}
	if w.recorder != nil {
		reason := fmt.Sprintf("%s: %s pre/post-breach history (window %d)",
			f.Mark.Rule, f.Mark.Metric, f.Mark.Window)
		w.recorder.AnomalyNote(tracing.HopSessionSLO, 0, w.elapsed,
			clampU32(f.Mark.Value), clampU32(f.Mark.Limit), reason, f.WriteTable)
	}
}

func clampU32(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}

// Healthy reports whether no rule has fired. A nil watchdog is healthy.
func (w *Watchdog) Healthy() bool {
	if w == nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.breaches) == 0
}

// Breaches returns the recorded breaches in detection order.
func (w *Watchdog) Breaches() []Breach {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Breach(nil), w.breaches...)
}

// Stop unsubscribes the watchdog from its store; once it returns no rule
// runs again, while the latched verdict stays readable and pending
// forensics still attach when the store stops. Safe on nil and safe to
// call twice.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.cancel()
}
