package core

import (
	"fmt"
	"time"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// StateSlab is the struct-of-arrays layout for the million-device scale
// path: per-device state packed into contiguous arrays indexed by fleet
// slot, so one worker advancing a stripe of devices walks memory linearly
// instead of chasing a *Device graph per device.
//
// The slab is storage plus a motion and noise model; the firmware's signal
// stages are shared, not copied. Every tick runs the raw voltage through
// adc.Code/adc.Volts (the converter's transfer function),
// firmware.MedianEMAState.Step with DefaultEMAAlpha (the default filter)
// and mapping.Lookup (the island mapping with hysteresis), then applies
// firmware.Step's cursor rule: a frame carrying the entry index is sent
// when the mapped entry differs from the cursor. The deliberate
// differences from a full Device, which buy density (~111 bytes per slab
// device against tens of kilobytes), are:
//
//   - motion is a scripted glide/dwell loop over island centres, not the
//     hand model;
//   - sensor noise is Irwin–Hall (four uniforms), not Box–Muller;
//   - the ADC is ideal: no per-device gain error, offset or dither;
//   - there is no signal-range debounce (firmware.classifySignal);
//   - ARQ is modelled: a lost first copy is retransmitted and every frame
//     is delivered once, with latency hashed from (slot, seq).
//
// Determinism: every per-device value is derived at construction from
// (seed, slot) alone, and a tick touches only slot-local state plus shared
// read-only tables, so results are a pure function of the seed and the
// device count — independent of how devices are striped across workers.
type StateSlab struct {
	n int

	// rng is the per-device xoshiro256** state, 4 words per device, the
	// same generator as sim.Rand so streams have the same quality.
	rng []uint64

	// filter is the firmware's median3+EMA state, one value per device.
	filter []firmware.MedianEMAState

	// Hand-motion state: a glide-dwell-retarget loop over the island
	// centres, the scripted workload of fleet scripts in array form.
	dist   []float64 // current physical distance, cm
	target []float64 // glide target, cm
	step   []float64 // per-tick glide speed, cm (sign-less)
	dwell  []int16   // ticks left to dwell at the current target

	// pos is the mapper state: position in islands (ascending voltage) of
	// the active island, -1 between islands. cursor is the selected entry
	// index, starting at 0 like the firmware's menu cursor.
	pos    []int16
	cursor []int16

	// Per-device wire accounting. Every cursor move sends exactly one frame
	// and the modelled ARQ delivers it, so sent also counts island
	// switches and delivered frames, and the frame's seq is uint16(sent).
	// lost counts lost first copies, each retransmitted once. pend marks a
	// frame sent this tick whose ack arrives next tick: the ARQ window.
	sent []uint32
	lost []uint32
	pend []uint8

	// Shared read-only tables: the island map and the sensor
	// characteristic, built once for the whole slab.
	islands  []mapping.Island
	hyst     float64
	sensor   *gp2d120.Sensor
	noiseSD  float64
	lossProb float64

	dwellTicks int16
}

// SlabConfig parameterises a StateSlab.
type SlabConfig struct {
	// Devices is the slab size.
	Devices int
	// Seed derives every per-device stream; same seed, same results.
	Seed uint64
	// Entries is the number of menu entries to map the range onto
	// (default 12, the flat fleet menu).
	Entries int
	// LossProb is the per-frame loss probability of the modelled link, in
	// [0,1]; zero models a lossless link.
	LossProb float64
	// DwellTicks is how many ticks a device holds a reached target before
	// gliding to the next one (default 8, ~300 ms at the 40 ms tick).
	DwellTicks int
}

// NewStateSlab builds the packed per-device state for n devices in one
// batched pass — no per-device allocation beyond the shared arrays.
func NewStateSlab(cfg SlabConfig) (*StateSlab, error) {
	n := cfg.Devices
	if n < 1 {
		return nil, fmt.Errorf("core: slab needs at least 1 device, got %d", n)
	}
	if !(cfg.LossProb >= 0 && cfg.LossProb <= 1) {
		return nil, fmt.Errorf("core: slab loss probability must be in [0,1], got %v", cfg.LossProb)
	}
	entries := cfg.Entries
	if entries <= 0 {
		entries = 12
	}
	if cfg.DwellTicks <= 0 {
		cfg.DwellTicks = 8
	}
	sensorCfg := gp2d120.DefaultConfig()
	sensor, err := gp2d120.New(sensorCfg, gp2d120.DefaultSurface(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mapper, err := mapping.New(mapping.DefaultConfig(entries), sensor.Ideal)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	s := &StateSlab{
		n:          n,
		rng:        make([]uint64, 4*n),
		filter:     make([]firmware.MedianEMAState, n),
		dist:       make([]float64, n),
		target:     make([]float64, n),
		step:       make([]float64, n),
		dwell:      make([]int16, n),
		pos:        make([]int16, n),
		cursor:     make([]int16, n),
		sent:       make([]uint32, n),
		lost:       make([]uint32, n),
		pend:       make([]uint8, n),
		islands:    mapper.Islands(),
		hyst:       mapper.Config().Hysteresis,
		sensor:     sensor,
		noiseSD:    sensorCfg.NoiseSD,
		lossProb:   cfg.LossProb,
		dwellTicks: int16(cfg.DwellTicks),
	}

	for i := 0; i < n; i++ {
		// Seed the device stream from (seed, slot) with splitmix64 — the
		// same spreader sim.NewRand uses — so a device's behaviour depends
		// only on its slot, never on construction or striping order.
		x := cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
		for w := 0; w < 4; w++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			s.rng[4*i+w] = z ^ (z >> 31)
		}
		s.pos[i] = -1
		s.dist[i] = s.islandCenter(s.nextU64(i))
		s.target[i] = s.islandCenter(s.nextU64(i))
		// Glide speeds span roughly the scripted fleet glides: the full
		// 26 cm range over 350-700 ms at the 40 ms tick.
		s.step[i] = 1.5 + 1.5*u64ToFloat(s.nextU64(i))
		s.dwell[i] = int16(s.nextU64(i) % uint64(cfg.DwellTicks))
	}
	return s, nil
}

// Len returns the slab size.
func (s *StateSlab) Len() int { return s.n }

// nextU64 advances device i's packed xoshiro256** state (the sim.Rand walk
// on slab storage).
func (s *StateSlab) nextU64(i int) uint64 {
	st := s.rng[4*i : 4*i+4 : 4*i+4]
	result := ((st[1]*5)<<7 | (st[1]*5)>>57) * 9
	t := st[1] << 17
	st[2] ^= st[0]
	st[3] ^= st[1]
	st[1] ^= st[2]
	st[0] ^= st[3]
	st[2] ^= t
	st[3] = (st[3] << 45) | (st[3] >> 19)
	return result
}

func u64ToFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// islandCenter maps a random draw to a random island's physical centre.
func (s *StateSlab) islandCenter(u uint64) float64 {
	return s.islands[u%uint64(len(s.islands))].DistanceCm
}

// approxNorm returns a cheap approximately normal deviate with unit
// standard deviation (Irwin-Hall of four uniforms). The scale path trades
// the exact Box-Muller tail for a branch- and transcendental-free kernel;
// the filter eats the difference.
func (s *StateSlab) approxNorm(i int) float64 {
	sum := u64ToFloat(s.nextU64(i)) + u64ToFloat(s.nextU64(i)) +
		u64ToFloat(s.nextU64(i)) + u64ToFloat(s.nextU64(i))
	return (sum - 2) * 1.7320508075688772 // sqrt(12/4): unit variance
}

// FrameEmitter receives one emitted scale frame: the device slot, the
// frame's wire sequence number, the entry index it reports (as in a
// firmware MsgScroll frame) and the sweep's virtual timestamp in
// milliseconds. Emission consumes no device RNG and mutates no slab state,
// so a run with an emitter attached ticks through random walks
// bit-identical to a plain run — the networked scale path uses it to
// marshal real v1 frames onto a TCP connection.
type FrameEmitter func(slot int, seq uint16, entry int16, atMillis uint32)

// tick advances device i through one firmware cycle: motion, sample, then
// the firmware stages in stepSignal. Optional hooks tally each emitted frame
// and/or hand it to emit; nil hooks cost one predictable branch per frame.
// It allocates nothing.
func (s *StateSlab) tick(i int, tally *SweepTally, emit FrameEmitter, atMillis uint32) {
	// Hand motion: dwell at a reached target, then glide to the next.
	d := s.dist[i]
	switch {
	case s.dwell[i] > 0:
		s.dwell[i]--
	default:
		delta := s.target[i] - d
		step := s.step[i]
		if delta <= step && delta >= -step {
			d = s.target[i]
			s.dwell[i] = s.dwellTicks
			s.target[i] = s.islandCenter(s.nextU64(i))
		} else if delta > 0 {
			d += step
		} else {
			d -= step
		}
		s.dist[i] = d
	}
	s.stepSignal(i, s.sensor.Sample(d)+s.noiseSD*s.approxNorm(i), tally, emit, atMillis)
}

// stepSignal runs one raw sensor voltage of device i through the firmware's
// stages — ideal ADC, median3+EMA, island lookup, cursor rule — and emits a
// frame when the cursor moves. It returns the quantised and the filtered
// voltage.
func (s *StateSlab) stepSignal(i int, raw float64, tally *SweepTally, emit FrameEmitter, atMillis uint32) (q, v float64) {
	q = adc.Volts(adc.Code(raw, adc.DefaultVref), adc.DefaultVref)
	v = s.filter[i].Step(q, firmware.DefaultEMAAlpha)

	// The ack for last tick's frame arrives before this tick's mapping, so
	// the window drains one tick behind the sends.
	s.pend[i] = 0

	pos, _ := mapping.Lookup(s.islands, s.hyst, int(s.pos[i]), v)
	s.pos[i] = int16(pos)
	if pos >= 0 {
		if entry := int16(s.islands[pos].Index); entry != s.cursor[i] {
			s.cursor[i] = entry
			s.emitFrame(i, tally, emit, atMillis)
		}
	}
	return q, v
}

// emitFrame accounts one scroll frame through the modelled reliable link:
// a lost first copy is retransmitted and delivered (the ARQ guarantee),
// and the window records it on the air until next tick's ack. With a
// tally attached it also bins the frame's modelled end-to-end latency.
func (s *StateSlab) emitFrame(i int, tally *SweepTally, emit FrameEmitter, atMillis uint32) {
	s.sent[i]++
	s.pend[i] = 1
	lost := s.lossProb > 0 && u64ToFloat(s.nextU64(i)) < s.lossProb
	if lost {
		s.lost[i]++
	}
	if tally != nil {
		tally.bins[s.latencyBin(i, lost)]++
	}
	if emit != nil {
		// One call per frame regardless of modelled loss: the slab models a
		// reliable link, so every frame is (eventually) delivered exactly
		// once — the emitter carries the post-ARQ stream.
		emit(i, uint16(s.sent[i]), s.cursor[i], atMillis)
	}
}

// SweepTally accumulates a sweep's frames for the sweep's caller. The
// latency model produces only 16 distinct values (8 hash bins ×
// delivered-first-try / retransmitted), so the per-frame cost is a single
// array increment, and the sweep's sent and lost counts fall out of the
// bins. Flush drains it into a histogram once per sweep.
type SweepTally struct {
	bins [16]uint64
}

// Sent returns the frames tallied since the last Flush.
func (t *SweepTally) Sent() uint64 {
	var n uint64
	for _, c := range t.bins {
		n += c
	}
	return n
}

// Lost returns the tallied frames whose first copy was lost: the upper
// eight bins.
func (t *SweepTally) Lost() uint64 {
	var n uint64
	for _, c := range t.bins[8:] {
		n += c
	}
	return n
}

// Flush drains the bins into lat (nil discards them) and zeroes them.
func (t *SweepTally) Flush(lat *telemetry.LocalHistogram) {
	for k, n := range t.bins {
		if n != 0 {
			lat.ObserveN(binLatencyMs(k), n)
			t.bins[k] = 0
		}
	}
}

// binLatencyMs is bin k's modelled end-to-end latency in ms.
func binLatencyMs(k int) float64 {
	ms := 8.0 + float64(k&7)*0.5
	if k >= 8 {
		ms += 50
	}
	return ms
}

// latencyBin derives a frame's modelled latency bin from a hash of
// (slot, seq) rather than from the device RNG stream, so instrumented and
// plain runs tick through identical random walks. The base (bins 0-7,
// 8-11.5 ms in 0.5 ms steps) models the firmware path — one 40 ms cycle's
// worth of sampling plus RF and hub time; a lost first copy (bins 8-15)
// adds a 50 ms retransmit round trip. Every value is an exact multiple of
// 0.5 ms, so float64 partial sums are exact and histogram merges are
// independent of stripe grouping.
func (s *StateSlab) latencyBin(i int, lost bool) int {
	z := (uint64(i)<<16 | uint64(uint16(s.sent[i]))) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	k := int(z & 7)
	if lost {
		k |= 8
	}
	return k
}

// Sweep advances the contiguous device range [lo, hi) through one firmware
// cycle. It is the batched unit of work per scheduler firing: one scheduler
// event per stripe, not one per device. Both hooks may be nil: tally
// accumulates every frame the stripe sends, and emit receives each one
// stamped with the sweep's virtual time. The caller (one RunScale worker per
// stripe) owns both during the sweep, so the path takes no lock and
// allocates nothing.
func (s *StateSlab) Sweep(lo, hi int, at time.Duration, tally *SweepTally, emit FrameEmitter) {
	atMillis := uint32(at / time.Millisecond)
	for i := lo; i < hi; i++ {
		s.tick(i, tally, emit, atMillis)
	}
}

// TickStripe is Sweep without hooks.
func (s *StateSlab) TickStripe(lo, hi int, at time.Duration) { s.Sweep(lo, hi, at, nil, nil) }

// TickStripeObserved is Sweep with its tally flushed into lat, which the
// caller owns during the sweep.
func (s *StateSlab) TickStripeObserved(lo, hi int, at time.Duration, lat *telemetry.LocalHistogram) {
	var t SweepTally
	s.Sweep(lo, hi, at, &t, nil)
	t.Flush(lat)
}

// SlabTotals aggregates slab counters (see fleet.RunScale).
type SlabTotals struct {
	Sent        uint64
	Delivered   uint64
	Lost        uint64
	Retransmits uint64
	Switches    uint64
	Outstanding uint64
	MaxWindow   uint16
}

// Totals sums the per-device accounting over [lo, hi); pass 0, Len() for
// the whole slab. Delivered and Switches equal Sent, and Retransmits
// equals Lost (see the wire accounting fields).
func (s *StateSlab) Totals(lo, hi int) SlabTotals {
	var t SlabTotals
	for i := lo; i < hi; i++ {
		t.Sent += uint64(s.sent[i])
		t.Lost += uint64(s.lost[i])
		t.Outstanding += uint64(s.pend[i])
	}
	t.Delivered, t.Switches, t.Retransmits = t.Sent, t.Sent, t.Lost
	if t.Outstanding > 0 {
		t.MaxWindow = 1
	}
	return t
}

// Contribute folds the totals into a telemetry snapshot under the same
// canonical names the session-based pipeline uses, so a scale run and a
// session run are comparable in one scrape. The slab models firmware,
// link and hub as one fused loop, so several layers share source counters:
// every island switch is one scroll event, one firmware frame, and (plus
// retransmits) one copy on the air; the ARQ guarantee delivers each frame
// exactly once to the hub.
func (t SlabTotals) Contribute(s *telemetry.Snapshot) {
	s.AddCounter(telemetry.MetricFwScrollEvents, t.Switches)
	s.AddCounter(telemetry.MetricFwFramesSent, t.Sent)
	s.AddCounter(telemetry.MetricFwIslandSwitches, t.Switches)
	s.AddCounter(telemetry.MetricRFSent, t.Sent+t.Retransmits)
	s.AddCounter(telemetry.MetricRFLost, t.Lost)
	s.AddCounter(telemetry.MetricRFDelivered, t.Delivered)
	s.AddCounter(telemetry.MetricARQEnqueued, t.Sent)
	s.AddCounter(telemetry.MetricARQAcked, t.Delivered)
	s.AddCounter(telemetry.MetricARQRetransmits, t.Retransmits)
	s.AddCounter(telemetry.MetricHubDecoded, t.Delivered)
	s.AddCounter(telemetry.MetricHubEvents, t.Delivered)
}
