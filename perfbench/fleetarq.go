package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/fleet"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
)

// fleet-arq drives the full-fidelity firmware path: every device is a
// complete core.Device (sensor, ADC, filter, island mapper, firmware,
// lossy RF link under go-back-N ARQ) on its own timing-wheel scheduler,
// all delivering into the default in-process hub.

const (
	layerSimRun = iota
	layerLinkSend
	layerHubHandle
)

var fleetLayers = []string{"sim.device_run", "rf.link_send", "core.hub_handle"}

// fleetCore is the per-device template: the prototype system on a link
// with 5% loss, 2% bursts of three and 5% ack loss, so the ARQ works.
func fleetCore() core.Config {
	c := core.DefaultConfig()
	c.Link.LossProb = 0.05
	c.Link.BurstLossProb = 0.02
	c.Link.BurstLossLen = 3
	c.Link.AckLossProb = 0.05
	return c
}

// fleetOpts selects how one fleet run is wired.
type fleetOpts struct {
	devices int
	seed    uint64
	workers int
	// wrapHub interposes on the hub backend (the self-test's hub that
	// drops a frame); nil delivers straight into the default hub.
	wrapHub func(fleet.HubBackend) fleet.HubBackend
	// tracing wires spans and counters through the seams; nil runs the
	// plain system.
	tracing *fleetTracing
}

// fleetOutcome is one fleet run: set-up, the timed RunAll, its frame
// accounting and behaviour checksum.
type fleetOutcome struct {
	setup      time.Duration
	cost       phaseCost
	heapBefore uint64
	admitted   uint64 // events the hub sessions admitted
	attempted  uint64 // frames the firmware originated
	delivered  uint64 // payloads the links delivered to the hub
	failed     uint64
	sum        string
	problems   []string
}

func runFleet(o fleetOpts) (fleetOutcome, error) {
	var out fleetOutcome
	cfg := fleet.Config{Devices: o.devices, Seed: o.seed, Core: fleetCore(), Workers: o.workers, Reliable: true}
	if o.wrapHub != nil || o.tracing != nil {
		// The hub fleet.New builds when Config.Hub is nil.
		var hub fleet.HubBackend = core.NewHubWithMetrics(true, nil)
		if o.tracing != nil {
			hub = o.tracing.wire(&cfg, hub)
		}
		if o.wrapHub != nil {
			hub = o.wrapHub(hub)
		}
		cfg.Hub = hub
	}
	out.heapBefore = liveHeap()
	t0 := time.Now()
	r, err := fleet.New(cfg)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	if o.tracing != nil {
		o.tracing.attach(r)
	}

	ph := startPhase()
	res, runErr := r.RunAll()
	out.cost = ph.stop()
	out.cost.liveHeapByte = liveHeap()
	if runErr != nil {
		// A device error (e.g. broken loss accounting) is a failed check,
		// not an aborted benchmark: the per-device audit below counts it.
		out.problems = append(out.problems, runErr.Error())
	}

	sum := newChecksum()
	gaps := 0
	for i, rs := range res {
		out.attempted += rs.ARQ.Enqueued
		out.admitted += rs.Host.Events
		out.delivered += rs.Link.Delivered
		l := rs.Link
		// Every frame is accounted once on the air, every delivered
		// payload reaches its session, every originated frame is admitted
		// exactly once, and nothing arrives mangled or out of sequence.
		f := absDiff(l.Sent, l.Delivered+l.Lost+l.Corrupted) +
			absDiff(l.Delivered, rs.Host.Decoded) +
			absDiff(rs.ARQ.Enqueued, rs.Host.Events) +
			rs.Host.BadFrames + rs.Host.MissedSeq
		if r.Session(i).AwaitSeq() != uint16(rs.ARQ.Enqueued) {
			gaps++
			f++
		}
		if rs.Err != nil && f == 0 {
			f = 1
		}
		out.failed += f
		sum.add(l.Sent, l.Delivered, rs.Host.Events, rs.ARQ.Retransmits,
			r.Device(i).Firmware.Stats().IslandSwitches, uint64(rs.FinalCursor))
	}
	if gaps > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d devices with a seq gap after the ARQ drain", gaps))
	}
	out.sum = sum.String()
	return out, nil
}

// fleetArqRun is the untraced measurement: one fleet at Workers = 1 for
// the worker-count independence check, then timed rounds at nproc
// workers until the run's time is spent.
func fleetArqRun(ctx *runCtx, rep *report) error {
	n := ctx.sizes.fleetDevices
	one, err := runFleet(fleetOpts{devices: n, seed: ctx.seed, workers: 1})
	if err != nil {
		return err
	}
	rep.frames(one.attempted, one.failed)
	var rs rounds
	rs.setup(one.setup)
	sameSum := true
	problems := one.problems
	var spent time.Duration
	for spent < ctx.duration || len(rs.fps) == 0 {
		o, err := runFleet(fleetOpts{devices: n, seed: ctx.seed, workers: ctx.nproc})
		if err != nil {
			return err
		}
		spent += o.cost.wall
		rep.frames(o.attempted, o.failed)
		problems = append(problems, o.problems...)
		sameSum = sameSum && o.sum == one.sum
		rs.setup(o.setup)
		rs.add(o.admitted, o.cost)
	}
	rs.report(rep)
	rep.checksums["fleet-arq"] = one.sum
	rep.check("fleet-arq.accounting", len(problems) == 0, "%d problems %v", len(problems), problems)
	rep.check("fleet-arq.workers_independent", sameSum,
		"checksum at Workers=1 is %s; every Workers=%d round must match", one.sum, ctx.nproc)
	rep.note("fleet-arq: %d timed rounds of %d devices at %d workers", len(rs.fps), n, ctx.nproc)
	return nil
}

// fleetArqLedger is the traced measurement: an untraced reference run,
// the same run with spans through the scheduler, transport and hub
// seams, and replays of each firmware stage on the distance trajectory
// the devices actually followed.
func fleetArqLedger(ctx *runCtx, rep *report) error {
	n := ctx.sizes.fleetDevices
	ref, err := runFleet(fleetOpts{devices: n, seed: ctx.seed, workers: ctx.nproc})
	if err != nil {
		return err
	}
	ft := newFleetTracing(ctx.sizes.trajectoryDevices)
	tr, err := runFleet(fleetOpts{devices: n, seed: ctx.seed, workers: ctx.nproc, tracing: ft})
	if err != nil {
		return err
	}
	rep.frames(ref.attempted, ref.failed)
	rep.frames(tr.attempted, tr.failed)
	problems := append(ref.problems, tr.problems...)
	rep.check("fleet-arq.accounting", len(problems) == 0, "%d problems %v", len(problems), problems)
	rep.check("fleet-arq.traced_checksum", tr.sum == ref.sum, "untraced %s, traced %s", ref.sum, tr.sum)
	rep.checksums["fleet-arq"] = ref.sum

	lt := ft.tr.totals()
	var events uint64
	for _, s := range ft.scheds {
		events += s.events
	}
	adm := float64(tr.admitted)
	rep.set("sim.device_run_ns_per_frame", "ns", float64(lt.self[layerSimRun])/adm)
	rep.set("sim.events_per_frame", "events/frame", float64(events)/adm)
	rep.set("rf.link_send_ns", "ns", lt.perCall(layerLinkSend))
	rep.set("rf.sends_per_delivered", "ratio", float64(lt.calls[layerLinkSend])/float64(lt.calls[layerHubHandle]))
	rep.set("core.hub_handle_ns_per_frame", "ns", float64(lt.self[layerHubHandle])/adm)
	rep.set("core.admitted_per_delivered", "ratio", float64(ref.admitted)/float64(ref.delivered))
	rep.set("fleet.allocs_per_frame", "allocs/frame", float64(ref.cost.mallocs)/float64(ref.admitted))
	rep.set("fleet.bytes_per_frame", "B/frame", float64(ref.cost.allocBytes)/float64(ref.admitted))
	rep.set("fleet.gc_cycles", "count", float64(ref.cost.gcCycles))
	rep.set("fleet.gc_pause_ms", "ms", float64(ref.cost.gcPause)/1e6)
	rep.set("fleet.setup_ns_per_device", "ns", float64(ref.setup.Nanoseconds())/float64(n))
	rep.set("fleet.live_bytes_per_device", "B", (float64(ref.cost.liveHeapByte)-float64(ref.heapBefore))/float64(n))

	traj := ft.trajectory()
	if len(traj) == 0 {
		return errors.New("no distance trajectory recorded")
	}
	if err := stageReplays(rep, traj, ctx.seed, ctx.sizes.replayCalls); err != nil {
		return err
	}

	workers := min(ctx.nproc, n)
	closure(rep, "fleet-arq", tr.cost, ref.cost, workers, lt.selfSum(layerSimRun, layerLinkSend, layerHubHandle), tr.admitted)
	return ctx.writeTrace("fleet-arq", 1, ft.tr)
}

// fleetTracing wires spans into a fleet through the seams the code
// accepts: a wrapped scheduler per device (core.Config.Scheduler), a
// wrapped rf.Link per device (core.Config.Transport) and a wrapped hub
// (fleet.Config.Hub). Each device runs on one goroutine at a time, so
// each device's spans go to its own track without locking.
type fleetTracing struct {
	tr     *spanTracer
	scheds []*tracedSched // fleet order: device id i+1
	record int            // devices whose distance trajectory is kept
}

func newFleetTracing(record int) *fleetTracing {
	return &fleetTracing{tr: newSpanTracer(fleetLayers...), record: record}
}

func (ft *fleetTracing) wire(cfg *fleet.Config, hub fleet.HubBackend) fleet.HubBackend {
	// fleet.New assembles devices in fleet order, so the i-th scheduler
	// built belongs to device id i+1.
	cfg.Core.Scheduler = func(clock *sim.Clock) sim.EventScheduler {
		s := &tracedSched{EventScheduler: sim.NewScheduler(clock)}
		s.tk = ft.tr.newTrack(fmt.Sprintf("device-%d", len(ft.scheds)+1))
		ft.scheds = append(ft.scheds, s)
		return s
	}
	link := cfg.Core.Link
	cfg.Core.Transport = func(sched sim.EventScheduler, rng *sim.Rand, sink func([]byte, time.Duration)) (rf.Transport, error) {
		l, err := rf.NewLink(link, sched, rng, sink)
		if err != nil {
			return nil, err
		}
		return &tracedLink{Link: l, tk: sched.(*tracedSched).tk}, nil
	}
	return &tracedHub{HubBackend: hub, ft: ft}
}

// attach points the first few schedulers at their devices so they can
// record the distance the hand held at every event.
func (ft *fleetTracing) attach(r *fleet.Runner) {
	for i := 0; i < min(ft.record, r.Len()); i++ {
		ft.scheds[i].dev = r.Device(i)
	}
}

func (ft *fleetTracing) trackFor(id uint32) *track {
	if id == 0 || int(id) > len(ft.scheds) {
		return nil
	}
	return ft.scheds[id-1].tk
}

func (ft *fleetTracing) trajectory() []float64 {
	var traj []float64
	for _, s := range ft.scheds {
		traj = append(traj, s.traj...)
	}
	return traj
}

// tracedSched spans Run and counts every event it dispatches.
type tracedSched struct {
	sim.EventScheduler
	tk     *track
	events uint64
	dev    *core.Device
	traj   []float64
}

func (s *tracedSched) wrap(fn func(time.Duration)) func(time.Duration) {
	return func(at time.Duration) {
		s.events++
		if s.dev != nil {
			s.traj = append(s.traj, s.dev.Distance())
		}
		fn(at)
	}
}

func (s *tracedSched) At(t time.Duration, fn func(time.Duration)) { s.EventScheduler.At(t, s.wrap(fn)) }

func (s *tracedSched) After(d time.Duration, fn func(time.Duration)) {
	s.EventScheduler.After(d, s.wrap(fn))
}

func (s *tracedSched) Every(period time.Duration, fn func(time.Duration)) func() {
	return s.EventScheduler.Every(period, s.wrap(fn))
}

func (s *tracedSched) Run(horizon time.Duration) error {
	s.tk.begin(layerSimRun)
	err := s.EventScheduler.Run(horizon)
	s.tk.end()
	return err
}

// tracedLink spans every transmission the ARQ hands the radio.
type tracedLink struct {
	*rf.Link
	tk *track
}

func (l *tracedLink) Send(p []byte) (time.Duration, error) {
	l.tk.begin(layerLinkSend)
	d, err := l.Link.Send(p)
	l.tk.end()
	return d, err
}

func (l *tracedLink) SendTagged(p []byte, ver rf.PayloadVersion) (time.Duration, error) {
	l.tk.begin(layerLinkSend)
	d, err := l.Link.SendTagged(p, ver)
	l.tk.end()
	return d, err
}

// tracedHub spans every delivered payload the hub decodes and routes. The
// link delivers inside the sending device's Run, so the payload's device
// id names the track of the goroutine making the call.
type tracedHub struct {
	fleet.HubBackend
	ft *fleetTracing
}

func (h *tracedHub) Handle(p []byte, at time.Duration) {
	tk := h.ft.trackFor(rf.PayloadDevice(p))
	tk.begin(layerHubHandle)
	h.HubBackend.Handle(p, at)
	tk.end()
}

// discardTransport swallows frames so a firmware replay times the
// firmware cycle alone.
type discardTransport struct{}

func (discardTransport) Send([]byte) (time.Duration, error) { return 0, nil }

// sink keeps replay results observable so the compiler keeps the calls.
var sink float64

// timeCalls is the mean wall time of fn over n calls, in ns.
func timeCalls(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// stageReplays times each per-frame firmware stage on its own, fed the
// distance trajectory the traced fleet followed: the sensor sample, the
// ADC conversion of those voltages, the median3+EMA filter over the
// quantised samples, the island mapper over the filtered values, the
// frame encode of the resulting islands, and the whole firmware cycle.
func stageReplays(rep *report, traj []float64, seed uint64, calls int) error {
	rng := sim.NewRand(seed)
	m := len(traj)
	sensor := gp2d120.Default(rng.Split())
	volts := make([]float64, m)
	for i, d := range traj {
		volts[i] = sensor.Sample(d)
	}
	rep.set("gp2d120.sample_ns", "ns", timeCalls(calls, func(i int) { sink += sensor.Sample(traj[i%m]) }))

	conv, err := adc.New(adc.DefaultVref, 1, rng.Split())
	if err != nil {
		return err
	}
	next := 0
	if err := conv.Connect(0, func() float64 {
		v := volts[next]
		if next++; next == m {
			next = 0
		}
		return v
	}); err != nil {
		return err
	}
	quant := make([]float64, m)
	for i := range quant {
		code, err := conv.Read(0)
		if err != nil {
			return err
		}
		quant[i] = conv.Voltage(code)
	}
	rep.set("adc.read_ns", "ns", timeCalls(calls, func(int) {
		code, _ := conv.Read(0)
		sink += float64(code)
	}))

	filter, err := firmware.NewFilter(firmware.MedianEMA, firmware.DefaultEMAAlpha)
	if err != nil {
		return err
	}
	filtered := make([]float64, m)
	for i, v := range quant {
		filtered[i] = filter.Apply(v)
	}
	rep.set("firmware.filter_ns", "ns", timeCalls(calls, func(i int) { sink += filter.Apply(quant[i%m]) }))

	mapper, err := mapping.New(mapping.DefaultConfig(12), sensor.Ideal)
	if err != nil {
		return err
	}
	islands := make([]int16, m)
	for i, v := range filtered {
		idx, _ := mapper.Map(v)
		islands[i] = int16(idx)
	}
	rep.set("mapping.map_ns", "ns", timeCalls(calls, func(i int) {
		idx, _ := mapper.Map(filtered[i%m])
		sink += float64(idx)
	}))

	var payload, frame []byte
	rep.set("rf.encode_ns", "ns", timeCalls(calls, func(i int) {
		msg := rf.Message{Kind: rf.MsgScroll, Device: 1, Seq: uint16(i), AtMillis: uint32(i) * 40,
			Index: islands[i%m], Island: islands[i%m]}
		payload = msg.AppendBinary(payload[:0])
		frame, _ = rf.AppendEncode(frame[:0], payload)
		sink += float64(len(frame))
	}))

	// The whole firmware cycle of fleet device 1 (its seed is the first
	// draw of the fleet's master stream), radio stubbed out.
	c := fleetCore()
	c.Seed = sim.NewRand(seed).Uint64()
	c.DeviceID = 1
	c.KeepEventLog = false
	c.Transport = func(sim.EventScheduler, *sim.Rand, func([]byte, time.Duration)) (rf.Transport, error) {
		return discardTransport{}, nil
	}
	dev, err := core.NewDevice(c, menu.FlatMenu(12))
	if err != nil {
		return err
	}
	steps := max(calls/8, 1)
	var stepErr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	now := time.Duration(0)
	ns := timeCalls(steps, func(i int) {
		dev.SetDistance(traj[i%m])
		now += c.Firmware.SamplePeriod
		if err := dev.Firmware.Step(now); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	runtime.ReadMemStats(&ms1)
	if stepErr != nil {
		return fmt.Errorf("firmware replay: %w", stepErr)
	}
	rep.set("firmware.step_ns", "ns", ns)
	rep.set("firmware.step_allocs", "allocs/step", float64(ms1.Mallocs-ms0.Mallocs)/float64(steps))
	return nil
}
