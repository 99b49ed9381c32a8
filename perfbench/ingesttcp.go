package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
)

// ingest-tcp drives the networked gateway: hubnet.Serve on loopback with
// the ingest pipeline and one shard per core, and one client connection
// per core pushing seeded frames through a FrameSender as fast as TCP
// backpressure lets it. Each client sends its next batch once the last
// one is flushed, so the loop is closed and per-frame cost sets the rate.

const (
	layerEncode = iota
	layerSend
)

var ingestLayers = []string{"rf.encode", "hubnet.send"}

const (
	// sweepFrames is how many frames a client encodes between flushes. It
	// stays under the FrameSender's 32 KiB push threshold (~1300 frames),
	// so every hand-off to the socket happens in Flush and the encode span
	// holds encode work only.
	sweepFrames = 1024
	// islandPeriod is the length of each device's seeded island walk.
	islandPeriod = 64
	// readChunk is the server's read size, which the replays feed in.
	readChunk = 32 << 10
	// ingestSettle bounds the wait for the gateway to take in every frame
	// sent before it counts as lost.
	ingestSettle = 20 * time.Second
)

// ingestInputs is the seeded frame content: a starting sequence number
// per device (so streams wrap at different points) and a walk over the
// islands, one step per round.
type ingestInputs struct {
	devices int
	seq0    []uint16
	islands []int16 // devices x islandPeriod
	at0     uint32
}

func genIngestInputs(devices int, seed uint64) *ingestInputs {
	rng := sim.NewRand(seed)
	in := &ingestInputs{
		devices: devices,
		seq0:    make([]uint16, devices),
		islands: make([]int16, devices*islandPeriod),
		at0:     uint32(rng.Intn(1 << 20)),
	}
	for d := 0; d < devices; d++ {
		in.seq0[d] = uint16(rng.Uint64())
		isl := rng.Intn(12)
		for k := 0; k < islandPeriod; k++ {
			isl = min(max(isl+rng.Intn(3)-1, 0), 11)
			in.islands[d*islandPeriod+k] = int16(isl)
		}
	}
	return in
}

// ingestClient is one connection sending for a contiguous device range.
type ingestClient struct {
	conn   *hubnet.Conn
	fs     *hubnet.FrameSender
	lo, hi int
	seq    []uint16 // next seq per device of the range
	round  int
	at     uint32
	sent   uint64
	tk     *track
}

func newIngestClient(addr string, in *ingestInputs, lo, hi int) (*ingestClient, error) {
	conn, err := hubnet.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &ingestClient{
		conn: conn,
		fs:   hubnet.NewFrameSender(conn, 1),
		lo:   lo,
		hi:   hi,
		seq:  append([]uint16(nil), in.seq0[lo:hi]...),
		at:   in.at0,
	}, nil
}

// sweep sends one frame for every device of the range: slot d goes out
// as device id d+1.
func (c *ingestClient) sweep(in *ingestInputs) error {
	k := c.round % islandPeriod
	for lo := c.lo; lo < c.hi; lo += sweepFrames {
		hi := min(lo+sweepFrames, c.hi)
		c.tk.begin(layerEncode)
		for d := lo; d < hi; d++ {
			c.fs.Emit(d, c.seq[d-c.lo], in.islands[d*islandPeriod+k], c.at)
			c.seq[d-c.lo]++
		}
		c.tk.end()
		c.tk.begin(layerSend)
		err := c.fs.Flush()
		c.tk.end()
		if err != nil {
			return err
		}
		c.sent += uint64(hi - lo)
	}
	c.round++
	c.at += 40
	return nil
}

// ingestOutcome is one server lifetime: set-up, the timed push, and the
// gateway's accounting of it.
type ingestOutcome struct {
	setup    time.Duration
	cost     phaseCost
	sent     uint64 // frames sent in the timed phase
	admitted uint64 // events admitted in the timed phase
	failed   uint64
	sweeps   []int // sweeps each client completed in the timed phase
	net      hubnet.NetStats
	sum      string
	problems []string
}

// ingestLimit ends the timed phase: after a duration, or, when sweeps is
// set, after exactly that many sweeps per client (a traced replay of a
// reference run's work).
type ingestLimit struct {
	dur    time.Duration
	sweeps []int
}

func runIngest(in *ingestInputs, conns, shards int, lim ingestLimit, tr *spanTracer) (ingestOutcome, error) {
	var out ingestOutcome
	t0 := time.Now()
	srv, err := hubnet.Serve("127.0.0.1:0", hubnet.Config{Shards: shards, Pipeline: true})
	if err != nil {
		return out, err
	}
	defer srv.Close()
	gw := srv.Gateway()
	clients := make([]*ingestClient, conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.conn.Close()
			}
		}
	}()
	for i := range clients {
		c, err := newIngestClient(srv.Addr().String(), in, i*in.devices/conns, (i+1)*in.devices/conns)
		if err != nil {
			return out, err
		}
		clients[i] = c
	}
	// Warm-up: one frame per device registers every session, so session
	// creation is set-up, not ingest.
	var warm uint64
	for _, c := range clients {
		if err := c.sweep(in); err != nil {
			return out, err
		}
		warm += c.sent
		c.sent = 0
	}
	if !awaitIngest(gw, warm) {
		return out, fmt.Errorf("warm-up: gateway took %d of %d frames", gw.NetStats().Frames, warm)
	}
	out.setup = time.Since(t0)
	before := gw.Stats()

	for i, c := range clients {
		if tr != nil {
			c.tk = tr.newTrack(fmt.Sprintf("conn-%d", i))
		}
	}
	errs := make([]error, conns)
	out.sweeps = make([]int, conns)
	ph := startPhase()
	deadline := time.Now().Add(lim.dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				if lim.sweeps != nil && r == lim.sweeps[i] || lim.sweeps == nil && !time.Now().Before(deadline) {
					out.sweeps[i] = r
					return
				}
				if err := c.sweep(in); err != nil {
					errs[i] = err
					out.sweeps[i] = r
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range clients {
		out.sent += c.sent
	}
	settled := awaitIngest(gw, warm+out.sent)
	out.cost = ph.stop()
	out.cost.liveHeapByte = liveHeap()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	if !settled {
		out.problems = append(out.problems, fmt.Sprintf("gateway took %d of %d frames", gw.NetStats().Frames, warm+out.sent))
	}

	after := gw.Stats()
	out.net = gw.NetStats()
	out.admitted = after.Events - before.Events
	// Every frame sent is admitted exactly once, in sequence, intact.
	out.failed = absDiff(warm+out.sent, after.Events) + after.BadFrames + after.MissedSeq +
		after.Duplicates + after.Reordered + out.net.RingDropped
	sum := newChecksum()
	for id := uint32(1); id <= uint32(in.devices); id++ {
		st, _ := gw.DeviceStats(id)
		sum.add(st.Events, st.Decoded, st.MissedSeq, st.Duplicates, st.Reordered)
	}
	out.sum = sum.String()
	return out, nil
}

// awaitIngest waits until the gateway has decoded frames frames off the
// wire and its shard rings are drained.
func awaitIngest(gw *hubnet.Gateway, frames uint64) bool {
	deadline := time.Now().Add(ingestSettle)
	for {
		ns := gw.NetStats()
		if ns.Frames+ns.BadFrames >= frames {
			break
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	gw.Drain()
	return true
}

func ingestTCPRun(ctx *runCtx, rep *report) error {
	var rs rounds
	var problems []string
	n := max(ctx.sizes.ingestRounds, 1)
	for r := 0; r < n; r++ {
		// Each set-up starts on a collected heap, so the last round's
		// garbage is not charged to it.
		runtime.GC()
		t0 := time.Now()
		in := genIngestInputs(ctx.sizes.ingestDevices, ctx.seed)
		gen := time.Since(t0)
		o, err := runIngest(in, ctx.nproc, ctx.nproc, ingestLimit{dur: ctx.duration / time.Duration(n)}, nil)
		if err != nil {
			return err
		}
		rep.frames(o.sent, o.failed)
		problems = append(problems, o.problems...)
		rs.setup(gen + o.setup)
		rs.add(o.admitted, o.cost)
	}
	rs.report(rep)
	rep.check("ingest-tcp.accounting", len(problems) == 0, "%d problems %v", len(problems), problems)
	rep.note("ingest-tcp: %d rounds of %s, %d devices over %d connections into %d shards",
		n, ctx.duration/time.Duration(n), ctx.sizes.ingestDevices, ctx.nproc, ctx.nproc)
	return nil
}

// ingestTCPLedger: an untraced reference run for a fixed time, a traced
// run of exactly the reference's sweeps (so their checksums must match),
// a one-connection one-shard run for the speed-up, and replays of the
// recorded byte stream through each server-side layer.
func ingestTCPLedger(ctx *runCtx, rep *report) error {
	in := genIngestInputs(ctx.sizes.ingestDevices, ctx.seed)
	dur := ctx.duration / time.Duration(max(ctx.sizes.ingestRounds, 1))
	ref, err := runIngest(in, ctx.nproc, ctx.nproc, ingestLimit{dur: dur}, nil)
	if err != nil {
		return err
	}
	tr := newSpanTracer(ingestLayers...)
	traced, err := runIngest(in, ctx.nproc, ctx.nproc, ingestLimit{sweeps: ref.sweeps}, tr)
	if err != nil {
		return err
	}
	one, err := runIngest(in, 1, 1, ingestLimit{dur: dur}, nil)
	if err != nil {
		return err
	}
	problems := []string{}
	for _, o := range []ingestOutcome{ref, traced, one} {
		rep.frames(o.sent, o.failed)
		problems = append(problems, o.problems...)
	}
	rep.check("ingest-tcp.accounting", len(problems) == 0, "%d problems %v", len(problems), problems)
	rep.check("ingest-tcp.traced_checksum", traced.sum == ref.sum, "untraced %s, traced %s", ref.sum, traced.sum)
	rep.checksums["ingest-tcp"] = ref.sum

	lt := tr.totals()
	rep.set("rf.encode_ns_per_frame", "ns", float64(lt.self[layerEncode])/float64(traced.sent))
	rep.set("hubnet.send_ns_per_frame", "ns", float64(lt.self[layerSend])/float64(traced.sent))
	n := ref.net
	rep.set("hubnet.frames_per_batch", "frames/batch", float64(n.Frames)/float64(max(n.RingBatches, 1)))
	rep.set("hubnet.ring_stalls_per_mframe", "1/Mframe", float64(n.RingStalls)*1e6/float64(n.Frames))
	rep.set("hubnet.short_reads_per_mframe", "1/Mframe", float64(n.ShortReads)*1e6/float64(n.Frames))
	rep.set("ingest.allocs_per_frame", "allocs/frame", float64(ref.cost.mallocs)/float64(ref.admitted))
	rep.set("hubnet.shard_speedup", "x",
		(float64(ref.admitted)/ref.cost.wall.Seconds())/(float64(one.admitted)/one.cost.wall.Seconds()))

	serverNs, err := ingestReplays(ctx, rep, in)
	if err != nil {
		return err
	}
	attributed := lt.selfSum(layerEncode, layerSend) + int64(serverNs*float64(traced.sent))
	closure(rep, "ingest-tcp", traced.cost, ref.cost, ctx.nproc, attributed, traced.sent)
	return ctx.writeTrace("ingest-tcp", 3, tr)
}

// recordStream captures the bytes a client sends for the first frames
// frames of the seeded stream, through the same FrameSender path.
func recordStream(in *ingestInputs, frames int) ([]byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type capture struct {
		b   []byte
		err error
	}
	got := make(chan capture, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- capture{err: err}
			return
		}
		defer c.Close()
		b, err := io.ReadAll(c)
		got <- capture{b, err}
	}()
	c, err := newIngestClient(ln.Addr().String(), in, 0, in.devices)
	if err != nil {
		return nil, err
	}
	for c.sent < uint64(frames) {
		if err := c.sweep(in); err != nil {
			c.conn.Close()
			return nil, err
		}
	}
	if err := c.conn.Close(); err != nil {
		return nil, err
	}
	cp := <-got
	return cp.b, cp.err
}

// ingestReplays times the server-side layers one at a time on a recorded
// stream, fed in the server's read-sized chunks: the frame decoder alone,
// the gateway ingest (decode, stage, ring hand-off) and the drain of what
// it handed off, and the hub's batch consume. The feed replay's rings
// hold the whole stream, so Feed never waits on a shard worker and its
// time is the producer's own. It returns the server's per-frame cost,
// feed plus consume, for the closure line.
func ingestReplays(ctx *runCtx, rep *report, in *ingestInputs) (float64, error) {
	stream, err := recordStream(in, ctx.sizes.ingestRecord)
	if err != nil {
		return 0, err
	}
	var chunks [][]byte
	for off := 0; off < len(stream); off += readChunk {
		chunks = append(chunks, stream[off:min(off+readChunk, len(stream))])
	}

	var msgs []rf.Message
	dec := rf.NewDecoder()
	for _, ch := range chunks {
		dec.FeedFunc(ch, func(p []byte) {
			var m rf.Message
			if m.Decode(p) {
				msgs = append(msgs, m)
			}
		})
	}
	frames := len(msgs)
	if frames == 0 {
		return 0, fmt.Errorf("recorded stream holds no frames")
	}

	var n uint64
	dec = rf.NewDecoder()
	t0 := time.Now()
	for _, ch := range chunks {
		dec.FeedFunc(ch, func([]byte) { n++ })
	}
	rep.set("rf.decode_ns_per_frame", "ns", perFrame(time.Since(t0), n))

	shards := ctx.nproc
	slots := 1
	for slots*hubnet.DefaultBatchFrames < frames {
		slots *= 2
	}
	gw := hubnet.NewGateway(hubnet.Config{Shards: shards, Pipeline: true, RingSlots: slots})
	defer gw.Close()
	for id := 1; id <= in.devices; id++ {
		gw.Session(uint32(id))
	}
	ing := gw.NewIngest(nil)
	t0 = time.Now()
	for _, ch := range chunks {
		ing.Feed(ch)
	}
	feed := time.Since(t0)
	t0 = time.Now()
	gw.Drain()
	drain := time.Since(t0)
	if st := gw.Stats(); st.Events != uint64(frames) || st.MissedSeq != 0 {
		return 0, fmt.Errorf("feed replay admitted %d of %d frames (%d missed)", st.Events, frames, st.MissedSeq)
	}
	rep.set("hubnet.feed_ns_per_frame", "ns", perFrame(feed, uint64(frames)))
	rep.set("hubnet.drain_ns_per_frame", "ns", perFrame(drain, uint64(frames)))

	hub := core.NewHubDetached(false, nil)
	for id := 1; id <= in.devices; id++ {
		hub.Session(uint32(id))
	}
	t0 = time.Now()
	for lo := 0; lo < frames; lo += hubnet.DefaultBatchFrames {
		hub.ConsumeBatch(msgs[lo:min(lo+hubnet.DefaultBatchFrames, frames)], 0, nil)
	}
	consume := time.Since(t0)
	if st := hub.Stats(); st.Events != uint64(frames) {
		return 0, fmt.Errorf("consume replay admitted %d of %d frames", st.Events, frames)
	}
	rep.set("core.consume_batch_ns_per_frame", "ns", perFrame(consume, uint64(frames)))
	return perFrame(feed+consume, uint64(frames)), nil
}
