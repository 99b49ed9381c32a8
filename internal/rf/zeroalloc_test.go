package rf

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// The zero-allocation contracts of the frame pipeline, enforced as tests so
// a regression fails CI rather than silently costing a fleet host one
// garbage-collected allocation per frame. testing.AllocsPerRun reports the
// average allocations of steady-state calls; the scratch buffers warm up
// before measurement.

func testMessage() Message {
	return Message{
		Kind:      MsgScroll,
		Device:    7,
		Seq:       42,
		AtMillis:  1234,
		Index:     5,
		VoltageMV: 1800,
		Island:    2,
		Button:    1,
		Context:   3,
	}
}

func TestAppendBinaryZeroAlloc(t *testing.T) {
	m := testMessage()
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf = m.AppendBinary(buf[:0])
	}); n != 0 {
		t.Fatalf("Message.AppendBinary: %v allocs/op, want 0", n)
	}
}

func TestAppendEncodeZeroAlloc(t *testing.T) {
	payload := testMessage().AppendBinary(nil)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendEncode(buf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendEncode: %v allocs/op, want 0", n)
	}
}

func TestFeedFuncZeroAlloc(t *testing.T) {
	frame, err := AppendEncode(nil, testMessage().AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	got := 0
	fn := func(p []byte) { got++ }
	// Warm the decoder's internal buffer before measuring.
	d.FeedFunc(frame, fn)
	got = 0
	if n := testing.AllocsPerRun(1000, func() {
		d.FeedFunc(frame, fn)
	}); n != 0 {
		t.Fatalf("Decoder.FeedFunc: %v allocs/op, want 0", n)
	}
	if got != 1000+1 {
		t.Fatalf("decoded %d frames, want %d", got, 1001)
	}
}

// TestLinkSendZeroAlloc pins the link's steady state at zero allocations:
// a forward telemetry send through loss, corruption, jitter and airtime,
// and an ack (SendAck), each followed by its delivery through the inflight
// queue and the decoder. Frames are encoded into the link's reused
// inflight buffer and delivered by one pre-bound callback, so once the
// buffers have warmed up a frame costs nothing on the heap.
func TestLinkSendZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	delivered := 0
	sink := func([]byte, time.Duration) { delivered++ }
	cfg := LinkConfig{LossProb: 0.05, CorruptProb: 0.05, Latency: 4 * time.Millisecond,
		Jitter: 2 * time.Millisecond, BitrateBPS: 19_200}
	fwd, err := NewLink(cfg, sched, sim.NewRand(3), sink)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := NewLink(LinkConfig{LossProb: 0.05, Latency: 4 * time.Millisecond,
		Jitter: 2 * time.Millisecond}, sched, sim.NewRand(4), sink)
	if err != nil {
		t.Fatal(err)
	}
	payload := testMessage().AppendBinary(nil)
	run := func(send func()) func() {
		return func() {
			send()
			send()
			if err := sched.Run(sched.Clock().Now() + 100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	forward := run(func() {
		if _, err := fwd.SendTagged(payload, PayloadV1); err != nil {
			t.Fatal(err)
		}
	})
	acks := run(func() { ack.SendAck(7, 42) })
	for i := 0; i < 100; i++ { // warm the inflight buffers and the wheel
		forward()
		acks()
	}
	if n := testing.AllocsPerRun(1000, forward); n != 0 {
		t.Fatalf("Link.SendTagged + delivery: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, acks); n != 0 {
		t.Fatalf("Link.SendAck + delivery: %v allocs/op, want 0", n)
	}
	if delivered == 0 || fwd.Stats().Delivered == 0 || ack.Stats().Delivered == 0 {
		t.Fatalf("nothing delivered: forward %+v, acks %+v", fwd.Stats(), ack.Stats())
	}
}

// TestEncodeAppendEncodeEquivalent pins AppendEncode's wire layout byte for
// byte — sync, length, payload, big-endian CRC-16 over length+payload —
// appended after whatever dst held, including the error path leaving dst
// untouched.
func TestEncodeAppendEncodeEquivalent(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x01},
		testMessage().AppendBinary(nil),
		make([]byte, MaxPayload),
	}
	for _, p := range payloads {
		want := append([]byte{0xEE, sync0, sync1, byte(len(p))}, p...)
		crc := crc16Bitwise(want[3:])
		want = append(want, byte(crc>>8), byte(crc))
		got, err := AppendEncode([]byte{0xEE}, p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("AppendEncode mismatch for %d-byte payload", len(p))
		}
	}
	dst := []byte{1, 2, 3}
	out, err := AppendEncode(dst, make([]byte, MaxPayload+1))
	if err == nil {
		t.Fatal("AppendEncode accepted oversize payload")
	}
	if len(out) != 3 {
		t.Fatalf("error path must leave dst unchanged, got len %d", len(out))
	}
}

// arqAckLoop closes the reliable loop over ideal Links without allocating
// in the harness: ARQ → forward Link → in-order receiver → ack Link →
// ARQ.HandleAck. The receiver admits skip fillers like core.Session and
// drops the next ack when muted.
type arqAckLoop struct {
	sched    *sim.Scheduler
	arq      *ARQ
	ack      *Link
	await    uint16
	received int
	mute     bool
	seq      uint16
	payload  []byte
}

func newARQAckLoop(t testing.TB, cfg ARQConfig) *arqAckLoop {
	l := &arqAckLoop{sched: sim.NewScheduler(sim.NewClock(0))}
	fwd, err := NewLink(LinkConfig{Latency: 2 * time.Millisecond}, l.sched, nil, l.receive)
	if err != nil {
		t.Fatal(err)
	}
	if l.arq, err = NewARQ(cfg, l.sched, nil, fwd); err != nil {
		t.Fatal(err)
	}
	if l.ack, err = NewLink(LinkConfig{Latency: 2 * time.Millisecond}, l.sched, nil, l.arq.HandleAck); err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *arqAckLoop) receive(payload []byte, _ time.Duration) {
	var m Message
	if !m.Decode(payload) {
		return
	}
	if m.Kind == MsgSkip {
		if first := m.Seq - uint16(m.Index) + 1; l.await-first < 0x8000 && m.Seq-l.await < 0x8000 {
			l.await = m.Seq + 1
		}
	} else if m.Seq == l.await {
		l.received++
		l.await++
	}
	if l.mute {
		l.mute = false
		return
	}
	l.ack.SendAck(m.Device, l.await-1)
}

// send hands n fresh sequenced payloads to the ARQ, then runs the loop
// until everything is confirmed.
func (l *arqAckLoop) send(t testing.TB, n int) {
	for i := 0; i < n; i++ {
		l.payload = Message{Kind: MsgScroll, Device: 1, Seq: l.seq}.AppendBinary(l.payload[:0])
		l.seq++
		if _, err := l.arq.SendTagged(l.payload, PayloadV1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.sched.Run(l.sched.Clock().Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if o := l.arq.Outstanding(); o != 0 {
		t.Fatalf("%d frames outstanding after the loop ran", o)
	}
}

// TestARQSteadyStateZeroAlloc pins the reliable sender's steady state at
// zero allocations: frames and their payload buffers come back through
// the free list, the window and backlog shift in place, and every
// retransmit timer schedules the one pre-bound callback. Three paths are
// measured after warm-up: send → deliver → ack → promote from the
// backlog, one retransmit timeout, and a backlog overflow that merges
// payloads into a skip filler.
func TestARQSteadyStateZeroAlloc(t *testing.T) {
	l := newARQAckLoop(t, ARQConfig{Window: 1, Queue: 2, RTO: 20 * time.Millisecond})
	promote := func() { l.send(t, 2) }
	timeout := func() {
		l.mute = true
		l.send(t, 1)
	}
	overflow := func() { l.send(t, 5) }
	for i := 0; i < 50; i++ {
		promote()
		timeout()
		overflow()
	}
	for _, c := range []struct {
		name string
		run  func()
		// moved reports whether the path's own counter advanced.
		moved func(before, after ARQStats) bool
	}{
		{"send+ack+promote", promote, func(b, a ARQStats) bool { return a.Acked > b.Acked }},
		{"retransmit timeout", timeout, func(b, a ARQStats) bool { return a.Timeouts > b.Timeouts }},
		{"overflow into a skip filler", overflow, func(b, a ARQStats) bool { return a.QueueDrops > b.QueueDrops }},
	} {
		before := l.arq.Stats()
		if n := testing.AllocsPerRun(200, c.run); n != 0 {
			t.Errorf("ARQ %s: %v allocs/op, want 0", c.name, n)
		}
		if !c.moved(before, l.arq.Stats()) {
			t.Errorf("ARQ %s: path not exercised (%+v)", c.name, l.arq.Stats())
		}
	}
}
