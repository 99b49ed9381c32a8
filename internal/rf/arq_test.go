package rf

import (
	"fmt"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// scriptTx is a Transport whose loss pattern the test controls exactly: the
// i-th Send (0-based, counting every transmission including retransmits) is
// dropped when drop[i] is set. Delivery is FIFO with a fixed latency.
type scriptTx struct {
	sched   sim.EventScheduler
	sink    func(payload []byte, at time.Duration)
	latency time.Duration
	drop    map[int]bool
	sends   int
	// onSend, when set, runs before every transmission.
	onSend func()
}

func (s *scriptTx) Send(payload []byte) (time.Duration, error) {
	if s.onSend != nil {
		s.onSend()
	}
	i := s.sends
	s.sends++
	arrive := s.sched.Clock().Now() + s.latency
	if s.drop[i] {
		return arrive, nil
	}
	cp := append([]byte(nil), payload...)
	s.sched.At(arrive, func(at time.Duration) { s.sink(cp, at) })
	return arrive, nil
}

// reliableLoop wires a full device↔host round trip inside the rf package:
// ARQ → scriptTx → in-order receiver → ideal ack Link → ARQ.HandleAck.
// dropAcks drops the i-th ack before it reaches the ack link.
type reliableLoop struct {
	t     *testing.T
	sched sim.EventScheduler
	arq   *ARQ
	tx    *scriptTx
	rev   *Link

	await    uint16
	got      []uint16
	skipped  uint64
	ackN     int
	dropAcks map[int]bool
}

func newReliableLoop(t *testing.T, cfg ARQConfig, drop, dropAcks map[int]bool) *reliableLoop {
	t.Helper()
	return newReliableLoopOn(t, sim.NewScheduler(sim.NewClock(0)), cfg, drop, dropAcks)
}

// newReliableLoopOn is newReliableLoop on a given scheduler.
func newReliableLoopOn(t *testing.T, sched sim.EventScheduler, cfg ARQConfig, drop, dropAcks map[int]bool) *reliableLoop {
	t.Helper()
	l := &reliableLoop{t: t, sched: sched, dropAcks: dropAcks}
	l.tx = &scriptTx{sched: l.sched, latency: 2 * time.Millisecond, drop: drop, sink: l.receive}
	arq, err := NewARQ(cfg, l.sched, sim.NewRand(5), l.tx)
	if err != nil {
		t.Fatal(err)
	}
	l.arq = arq
	rev, err := NewLink(LinkConfig{Latency: 2 * time.Millisecond}, l.sched, nil, arq.HandleAck)
	if err != nil {
		t.Fatal(err)
	}
	l.rev = rev
	return l
}

func (l *reliableLoop) receive(payload []byte, at time.Duration) {
	var m Message
	if !m.Decode(payload) {
		l.t.Fatalf("receiver: undecodable payload % x", payload)
	}
	if m.Kind == MsgSkip {
		// Sender abandonment notice: admit when the awaited position falls
		// inside the announced range, mirroring core.Session.
		count := uint16(m.Index)
		first := m.Seq - count + 1
		if m.Seq-l.await < 0x8000 && l.await-first < 0x8000 {
			l.skipped += uint64(m.Seq - l.await + 1)
			l.await = m.Seq + 1
		}
	} else if m.Seq == l.await {
		l.got = append(l.got, m.Seq)
		l.await++
	}
	i := l.ackN
	l.ackN++
	if l.dropAcks[i] {
		return
	}
	l.rev.SendAck(m.Device, l.await-1)
}

func (l *reliableLoop) send(seqs ...uint16) {
	l.t.Helper()
	for _, seq := range seqs {
		p := Message{Kind: MsgScroll, Device: 1, Seq: seq}.AppendBinary(nil)
		if _, err := l.arq.SendTagged(p, PayloadV1); err != nil {
			l.t.Fatal(err)
		}
	}
}

func (l *reliableLoop) run(d time.Duration) {
	l.t.Helper()
	if err := l.sched.Run(l.sched.Clock().Now() + d); err != nil {
		l.t.Fatal(err)
	}
}

// TestARQRetransmitsLostFrame drops the first transmission of the first
// frame; the timeout must retransmit it and the receiver must end up with
// the full in-order stream.
func TestARQRetransmitsLostFrame(t *testing.T) {
	l := newReliableLoop(t, ARQConfig{}, map[int]bool{0: true}, nil)
	l.send(0, 1, 2, 3, 4)
	l.run(5 * time.Second)
	if len(l.got) != 5 {
		t.Fatalf("received %v, want seq 0..4", l.got)
	}
	for i, seq := range l.got {
		if seq != uint16(i) {
			t.Fatalf("out of order: %v", l.got)
		}
	}
	st := l.arq.Stats()
	if st.Retransmits == 0 || st.Timeouts == 0 {
		t.Fatalf("no retransmission recorded: %+v", st)
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.arq.Outstanding())
	}
	if st.Acked != 5 {
		t.Fatalf("acked %d, want 5", st.Acked)
	}
}

// TestARQAckLossRecovery drops every ack of the first delivery round — a
// single surviving cumulative ack would repair earlier losses — so the
// sender must retransmit frames the receiver already has; the receiver
// discards the duplicates and re-acks until an ack lands.
func TestARQAckLossRecovery(t *testing.T) {
	l := newReliableLoop(t, ARQConfig{}, nil, map[int]bool{0: true, 1: true, 2: true})
	l.send(0, 1, 2)
	l.run(5 * time.Second)
	if len(l.got) != 3 {
		t.Fatalf("received %v, want seq 0..2", l.got)
	}
	st := l.arq.Stats()
	if st.Retransmits == 0 {
		t.Fatal("ack loss caused no retransmission")
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.arq.Outstanding())
	}
}

// TestARQWindowAndQueueBounds checks that in-flight transmissions never
// exceed the window, the backlog never exceeds the queue bound, and overflow
// collapses the oldest queued payloads into one skip filler.
func TestARQWindowAndQueueBounds(t *testing.T) {
	// Drop everything: nothing is ever acked, so the window stays full.
	drop := make(map[int]bool)
	for i := 0; i < 10_000; i++ {
		drop[i] = true
	}
	l := newReliableLoop(t, ARQConfig{Window: 2, Queue: 4}, drop, nil)
	seqs := make([]uint16, 10)
	for i := range seqs {
		seqs[i] = uint16(i)
	}
	l.send(seqs...)
	if got := l.arq.Outstanding(); got != 2+4 {
		t.Fatalf("outstanding %d, want window+queue = 6", got)
	}
	st := l.arq.Stats()
	// 10 sent, 2 in flight, 4 queue slots of which one is the filler
	// covering the 5 abandoned payloads (seqs 2..6): queue [skip(2..6),7,8,9].
	if st.QueueDrops != 5 {
		t.Fatalf("queue drops %d, want 5 (10 sent - 2 window - 3 data slots)", st.QueueDrops)
	}
	if st.Enqueued != 10 {
		t.Fatalf("enqueued %d, want 10", st.Enqueued)
	}
}

// TestARQSkipAnnouncesAbandonment runs queue overflow end to end: the
// payloads sacrificed by drop-oldest must reach the receiver as one MsgSkip
// filler, so the stream advances past the hole with an exact loss count and
// the surviving frames still arrive.
func TestARQSkipAnnouncesAbandonment(t *testing.T) {
	// Ideal channel; window 1 serialises delivery so the burst of sends
	// overflows the 2-slot queue before anything is acked.
	l := newReliableLoop(t, ARQConfig{Window: 1, Queue: 2}, nil, nil)
	l.send(0, 1, 2, 3, 4, 5)
	l.run(5 * time.Second)
	st := l.arq.Stats()
	if st.QueueDrops != 4 {
		t.Fatalf("queue drops %d, want 4 (seqs 1..4 abandoned)", st.QueueDrops)
	}
	if l.skipped != 4 {
		t.Fatalf("receiver skipped %d seqs, want 4", l.skipped)
	}
	if len(l.got) != 2 || l.got[0] != 0 || l.got[1] != 5 {
		t.Fatalf("received %v, want [0 5]", l.got)
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.arq.Outstanding())
	}
}

// TestARQRetryBudget bounds per-frame attempts: frames out of retries are
// abandoned (counted) and replaced by skip fillers, which are exempt from
// the budget — so when the channel heals the receiver learns about the hole
// and the stream continues instead of stalling on a silent gap.
func TestARQRetryBudget(t *testing.T) {
	// Dead through the data frames' whole budget (3 frames × 3 attempts)
	// and the fillers' first transmission, then healed.
	drop := make(map[int]bool)
	for i := 0; i < 12; i++ {
		drop[i] = true
	}
	l := newReliableLoop(t, ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond, MaxRTO: 20 * time.Millisecond}, drop, nil)
	l.send(0, 1, 2)
	l.run(10 * time.Second)
	st := l.arq.Stats()
	if st.RetryDrops != 3 {
		t.Fatalf("retry drops %d, want 3", st.RetryDrops)
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after the channel healed", l.arq.Outstanding())
	}
	if l.skipped != 3 {
		t.Fatalf("receiver skipped %d seqs, want 3", l.skipped)
	}
	if st.Timeouts < 3 {
		t.Fatalf("timeouts %d, want >= 3", st.Timeouts)
	}
	// The stream is live again: a fresh frame goes straight through.
	l.send(3)
	l.run(time.Second)
	if len(l.got) != 1 || l.got[0] != 3 {
		t.Fatalf("received %v after recovery, want [3]", l.got)
	}
}

// TestARQTimerSameDeadline arms the retransmit timer twice at the same
// deadline (no jitter): both events fire at that instant, and only the
// newer generation may run a timeout — one go-back-N pass, one
// retransmission. A timer re-armed to a later deadline must not fire at
// the earlier one.
func TestARQTimerSameDeadline(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	tx := &scriptTx{sched: sched, sink: func([]byte, time.Duration) {}, drop: map[int]bool{0: true, 1: true}}
	arq, err := NewARQ(ARQConfig{RTO: 50 * time.Millisecond}, sched, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	p := Message{Kind: MsgScroll, Device: 1, Seq: 0}.AppendBinary(nil)
	if _, err := arq.SendTagged(p, PayloadV1); err != nil {
		t.Fatal(err)
	}
	arq.armTimer()
	if len(arq.armed) != 2 || arq.armed[0].deadline != arq.armed[1].deadline {
		t.Fatalf("armed %+v, want two timers at one deadline", arq.armed)
	}
	deadline := arq.armed[0].deadline
	if err := sched.Run(deadline); err != nil {
		t.Fatal(err)
	}
	st := arq.Stats()
	if st.Timeouts != 1 || st.Retransmits != 1 || tx.sends != 2 {
		t.Fatalf("after the shared deadline: %+v, %d sends; want 1 timeout, 1 retransmission, 2 sends", st, tx.sends)
	}
	// The pass re-armed one timer at the backed-off timeout; both fired
	// timers are gone.
	if len(arq.armed) != 1 || arq.armed[0].deadline != deadline+100*time.Millisecond {
		t.Fatalf("armed %+v after the firing, want one timer at %v", arq.armed, deadline+100*time.Millisecond)
	}

	// Re-arm later than the pending timer: the earlier event is stale.
	arq.lastTxEnd += 30 * time.Millisecond
	arq.armTimer()
	if err := sched.Run(deadline + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := arq.Stats().Timeouts; got != 1 {
		t.Fatalf("a superseded timer ran a timeout: %d timeouts", got)
	}
	if err := sched.Run(deadline + 130*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := arq.Stats().Timeouts; got != 2 {
		t.Fatalf("the re-armed timer did not fire: %d timeouts", got)
	}
}

// TestARQSchedulersAgree runs one scripted lossy loop, with jitter, data
// and ack losses and a backlog, on both scheduler implementations: the
// ARQ's timers must resolve identically on each.
func TestARQSchedulersAgree(t *testing.T) {
	run := func(sched sim.EventScheduler) (ARQStats, []uint16) {
		drop, dropAcks := map[int]bool{}, map[int]bool{}
		for i := 0; i < 200; i++ {
			drop[i] = i%3 == 0 || i%7 == 2
			dropAcks[i] = i%4 == 1
		}
		l := newReliableLoopOn(t, sched, ARQConfig{Window: 4, Queue: 6, MaxRetries: 5,
			RTO: 10 * time.Millisecond, MaxRTO: 80 * time.Millisecond}, drop, dropAcks)
		for seq := uint16(0); seq < 40; seq++ {
			l.send(seq)
			l.run(3 * time.Millisecond)
		}
		l.run(10 * time.Second)
		if l.arq.Outstanding() != 0 {
			t.Fatalf("%d frames outstanding after the drain", l.arq.Outstanding())
		}
		return l.arq.Stats(), l.got
	}
	wantStats, wantGot := run(sim.NewHeapScheduler(sim.NewClock(0)))
	gotStats, gotGot := run(sim.NewScheduler(sim.NewClock(0)))
	if gotStats != wantStats {
		t.Fatalf("value heap %+v, reference heap %+v", gotStats, wantStats)
	}
	if fmt.Sprint(gotGot) != fmt.Sprint(wantGot) {
		t.Fatalf("received %v on the value heap, %v on the reference heap", gotGot, wantGot)
	}
	if wantStats.Timeouts == 0 || wantStats.Retransmits == 0 || wantStats.DupAcks == 0 {
		t.Fatalf("the script exercised no recovery: %+v", wantStats)
	}
}

// TestARQDuplicateAcks counts acks that confirm nothing new.
func TestARQDuplicateAcks(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	tx := &scriptTx{sched: sched, sink: func([]byte, time.Duration) {}}
	arq, err := NewARQ(ARQConfig{}, sched, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	p := Message{Kind: MsgScroll, Device: 1, Seq: 0}.AppendBinary(nil)
	if _, err := arq.SendTagged(p, PayloadV1); err != nil {
		t.Fatal(err)
	}
	ack := Message{Kind: MsgAck, Device: 1, Seq: 0}.AppendBinary(nil)
	arq.HandleAck(ack, 0)
	arq.HandleAck(ack, 0)
	st := arq.Stats()
	if st.Acked != 1 || st.DupAcks != 1 || st.AcksReceived != 2 {
		t.Fatalf("ack accounting: %+v", st)
	}
	// A non-ack payload on the reverse channel is rejected.
	bogus := Message{Kind: MsgScroll, Device: 1, Seq: 1}.AppendBinary(nil)
	arq.HandleAck(bogus, 0)
	if arq.Stats().BadAcks != 1 {
		t.Fatalf("bad acks: %+v", arq.Stats())
	}
}

// TestARQPassthroughUnsequenced sends a payload too short to carry a
// sequence number; it must bypass reliability untracked.
func TestARQPassthroughUnsequenced(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	var delivered int
	tx := &scriptTx{sched: sched, sink: func([]byte, time.Duration) { delivered++ }}
	arq, err := NewARQ(ARQConfig{}, sched, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arq.Send([]byte{0x01}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	st := arq.Stats()
	if st.Enqueued != 0 || arq.Outstanding() != 0 {
		t.Fatalf("unsequenced payload tracked: %+v, outstanding %d", st, arq.Outstanding())
	}
}

// TestReverseLinkLossAndFIFO runs the ack channel the way core.NewDevice
// builds it — a Link whose LossProb is the ack loss — and checks acks are
// dropped probabilistically while the surviving deliveries stay FIFO and
// decode as the acks that were sent.
func TestReverseLinkLossAndFIFO(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	var arrivals []time.Duration
	var cums []uint16
	rev, err := NewLink(
		LinkConfig{Latency: 4 * time.Millisecond, Jitter: 40 * time.Millisecond, LossProb: 0.3},
		sched, sim.NewRand(9),
		func(p []byte, at time.Duration) {
			var m Message
			if !m.Decode(p) || m.Kind != MsgAck || m.Device != 1 {
				t.Fatalf("ack payload % x", p)
			}
			arrivals = append(arrivals, at)
			cums = append(cums, m.Seq)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		rev.SendAck(1, uint16(i))
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := rev.Stats()
	if st.Sent != n || st.Lost == 0 || st.Delivered != st.Sent-st.Lost {
		t.Fatalf("reverse accounting: %+v", st)
	}
	rate := float64(st.Lost) / n
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("ack loss rate %.2f, want ~0.3", rate)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] || cums[i] <= cums[i-1] {
			t.Fatalf("ack %d overtook ack %d", i, i-1)
		}
	}
}
