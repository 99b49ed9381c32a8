package rf

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/tracing"
)

// TestARQTraceSpans checks the sender-side span events: a lost-then-
// retransmitted frame must leave arq.enqueue → arq.tx → arq.retx → arq.ack
// in the flight recorder, in causal order.
func TestARQTraceSpans(t *testing.T) {
	tr := tracing.New(tracing.Config{Capacity: 256, Bounded: true})
	rec := tr.NewRecorder("dev-1", 1)
	l := newReliableLoop(t, ARQConfig{}, map[int]bool{0: true}, nil)
	l.arq.SetTracer(rec)
	l.send(0, 1, 2)
	l.run(5 * time.Second)

	var order []tracing.Hop
	seen := map[tracing.Hop]int{}
	for _, e := range rec.Events() {
		order = append(order, e.Hop())
		seen[e.Hop()]++
	}
	if seen[tracing.HopArqEnqueue] != 3 {
		t.Fatalf("arq.enqueue events = %d, want 3 (events: %v)", seen[tracing.HopArqEnqueue], order)
	}
	if seen[tracing.HopArqTx] != 3 {
		t.Fatalf("arq.tx events = %d, want 3", seen[tracing.HopArqTx])
	}
	if seen[tracing.HopArqRetx] == 0 {
		t.Fatalf("no arq.retx event after a dropped first transmission (events: %v)", order)
	}
	if seen[tracing.HopArqAck] == 0 {
		t.Fatalf("no arq.ack event (events: %v)", order)
	}
	// Causality within the buffer: first enqueue precedes first tx precedes
	// first retx.
	first := func(h tracing.Hop) int {
		for i, e := range rec.Events() {
			if e.Hop() == h {
				return i
			}
		}
		return -1
	}
	if !(first(tracing.HopArqEnqueue) < first(tracing.HopArqTx) &&
		first(tracing.HopArqTx) < first(tracing.HopArqRetx)) {
		t.Fatalf("span order violated: %v", order)
	}
}

// TestARQRetryExhaustionDump induces retry-budget exhaustion and checks the
// automatic flight-recorder dump names the abandoned seq range — the
// post-mortem contract: the operator reads WHICH frames died, not just a
// counter.
func TestARQRetryExhaustionDump(t *testing.T) {
	var dump strings.Builder
	tr := tracing.New(tracing.Config{Capacity: 64, Bounded: true, DumpTo: &dump})
	rec := tr.NewRecorder("dev-1", 1)

	// Dead through the data frames' whole budget, then healed (mirrors
	// TestARQRetryBudget): seqs 0..2 exhaust 3 attempts each.
	drop := make(map[int]bool)
	for i := 0; i < 12; i++ {
		drop[i] = true
	}
	l := newReliableLoop(t, ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond, MaxRTO: 20 * time.Millisecond}, drop, nil)
	l.arq.SetTracer(rec)
	l.send(0, 1, 2)
	l.run(10 * time.Second)

	if st := l.arq.Stats(); st.RetryDrops != 3 {
		t.Fatalf("retry drops %d, want 3", st.RetryDrops)
	}
	out := dump.String()
	if !strings.Contains(out, "retry budget exhausted") {
		t.Fatalf("dump does not name the anomaly:\n%s", out)
	}
	if !strings.Contains(out, "seqs 0..2 abandoned") {
		t.Fatalf("dump does not name the abandoned seq range 0..2:\n%s", out)
	}
	if !strings.Contains(out, "arq.retry_exhausted") {
		t.Fatalf("dump does not show the arq.retry_exhausted event:\n%s", out)
	}
	if tr.Dumps() == 0 {
		t.Fatal("no automatic dump fired")
	}
}

// TestARQOverflowTraceEvents checks backlog-overflow abandonment records
// arq.overflow flight-recorder events alongside the QueueDrops counter.
func TestARQOverflowTraceEvents(t *testing.T) {
	tr := tracing.New(tracing.Config{Capacity: 64, Bounded: true})
	rec := tr.NewRecorder("dev-1", 1)
	l := newReliableLoop(t, ARQConfig{Window: 1, Queue: 2}, nil, nil)
	l.arq.SetTracer(rec)
	l.send(0, 1, 2, 3, 4, 5)
	l.run(5 * time.Second)

	st := l.arq.Stats()
	overflow := 0
	for _, e := range rec.Events() {
		if e.Hop() == tracing.HopArqOverflow {
			overflow++
		}
	}
	if overflow == 0 || uint64(overflow) != st.QueueDrops {
		t.Fatalf("arq.overflow events = %d, QueueDrops counter = %d — must match", overflow, st.QueueDrops)
	}
}

// TestLinkTraceDeliverAndDrop drives frames through a lossy Link and checks
// every frame lands in the recorder as exactly one link.deliver or
// link.drop, matching the link counters.
func TestLinkTraceDeliverAndDrop(t *testing.T) {
	tr := tracing.New(tracing.Config{Capacity: 4096, Bounded: true})
	rec := tr.NewRecorder("dev-1", 1)
	sched := sim.NewScheduler(sim.NewClock(0))
	delivered := 0
	link, err := NewLink(LinkConfig{LossProb: 0.3, Latency: time.Millisecond},
		sched, sim.NewRand(7), func([]byte, time.Duration) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	link.SetTracer(rec)
	const frames = 200
	for i := 0; i < frames; i++ {
		p := Message{Kind: MsgScroll, Device: 1, Seq: uint16(i)}.AppendBinary(nil)
		if _, err := link.SendTagged(p, PayloadV1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(sched.Clock().Now() + 5*time.Second); err != nil {
		t.Fatal(err)
	}

	st := link.Stats()
	var deliverEv, dropEv uint64
	for _, e := range rec.Events() {
		switch e.Hop() {
		case tracing.HopLinkDeliver:
			deliverEv++
		case tracing.HopLinkDrop:
			dropEv++
		}
	}
	if deliverEv != st.Delivered {
		t.Fatalf("link.deliver events = %d, Delivered counter = %d", deliverEv, st.Delivered)
	}
	if dropEv != st.Lost {
		t.Fatalf("link.drop events = %d, Lost counter = %d", dropEv, st.Lost)
	}
	if dropEv == 0 {
		t.Fatal("loss model produced no drops at 30% loss over 200 frames")
	}
}
