package rf

import (
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/tracing"
)

// These are the regression tests for the ARQ bugfix sweep: each pins a bug
// that previously stalled the reliable stream (a phantom gap the receiver
// waits on forever) or corrupted the post-mortem record.

// TestARQRetryExhaustionAcrossWrap abandons a retry-exhausted window that
// straddles the 0xFFFF→0 sequence wrap. The receiver must advance past the
// hole with zero phantom gaps, and the anomaly dump must report the true
// (wrapping) span instead of an inverted range: before the fix the span was
// computed in non-wrapping arithmetic, so a window of four frames at the
// wrap reported a span of -65532.
func TestARQRetryExhaustionAcrossWrap(t *testing.T) {
	var dump strings.Builder
	tr := tracing.New(tracing.Config{Capacity: 128, Bounded: true, DumpTo: &dump})
	rec := tr.NewRecorder("dev-1", 1)

	// Dead through the four data frames' whole budget (4 frames × 3
	// attempts), then healed so the skip fillers get through.
	drop := make(map[int]bool)
	for i := 0; i < 12; i++ {
		drop[i] = true
	}
	l := newReliableLoop(t, ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond, MaxRTO: 20 * time.Millisecond}, drop, nil)
	l.arq.SetTracer(rec)
	l.await = 0xFFFE
	l.send(0xFFFE, 0xFFFF, 0, 1)
	l.run(10 * time.Second)

	if st := l.arq.Stats(); st.RetryDrops != 4 {
		t.Fatalf("retry drops %d, want 4", st.RetryDrops)
	}
	if l.skipped != 4 {
		t.Fatalf("receiver skipped %d seqs across the wrap, want 4", l.skipped)
	}
	if l.await != 2 {
		t.Fatalf("receiver awaits seq %d, want 2 (past the wrapped hole)", l.await)
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.arq.Outstanding())
	}
	// The stream is live again on the far side of the wrap.
	l.send(2)
	l.run(time.Second)
	if len(l.got) != 1 || l.got[0] != 2 {
		t.Fatalf("received %v after recovery, want [2]", l.got)
	}
	out := dump.String()
	if !strings.Contains(out, "seqs 65534..1 abandoned (span 4)") {
		t.Fatalf("anomaly dump does not report the wrapping span 65534..1 (span 4):\n%s", out)
	}
}

// TestARQSkipClampNoLivelock floods a tiny backlog with more abandonments
// than one MsgSkip notice can represent (Index is int16, so a filler clamps
// at 0x7fff covered seqs). Before the fix, widening a clamped filler slid
// its end seq forward while the count stayed put, silently shrinking the
// announced range from the front — the receiver classified the notice as
// ahead of its cursor and stalled forever. The fixed merge leaves maxed
// fillers immutable and continues collapsing behind them, so the receiver
// must drain the entire 33k-seq stream.
func TestARQSkipClampNoLivelock(t *testing.T) {
	// Ideal channel; window 1 serialises delivery, so every send after the
	// first lands in the 2-slot queue before anything is acked and the
	// drop-oldest policy does all the collapsing synchronously.
	const total = 33_000 // > 0x7fff + window + queue: forces a second filler
	l := newReliableLoop(t, ARQConfig{Window: 1, Queue: 2}, nil, nil)
	for seq := 0; seq < total; seq++ {
		p := Message{Kind: MsgScroll, Device: 1, Seq: uint16(seq)}.AppendBinary(nil)
		if _, err := l.arq.SendTagged(p, PayloadV1); err != nil {
			t.Fatal(err)
		}
	}
	l.run(time.Minute)

	st := l.arq.Stats()
	if st.QueueDrops <= 0x7fff {
		t.Fatalf("queue drops %d, want > 32767 — the clamp never engaged", st.QueueDrops)
	}
	if l.skipped != st.QueueDrops {
		t.Fatalf("receiver skipped %d seqs, sender abandoned %d — the stream has a phantom gap", l.skipped, st.QueueDrops)
	}
	if got := l.skipped + uint64(len(l.got)); got != total {
		t.Fatalf("receiver accounted for %d of %d seqs", got, total)
	}
	if l.await != uint16(total) {
		t.Fatalf("receiver awaits seq %d, want %d — it stalled mid-stream", l.await, uint16(total))
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", l.arq.Outstanding())
	}
}

// TestARQAdversarialPayloadSkip abandons a payload that PayloadSeq can
// sequence but Message.Decode rejects: a v0-length payload whose first byte
// happens to be the v1 version magic. Before the fix, converting such a
// frame into a skip filler re-parsed the payload, failed, and silently
// dropped the seq — a phantom gap the receiver waited on forever. The fix
// captures the device id at enqueue, so the filler is built unconditionally.
func TestARQAdversarialPayloadSkip(t *testing.T) {
	// 15 bytes (v0 length) starting with 0xD5: VersionOf classifies it v0
	// (too short for v1), so PayloadSeq reads a valid seq 0 from bytes 1..2,
	// but Decode refuses it (magic byte with a short body).
	adversarial := make([]byte, msgLenV0)
	adversarial[0] = verMagicV1
	var m Message
	if m.Decode(adversarial) {
		t.Fatal("adversarial payload unexpectedly decodes; the test premise is gone")
	}
	if seq, ok := PayloadSeq(adversarial); !ok || seq != 0 {
		t.Fatalf("PayloadSeq = %d,%v, want 0,true", seq, ok)
	}

	// Dead through the adversarial frame's whole budget, then healed.
	drop := map[int]bool{0: true, 1: true, 2: true}
	l := newReliableLoop(t, ARQConfig{MaxRetries: 3, RTO: 10 * time.Millisecond, MaxRTO: 20 * time.Millisecond}, drop, nil)
	if _, err := l.arq.SendTagged(adversarial, PayloadV0); err != nil {
		t.Fatal(err)
	}
	l.run(5 * time.Second)

	if st := l.arq.Stats(); st.RetryDrops != 1 {
		t.Fatalf("retry drops %d, want 1", st.RetryDrops)
	}
	if l.skipped != 1 {
		t.Fatalf("receiver skipped %d seqs, want 1 — the abandoned seq was never announced", l.skipped)
	}
	if l.arq.Outstanding() != 0 {
		t.Fatalf("outstanding %d: the unparseable frame is stuck in the window", l.arq.Outstanding())
	}
	// Seq 0's hole is closed; the well-formed successors flow normally.
	l.send(1, 2)
	l.run(time.Second)
	if len(l.got) != 2 || l.got[0] != 1 || l.got[1] != 2 {
		t.Fatalf("received %v after recovery, want [1 2]", l.got)
	}
}

// TestARQSkipFillerPreservesVersion checks an abandoned v0 payload is
// announced with a v0 skip notice (and v1 with v1): the filler must stay in
// the stream's wire dialect or a legacy receiver cannot parse its own loss
// notice.
func TestARQSkipFillerPreservesVersion(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	var frames [][]byte
	tx := &scriptTx{sched: sched, sink: func(p []byte, _ time.Duration) {
		frames = append(frames, append([]byte(nil), p...))
	}}
	// Window 1, queue 1: the second send overflows immediately.
	arq, err := NewARQ(ARQConfig{Window: 1, Queue: 1}, sched, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		p := v0Payload(Message{Kind: MsgScroll, Device: 0, Seq: uint16(seq)})
		if _, err := arq.SendTagged(p, PayloadV0); err != nil {
			t.Fatal(err)
		}
	}
	if arq.Stats().QueueDrops == 0 {
		t.Fatal("no overflow; the filler was never built")
	}
	// Ack the in-flight seq 0 so the backlog (filler first) promotes onto
	// the wire, then drain the deliveries.
	ack := Message{Kind: MsgAck, Device: 0, Seq: 0}.AppendBinary(nil)
	arq.HandleAck(ack, sched.Clock().Now())
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, p := range frames {
		var m Message
		if !m.Decode(p) {
			t.Fatalf("undecodable frame on the wire: % x", p)
		}
		if m.Kind != MsgSkip {
			continue
		}
		skips++
		if VersionOf(p) != PayloadV0 {
			t.Fatalf("v0 stream's skip filler went out as version %d", VersionOf(p))
		}
	}
	if skips == 0 {
		t.Fatal("no skip filler transmitted")
	}
}
