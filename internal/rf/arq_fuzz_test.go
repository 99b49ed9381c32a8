package rf

import (
	"testing"
	"time"
)

// FuzzARQReliableLoop drives the full ack/skip loop (reliableLoop: ARQ →
// scripted lossy channel → in-order receiver → ack Link → ARQ.HandleAck)
// with fuzzed sizes and faults:
//
//   - base is the first sequence number, so a run may straddle 0xFFFF→0;
//   - n (1..64) frames are sent back to back into a window of 1..8 and a
//     backlog of 1..8, so the drop-oldest policy collapses overflow into
//     skip fillers;
//   - retries picks MaxRetries 0..3 (0 retries forever);
//   - dataMask and ackMask drop the i-th data transmission and the i-th ack
//     (bit i%64) until heal transmissions of each have happened, after which
//     the channel is clean;
//   - garbage is cut into payloads (a length byte, then that many bytes)
//     that are fed to HandleAck while the first window is in flight, and
//     again once the loop has drained.
//
// After the heal and the drain: nothing is outstanding, the receiver awaits
// base+n, every seq was either received (strictly increasing in wrapping
// order) or skipped, and skips never exceed the sender's abandonments. The
// window bound is checked on every transmission. A garbage payload that is
// a well-formed MsgAck for a frame in flight is an ack the sender cannot
// tell from the receiver's own, so such a run checks only the safety
// invariants. Finally one fresh frame must still get through or be
// announced.
//
// The seed corpus in testdata/fuzz covers a run straddling the wrap, a
// channel that drops everything then heals, backlog overflow, retrying
// forever through a long outage, and garbage acks.
func FuzzARQReliableLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, base uint16, n, window, queue, retries, heal uint8, dataMask, ackMask uint64, garbage []byte) {
		cfg := ARQConfig{
			Window: 1 + int(window%8), Queue: 1 + int(queue%8), MaxRetries: int(retries % 4),
			RTO: 10 * time.Millisecond, MaxRTO: 40 * time.Millisecond,
		}
		sends := 1 + int(n%64)
		drop, dropAcks := map[int]bool{}, map[int]bool{}
		for i := 0; i < int(heal); i++ {
			drop[i] = dataMask>>(i%64)&1 == 1
			dropAcks[i] = ackMask>>(i%64)&1 == 1
		}
		l := newReliableLoop(t, cfg, drop, dropAcks)
		l.await = base
		l.tx.onSend = func() {
			if len(l.arq.inflight) > cfg.Window {
				t.Fatalf("%d frames in flight, window %d", len(l.arq.inflight), cfg.Window)
			}
		}
		for i := 0; i < sends; i++ {
			l.send(base + uint16(i))
		}

		forged := false
		feedGarbage := func() {
			for g := garbage; len(g) > 0; {
				k := min(len(g)-1, int(g[0])%(msgLenV1+2))
				p := g[1 : 1+k]
				g = g[1+k:]
				var m Message
				if in := l.arq.inflight; len(in) > 0 && m.Decode(p) && m.Kind == MsgAck &&
					seqLE(in[0].seq, m.Seq) && seqLE(m.Seq, in[len(in)-1].seq) {
					forged = true
				}
				l.arq.HandleAck(p, l.sched.Clock().Now())
			}
		}
		feedGarbage()
		l.run(2 * time.Minute)

		for i := 1; i < len(l.got); i++ {
			if l.got[i]-base <= l.got[i-1]-base {
				t.Fatalf("received %v from base %d: not increasing", l.got, base)
			}
		}
		if len(l.got) > 0 && int(l.got[len(l.got)-1]-base) >= sends {
			t.Fatalf("received seq %d beyond the %d sent from %d", l.got[len(l.got)-1], sends, base)
		}
		st := l.arq.Stats()
		if l.skipped > st.QueueDrops+st.RetryDrops {
			t.Fatalf("receiver skipped %d seqs, sender abandoned %d+%d", l.skipped, st.QueueDrops, st.RetryDrops)
		}
		if forged {
			return
		}
		if o := l.arq.Outstanding(); o != 0 {
			t.Fatalf("%d frames outstanding after the channel healed (%+v)", o, st)
		}
		if want := base + uint16(sends); l.await != want {
			t.Fatalf("receiver awaits %d, want %d", l.await, want)
		}
		if got := uint64(len(l.got)) + l.skipped; got != uint64(sends) {
			t.Fatalf("received %d + skipped %d, sent %d", len(l.got), l.skipped, sends)
		}

		// Garbage on an idle ack channel changes nothing: the stream stays
		// live, and the next frame is received — or, while the channel has
		// not healed yet and retries are bounded, announced as skipped.
		feedGarbage()
		l.send(base + uint16(sends))
		l.run(2 * time.Minute)
		if want := base + uint16(sends) + 1; l.await != want || l.arq.Outstanding() != 0 {
			t.Fatalf("fresh frame after the drain: receiver awaits %d, want %d; %d outstanding",
				l.await, want, l.arq.Outstanding())
		}
	})
}
