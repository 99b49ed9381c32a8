package rf

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// TestLinkMeanDelayIsLatency is the regression test for the jitter-centring
// fix: the per-frame delay used to be Latency + Uniform(0, 2*Jitter), whose
// mean is Latency + Jitter — contradicting the documented model. Jitter is
// now centred on Latency, so the empirical mean delay must match Latency.
func TestLinkMeanDelayIsLatency(t *testing.T) {
	cfg := LinkConfig{Latency: 4 * time.Millisecond, Jitter: 2 * time.Millisecond}
	sched := sim.NewScheduler(sim.NewClock(0))
	link, err := NewLink(cfg, sched, sim.NewRand(7), func([]byte, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	// Space the sends far enough apart that the FIFO arrival clamp never
	// binds; each delay sample is then an independent jitter draw.
	const n = 3000
	const spacing = 10 * time.Millisecond
	var sum time.Duration
	for i := 0; i < n; i++ {
		if err := sched.Run(time.Duration(i) * spacing); err != nil {
			t.Fatal(err)
		}
		now := sched.Clock().Now()
		arrive, err := link.Send([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		sum += arrive - now
	}
	mean := sum / n
	// The standard error over 3000 uniform ±2 ms draws is ~21 µs; a 200 µs
	// tolerance is far outside noise but catches the old +Jitter bias (2 ms).
	if diff := mean - cfg.Latency; diff < -200*time.Microsecond || diff > 200*time.Microsecond {
		t.Fatalf("mean delay %v, want %v ± 200µs", mean, cfg.Latency)
	}
}

// TestLinkArrivalsMonotonic is the regression test for jitter-induced
// reordering: back-to-back frames whose later send draws a smaller jitter
// must not overtake earlier ones — per-link delivery is FIFO.
func TestLinkArrivalsMonotonic(t *testing.T) {
	// Jitter far wider than the ~13 ms on-air frame time, so without the
	// arrival clamp adjacent frames would routinely swap.
	cfg := LinkConfig{Latency: 4 * time.Millisecond, Jitter: 40 * time.Millisecond, BitrateBPS: 19200}
	sched := sim.NewScheduler(sim.NewClock(0))
	var arrivals []time.Duration
	link, err := NewLink(cfg, sched, sim.NewRand(3), func(_ []byte, at time.Duration) {
		arrivals = append(arrivals, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := link.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != n {
		t.Fatalf("delivered %d of %d", len(arrivals), n)
	}
	for i := 1; i < n; i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatalf("arrival %d (%v) before arrival %d (%v)", i, arrivals[i], i-1, arrivals[i-1])
		}
	}
}

// TestSentVersionSplitAdversarialV0 is the regression test for the version
// sniffing bug: the v0/v1 sent split used to trust payload[0] == magic, so a
// legacy v0 payload whose kind byte happened to be 0xD5 was miscounted as
// v1. VersionOf now also requires the v1 length, and version-aware senders
// tag explicitly.
func TestSentVersionSplitAdversarialV0(t *testing.T) {
	link, sched, _ := newTestLink(t, LinkConfig{}, nil)
	adversarial := v0Payload(Message{Kind: MsgKind(verMagicV1), Seq: 9})
	if adversarial[0] != verMagicV1 {
		t.Fatal("test payload does not start with the magic byte")
	}
	if _, err := link.Send(adversarial); err != nil {
		t.Fatal(err)
	}
	v1 := Message{Kind: MsgScroll, Device: 2}.AppendBinary(nil)
	if _, err := link.SendTagged(v1, PayloadV1); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.SentV0 != 1 || st.SentV1 != 1 {
		t.Fatalf("version split v0=%d v1=%d, want 1/1", st.SentV0, st.SentV1)
	}
}

func TestVersionOfAndPayloadSeq(t *testing.T) {
	v1 := Message{Kind: MsgScroll, Device: 7, Seq: 0x1234}.AppendBinary(nil)
	if VersionOf(v1) != PayloadV1 {
		t.Fatal("v1 payload not recognised")
	}
	if seq, ok := PayloadSeq(v1); !ok || seq != 0x1234 {
		t.Fatalf("v1 seq = %#x, %v", seq, ok)
	}
	v0 := v0Payload(Message{Kind: MsgSelect, Seq: 0xBEEF})
	if VersionOf(v0) != PayloadV0 {
		t.Fatal("v0 payload not recognised")
	}
	if seq, ok := PayloadSeq(v0); !ok || seq != 0xBEEF {
		t.Fatalf("v0 seq = %#x, %v", seq, ok)
	}
	// A v0 payload starting with the magic byte must still be v0: it is too
	// short to be a v1 payload.
	adv := v0Payload(Message{Kind: MsgKind(verMagicV1), Seq: 0x0102})
	if VersionOf(adv) != PayloadV0 {
		t.Fatal("adversarial v0 payload misclassified as v1")
	}
	if seq, ok := PayloadSeq(adv); !ok || seq != 0x0102 {
		t.Fatalf("adversarial v0 seq = %#x, %v", seq, ok)
	}
	if _, ok := PayloadSeq([]byte{1, 2}); ok {
		t.Fatal("seq extracted from a payload too short to carry one")
	}
}

// TestLinkBurstLoss exercises the burst fault model: a burst drops exactly
// BurstLossLen consecutive frames and the drops are accounted as both Lost
// and BurstLost.
func TestLinkBurstLoss(t *testing.T) {
	cfg := LinkConfig{BurstLossProb: 0.02, BurstLossLen: 5}
	link, sched, rx := newTestLink(t, cfg, sim.NewRand(11))
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := link.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.BurstLost == 0 {
		t.Fatal("no burst losses recorded")
	}
	if st.BurstLost != st.Lost {
		t.Fatalf("burst-only config: BurstLost %d != Lost %d", st.BurstLost, st.Lost)
	}
	if st.BurstLost%uint64(cfg.BurstLossLen) != 0 {
		t.Fatalf("burst losses %d not a multiple of the burst length %d", st.BurstLost, cfg.BurstLossLen)
	}
	if got := uint64(len(*rx)) + st.Lost; got != n {
		t.Fatalf("accounting: delivered %d + lost %d != %d", len(*rx), st.Lost, n)
	}
}

func TestLinkValidatesFaultProbabilities(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	sink := func([]byte, time.Duration) {}
	if _, err := NewLink(LinkConfig{BurstLossProb: 1.5}, sched, nil, sink); err == nil {
		t.Fatal("want burst probability error")
	}
	if _, err := NewLink(LinkConfig{AckLossProb: -0.1}, sched, nil, sink); err == nil {
		t.Fatal("want ack loss probability error")
	}
}

// TestLinkSendFromDeliveryCallback re-sends on a link from inside its own
// delivery callback, the way an ARQ retransmit or an ack answer can. The
// inflight queue pops a frame before the decoder calls back, and the
// decoder copies the frame first, so the re-send may reuse or compact the
// popped bytes: every payload must still arrive intact and in order, and
// the queue must stay bounded by what is on the air.
func TestLinkSendFromDeliveryCallback(t *testing.T) {
	const total = 500
	payloadOf := func(i int) []byte {
		p := make([]byte, 1+i%40)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	sched := sim.NewScheduler(sim.NewClock(0))
	var link *Link
	next, got := 0, 0
	send := func() {
		if _, err := link.Send(payloadOf(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	var err error
	link, err = NewLink(LinkConfig{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, BitrateBPS: 19_200},
		sched, sim.NewRand(11), func(p []byte, _ time.Duration) {
			if want := payloadOf(got); string(p) != string(want) {
				t.Fatalf("delivery %d: % x, want % x", got, p, want)
			}
			got++
			if next < total {
				send()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // keep several frames on the air at once
		send()
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("delivered %d of %d", got, total)
	}
	if st := link.Stats(); st.Sent != total || st.Delivered != total {
		t.Fatalf("stats: %+v", st)
	}
	// At most four frames of at most 45 bytes are ever queued; compaction
	// keeps the buffer near that instead of growing with the stream.
	if c := cap(link.inflight); c > 4*(40+Overhead)*2 {
		t.Fatalf("inflight buffer grew to %d bytes", c)
	}
	if len(link.inflight) != 0 || link.head != 0 {
		t.Fatalf("drained link still holds %d bytes at head %d", len(link.inflight), link.head)
	}
}
