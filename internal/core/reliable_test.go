package core

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/telemetry"
)

func consumeSeq(s *Session, seq uint16) {
	s.Consume(rf.Message{Kind: rf.MsgScroll, Device: 1, Seq: seq}, 0)
}

// TestSessionReliableInOrder checks the common path: in-order frames are all
// admitted and each one is answered with a cumulative ack.
func TestSessionReliableInOrder(t *testing.T) {
	s := NewSession(1, false)
	var acks []uint16
	s.EnableReliable(func(cum uint16) { acks = append(acks, cum) })
	for seq := uint16(0); seq < 4; seq++ {
		consumeSeq(s, seq)
	}
	st := s.Stats()
	if st.Events != 4 || st.MissedSeq != 0 || st.Stale != 0 || st.AheadDrops != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(acks) != 4 || acks[0] != 0 || acks[3] != 3 {
		t.Fatalf("acks: %v", acks)
	}
}

// TestSessionReliableStaleAhead walks the two drop paths: ahead-of-sequence
// frames are deferred no matter how often they repeat — go-back-N can lose
// the window base twice while a later frame survives twice, so repetition
// proves nothing about the sender's base — and a late retransmit of an
// admitted frame is dropped as stale, with every frame re-acked either way.
func TestSessionReliableStaleAhead(t *testing.T) {
	s := NewSession(1, false)
	var acks []uint16
	s.EnableReliable(func(cum uint16) { acks = append(acks, cum) })

	consumeSeq(s, 0) // admitted, ack 0
	consumeSeq(s, 2) // ahead of awaited 1: deferred, re-ack 0
	consumeSeq(s, 2) // the same ahead frame again: still deferred, no guessing
	st := s.Stats()
	if st.AheadDrops != 2 || st.Resyncs != 0 || st.MissedSeq != 0 || st.Events != 1 {
		t.Fatalf("after repeated ahead frame: %+v", st)
	}
	if acks[len(acks)-1] != 0 {
		t.Fatalf("ahead frames not re-acked at 0: %v", acks)
	}

	// The missing frame finally gets through; the stream resumes losslessly.
	consumeSeq(s, 1)
	consumeSeq(s, 2)
	if st := s.Stats(); st.Events != 3 || st.MissedSeq != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	if acks[len(acks)-1] != 2 {
		t.Fatalf("recovery not acked at 2: %v", acks)
	}

	// A late retransmit of an already-admitted frame is stale.
	consumeSeq(s, 1)
	st = s.Stats()
	if st.Stale != 1 || st.Events != 3 {
		t.Fatalf("after stale frame: %+v", st)
	}
	if acks[len(acks)-1] != 2 {
		t.Fatalf("stale frame not re-acked at 2: %v", acks)
	}
}

func consumeSkip(s *Session, last, count uint16) {
	s.Consume(rf.Message{Kind: rf.MsgSkip, Device: 1, Seq: last, Index: int16(count)}, 0)
}

// TestSessionReliableSkipAdmission covers the sender abandonment notice: an
// in-range MsgSkip advances the stream past the hole with an exact loss
// count and no event, a retransmitted notice is stale, a notice ahead of
// sequence is deferred, and malformed counts are rejected.
func TestSessionReliableSkipAdmission(t *testing.T) {
	s := NewSession(1, false)
	var acks []uint16
	s.EnableReliable(func(cum uint16) { acks = append(acks, cum) })

	consumeSeq(s, 0) // admitted, ack 0

	// The sender abandoned seqs 1..3.
	consumeSkip(s, 3, 3)
	st := s.Stats()
	if st.Resyncs != 1 || st.MissedSeq != 3 || st.Events != 1 {
		t.Fatalf("after skip: %+v", st)
	}
	if acks[len(acks)-1] != 3 {
		t.Fatalf("skip not acked at 3: %v", acks)
	}

	// A retransmitted copy of the same notice is stale.
	consumeSkip(s, 3, 3)
	if st := s.Stats(); st.Stale != 1 || st.Resyncs != 1 || st.MissedSeq != 3 {
		t.Fatalf("after stale skip: %+v", st)
	}

	// A notice whose range starts beyond the awaited position (frame 4 is
	// still in flight) is deferred like any ahead frame.
	consumeSkip(s, 6, 2) // covers 5..6, awaited is 4
	if st := s.Stats(); st.AheadDrops != 1 || st.MissedSeq != 3 {
		t.Fatalf("after ahead skip: %+v", st)
	}
	if acks[len(acks)-1] != 3 {
		t.Fatalf("ahead skip not re-acked at 3: %v", acks)
	}

	// Counts no wrapping comparison can place are rejected outright.
	consumeSkip(s, 10, 0)
	consumeSkip(s, 10, 0x8000)
	if st := s.Stats(); st.BadFrames != 2 || st.MissedSeq != 3 {
		t.Fatalf("after malformed skips: %+v", st)
	}

	// The stream resumes in order right after the admitted hole.
	consumeSeq(s, 4)
	if st := s.Stats(); st.Events != 2 || st.MissedSeq != 3 {
		t.Fatalf("after resume: %+v", st)
	}
}

// TestSessionReliableInitialReAck checks the edge before any frame is
// admitted: a dropped first frame re-acks 0xFFFF, the wrapping "nothing
// acked yet" position, which no in-flight frame matches.
func TestSessionReliableInitialReAck(t *testing.T) {
	s := NewSession(1, false)
	var acks []uint16
	s.EnableReliable(func(cum uint16) { acks = append(acks, cum) })
	consumeSeq(s, 5) // ahead of awaited 0
	if len(acks) != 1 || acks[0] != 0xFFFF {
		t.Fatalf("initial re-ack: %v", acks)
	}
	if st := s.Stats(); st.Events != 0 || st.AheadDrops != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSessionNoReorderOnJitteryLink is the regression test for
// jitter-induced reordering at the system level: a single well-formed,
// loss-free link with jitter far wider than the frame spacing must deliver
// in order, so the legacy session accounting sees no reordering and no gaps.
func TestSessionNoReorderOnJitteryLink(t *testing.T) {
	cfg := rf.LinkConfig{Latency: 4 * time.Millisecond, Jitter: 40 * time.Millisecond, BitrateBPS: 19200}
	sched := sim.NewScheduler(sim.NewClock(0))
	s := NewSession(1, false)
	link, err := rf.NewLink(cfg, sched, sim.NewRand(13), s.Handle)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for seq := uint16(0); seq < n; seq++ {
		p := rf.Message{Kind: rf.MsgScroll, Device: 1, Seq: seq}.AppendBinary(nil)
		if _, err := link.SendTagged(p, rf.PayloadV1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Events != n {
		t.Fatalf("events %d, want %d", st.Events, n)
	}
	if st.Reordered != 0 || st.MissedSeq != 0 || st.Duplicates != 0 {
		t.Fatalf("jitter perturbed the stream: %+v", st)
	}
}

// TestDeviceReliableSingle runs the classic single-device wiring with
// reliability enabled on a lossy link: the device's own host emits the acks
// and the event stream must arrive gapless.
func TestDeviceReliableSingle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 21
	cfg.Link.LossProb = 0.05
	cfg.Link.BurstLossProb = 0.01
	cfg.Link.BurstLossLen = 3
	cfg.Link.AckLossProb = 0.05
	cfg.Reliable = true
	dev, err := NewDevice(cfg, menu.FlatMenu(12))
	if err != nil {
		t.Fatal(err)
	}
	if dev.ARQ == nil || dev.Reverse == nil {
		t.Fatal("reliable assembly missing ARQ or reverse link")
	}
	if err := dev.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	dev.GlideTo(25, 400*time.Millisecond)
	if err := dev.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	dev.GlideTo(6, 400*time.Millisecond)
	if err := dev.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Stop()
	for i := 0; i < 40 && dev.ARQ.Outstanding() > 0; i++ {
		if err := dev.Run(250 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if dev.ARQ.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", dev.ARQ.Outstanding())
	}
	st := dev.Host.Stats()
	if st.MissedSeq != 0 {
		t.Fatalf("gaps under ARQ: %+v", st)
	}
	if st.Events == 0 {
		t.Fatal("no events delivered")
	}
	if lost := dev.Link.Stats().Lost; lost == 0 {
		t.Fatal("lossy config lost nothing — test exercises no repair")
	}
	if dev.ARQ.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions on a lossy link")
	}
}

// TestDeviceReliableAckMetricNames pins where a reliable device publishes
// its two links' counters: the ack link under rf_acks_*, exactly its own
// stats, and the forward link alone under rf_frames_* — the ack link is an
// rf.Link too, and its acks must never inflate the telemetry frame counts.
func TestDeviceReliableAckMetricNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Link.LossProb = 0.05
	cfg.Link.AckLossProb = 0.2
	cfg.Reliable = true
	cfg.Metrics = telemetry.New()
	dev, err := NewDevice(cfg, menu.FlatMenu(12))
	if err != nil {
		t.Fatal(err)
	}
	dev.GlideTo(25, 400*time.Millisecond)
	if err := dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	dev.Stop()
	if err := dev.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	acks, fwd := dev.Reverse.Stats(), dev.Link.Stats()
	if acks.Sent == 0 || acks.Lost == 0 || acks.Delivered == 0 {
		t.Fatalf("ack link not exercised: %+v", acks)
	}
	for name, want := range map[string]uint64{
		telemetry.MetricRFAcksSent:      acks.Sent,
		telemetry.MetricRFAcksLost:      acks.Lost,
		telemetry.MetricRFAcksDelivered: acks.Delivered,
		telemetry.MetricRFSent:          fwd.Sent,
		telemetry.MetricRFDelivered:     fwd.Delivered,
		telemetry.MetricRFLost:          fwd.Lost,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
