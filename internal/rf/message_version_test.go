package rf

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/hcilab/distscroll/internal/sim"
)

// realKind maps an arbitrary byte onto the firmware's kind range so
// property inputs look like real telemetry (a v0 first byte is always a
// small kind value, never the v1 magic).
func realKind(b byte) MsgKind { return MsgKind(b%5) + MsgScroll }

// v0Payload encodes m in the legacy v0 layout: its v1 encoding without the
// 5-byte header (magic + device id).
func v0Payload(m Message) []byte { return m.AppendBinary(nil)[msgLenV1-msgLenV0:] }

func TestMessageV1RoundTripCarriesDevice(t *testing.T) {
	f := func(kind byte, dev uint32, seq uint16, at uint32, idx int16, mv uint16, isle int16, btn, ctx byte) bool {
		m := Message{
			Kind: realKind(kind), Device: dev, Seq: seq, AtMillis: at,
			Index: idx, VoltageMV: mv, Island: isle, Button: btn, Context: ctx,
		}
		data := m.AppendBinary(nil)
		if len(data) != msgLenV1 || data[0] != verMagicV1 {
			return false
		}
		var back Message
		return back.Decode(data) && back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageV0BackCompatDecode(t *testing.T) {
	f := func(kind byte, seq uint16, at uint32, idx int16, mv uint16, isle int16, btn, ctx byte) bool {
		m := Message{
			Kind: realKind(kind), Seq: seq, AtMillis: at,
			Index: idx, VoltageMV: mv, Island: isle, Button: btn, Context: ctx,
		}
		data := v0Payload(m)
		if len(data) != msgLenV0 {
			return false
		}
		var back Message
		if !back.Decode(data) {
			return false
		}
		// A legacy frame carries no device id: it must decode to device 0
		// even if the decoder previously saw a v1 frame.
		return back == m && back.Device == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageV0DecodeResetsStaleDevice(t *testing.T) {
	v1 := Message{Kind: MsgScroll, Device: 42, Seq: 7}
	data1 := v1.AppendBinary(nil)
	v0 := Message{Kind: MsgHeartbeat, Seq: 8}
	data0 := v0Payload(v0)
	var m Message
	if !m.Decode(data1) {
		t.Fatal("v1 payload rejected")
	}
	if m.Device != 42 {
		t.Fatalf("device = %d, want 42", m.Device)
	}
	if !m.Decode(data0) {
		t.Fatal("v0 payload rejected")
	}
	if m.Device != 0 {
		t.Fatalf("v0 decode kept stale device %d", m.Device)
	}
}

func TestMessageTruncatedPayloads(t *testing.T) {
	m := Message{Kind: MsgScroll, Device: 9, Seq: 3}
	v1 := m.AppendBinary(nil)
	v0 := v0Payload(m)
	cases := [][]byte{
		nil,
		{},
		v1[:1],          // just the magic
		v1[:msgLenV1-1], // one byte short of a v1 frame
		v0[:msgLenV0-1], // one byte short of a v0 frame
		{verMagicV1, 1, 2},
	}
	for i, data := range cases {
		var back Message
		if back.Decode(data) {
			t.Fatalf("case %d (%d bytes): truncated payload decoded", i, len(data))
		}
	}
}

// TestIdealLinkValidation checks that the ideal channel (nil rng, zero
// jitter) still refuses a missing scheduler or sink and a negative latency
// or jitter.
func TestIdealLinkValidation(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	sink := func([]byte, time.Duration) {}
	if _, err := NewLink(LinkConfig{}, nil, nil, sink); err == nil {
		t.Fatal("want scheduler error")
	}
	if _, err := NewLink(LinkConfig{}, sched, nil, nil); err == nil {
		t.Fatal("want sink error")
	}
	if _, err := NewLink(LinkConfig{Latency: -time.Millisecond}, sched, nil, sink); err == nil {
		t.Fatal("want latency error")
	}
	if _, err := NewLink(LinkConfig{Jitter: -time.Millisecond}, sched, nil, sink); err == nil {
		t.Fatal("want jitter error")
	}
}

// TestIdealLinkDeliversLosslessly runs a Link with a nil rng and zero
// jitter — the ideal in-process channel — and checks every payload arrives
// intact, in order, after exactly the configured latency.
func TestIdealLinkDeliversLosslessly(t *testing.T) {
	sched := sim.NewScheduler(sim.NewClock(0))
	var got [][]byte
	var arrivals []time.Duration
	link, err := NewLink(LinkConfig{Latency: 3 * time.Millisecond}, sched, nil, func(p []byte, at time.Duration) {
		got = append(got, append([]byte(nil), p...))
		arrivals = append(arrivals, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "bb", "ccc"} {
		if _, err := link.Send([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "a" || string(got[2]) != "ccc" {
		t.Fatalf("rx = %q", got)
	}
	for _, at := range arrivals {
		if at != 3*time.Millisecond {
			t.Fatalf("arrivals %v, want all at 3ms", arrivals)
		}
	}
	st := link.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Lost != 0 || st.Corrupted != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
