package core

import (
	"sync"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/rf"
)

func frame(t *testing.T, dev uint32, seq uint16, kind rf.MsgKind) []byte {
	t.Helper()
	m := rf.Message{Kind: kind, Device: dev, Seq: seq}
	b := m.AppendBinary(nil)
	return b
}

func TestHubDemuxByDevice(t *testing.T) {
	h := NewHub(true)
	var got1, got2 []Event
	h.Session(1).OnScroll(func(e Event) { got1 = append(got1, e) })
	h.Session(2).OnScroll(func(e Event) { got2 = append(got2, e) })

	// Interleave two devices' frames on the shared sink.
	h.Handle(frame(t, 1, 0, rf.MsgScroll), 10*time.Millisecond)
	h.Handle(frame(t, 2, 0, rf.MsgScroll), 11*time.Millisecond)
	h.Handle(frame(t, 1, 1, rf.MsgScroll), 12*time.Millisecond)
	h.Handle(frame(t, 2, 1, rf.MsgScroll), 13*time.Millisecond)
	h.Handle(frame(t, 1, 2, rf.MsgScroll), 14*time.Millisecond)

	if len(got1) != 3 || len(got2) != 2 {
		t.Fatalf("handler counts: dev1=%d dev2=%d", len(got1), len(got2))
	}
	for _, e := range got1 {
		if e.Device != 1 {
			t.Fatalf("device 1 event tagged %d", e.Device)
		}
	}
	st1, ok := h.DeviceStats(1)
	if !ok || st1.Events != 3 {
		t.Fatalf("dev1 stats: %+v ok=%v", st1, ok)
	}
	st2, ok := h.DeviceStats(2)
	if !ok || st2.Events != 2 {
		t.Fatalf("dev2 stats: %+v ok=%v", st2, ok)
	}
}

func TestHubAttributesSeqGapsPerDevice(t *testing.T) {
	h := NewHub(false)
	// Device 1 delivers a contiguous stream; device 2 loses three frames.
	// Interleaving must not cross-contaminate the sequence accounting.
	h.Handle(frame(t, 1, 0, rf.MsgHeartbeat), 0)
	h.Handle(frame(t, 2, 0, rf.MsgHeartbeat), 0)
	h.Handle(frame(t, 1, 1, rf.MsgHeartbeat), 0)
	h.Handle(frame(t, 2, 4, rf.MsgHeartbeat), 0) // seq 1..3 lost on air
	h.Handle(frame(t, 1, 2, rf.MsgHeartbeat), 0)

	st1, _ := h.DeviceStats(1)
	st2, _ := h.DeviceStats(2)
	if st1.MissedSeq != 0 {
		t.Fatalf("dev1 missed = %d, want 0", st1.MissedSeq)
	}
	if st2.MissedSeq != 3 {
		t.Fatalf("dev2 missed = %d, want 3", st2.MissedSeq)
	}
	agg := h.Stats()
	if agg.Devices != 2 || agg.MissedSeq != 3 || agg.Decoded != 5 {
		t.Fatalf("aggregate: %+v", agg)
	}
}

func TestHubRoutesLegacyV0FramesToDeviceZero(t *testing.T) {
	h := NewHub(true)
	m := rf.Message{Kind: rf.MsgScroll, Seq: 0, Index: 4}
	v0 := m.AppendBinary(nil)[5:] // v0 is the v1 layout without its magic + device header
	h.Handle(v0, 0)
	s, ok := h.Lookup(0)
	if !ok {
		t.Fatal("no session for legacy device 0")
	}
	evs := s.Events()
	if len(evs) != 1 || evs[0].Index != 4 || evs[0].Device != 0 {
		t.Fatalf("legacy events: %+v", evs)
	}
}

func TestHubCountsUndecodableFrames(t *testing.T) {
	h := NewHub(false)
	h.Handle([]byte{1, 2, 3}, 0)
	if st := h.Stats(); st.BadFrames != 1 || st.Devices != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHubAutoCreatesUnknownDevice(t *testing.T) {
	h := NewHub(false)
	h.Handle(frame(t, 77, 0, rf.MsgHeartbeat), 0)
	devs := h.Devices()
	if len(devs) != 1 || devs[0] != 77 {
		t.Fatalf("devices: %v", devs)
	}
}

func TestHubConcurrentHandleIsSafe(t *testing.T) {
	h := NewHub(true)
	const devices = 16
	const framesPerDevice = 200
	// Pre-register every device, and pre-marshal
	// the frames on the test goroutine (t.Fatal is not goroutine-safe).
	streams := make([][][]byte, devices)
	for id := uint32(1); id <= devices; id++ {
		h.Session(id)
		for seq := 0; seq < framesPerDevice; seq++ {
			streams[id-1] = append(streams[id-1], frame(t, id, uint16(seq), rf.MsgHeartbeat))
		}
	}
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func(stream [][]byte) {
			defer wg.Done()
			for seq, f := range stream {
				h.Handle(f, time.Duration(seq)*time.Millisecond)
			}
		}(stream)
	}
	wg.Wait()
	agg := h.Stats()
	if agg.Devices != devices || agg.Decoded != devices*framesPerDevice || agg.MissedSeq != 0 {
		t.Fatalf("aggregate: %+v", agg)
	}
	for _, id := range h.Devices() {
		st, _ := h.DeviceStats(id)
		if st.Events != framesPerDevice {
			t.Fatalf("device %d events = %d", id, st.Events)
		}
	}
}

// TestHubConsumeBatchMatchesSequentialConsume pins the batch drain path
// equivalent to message-at-a-time Consume: identical per-device accounting,
// sessions auto-created mid-batch, and the pre hook fired once per message
// with the session the message actually routed to.
func TestHubConsumeBatchMatchesSequentialConsume(t *testing.T) {
	mkBatch := func() []rf.Message {
		var ms []rf.Message
		// Interleave three devices, one of them (77) unknown until mid-batch,
		// with a seq gap on device 2 to exercise the loss accounting.
		for seq := uint16(0); seq < 4; seq++ {
			ms = append(ms, rf.Message{Kind: rf.MsgScroll, Device: 1, Seq: seq})
			if seq != 1 && seq != 2 { // device 2 drops seq 1..2
				ms = append(ms, rf.Message{Kind: rf.MsgHeartbeat, Device: 2, Seq: seq})
			}
			if seq >= 2 {
				ms = append(ms, rf.Message{Kind: rf.MsgScroll, Device: 77, Seq: seq - 2})
			}
		}
		return ms
	}

	batched, sequential := NewHub(false), NewHub(false)
	batched.Session(1) // device 1 known up front; 2 and 77 created on demand
	sequential.Session(1)

	var preCalls int
	ms := mkBatch()
	batched.ConsumeBatch(ms, 5*time.Millisecond, func(s *Session, m rf.Message) {
		if s == nil || s.Device() != m.Device {
			t.Errorf("pre hook: session %v for message device %d", s, m.Device)
		}
		preCalls++
	})
	for _, m := range mkBatch() {
		sequential.Consume(m, 5*time.Millisecond)
	}

	if preCalls != len(ms) {
		t.Fatalf("pre hook ran %d times for %d messages", preCalls, len(ms))
	}
	if got, want := batched.Stats(), sequential.Stats(); got != want {
		t.Fatalf("batch stats %+v, sequential %+v", got, want)
	}
	for _, id := range []uint32{1, 2, 77} {
		got, ok1 := batched.DeviceStats(id)
		want, ok2 := sequential.DeviceStats(id)
		if !ok1 || !ok2 || got != want {
			t.Fatalf("device %d: batch %+v (%v), sequential %+v (%v)", id, got, ok1, want, ok2)
		}
	}
	if st, _ := batched.DeviceStats(2); st.MissedSeq != 2 {
		t.Fatalf("device 2 missed = %d, want 2", st.MissedSeq)
	}
}

func TestPerDeviceStatsSorted(t *testing.T) {
	h := NewHub(false)
	h.Handle(frame(t, 9, 0, rf.MsgHeartbeat), 0)
	h.Handle(frame(t, 3, 0, rf.MsgHeartbeat), 0)
	ids, stats := h.PerDeviceStats()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("ids: %v", ids)
	}
	if stats[3].Decoded != 1 || stats[9].Decoded != 1 {
		t.Fatalf("stats: %v", stats)
	}
}
