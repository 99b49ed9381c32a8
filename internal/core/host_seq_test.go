package core

import (
	"testing"

	"github.com/hcilab/distscroll/internal/rf"
)

// feed pushes a heartbeat with the given sequence number through the host.
func feed(t *testing.T, h *Host, seq uint16) {
	t.Helper()
	m := rf.Message{Kind: rf.MsgHeartbeat, Seq: seq}
	b := m.AppendBinary(nil)
	h.Handle(b, 0)
}

func TestHostSeqWrapWithoutLoss(t *testing.T) {
	h := NewHost(false)
	// A contiguous stream across the uint16 wrap must not count any loss:
	// 0xFFFE → 0xFFFF → 0x0000 → 0x0001.
	for _, seq := range []uint16{0xFFFE, 0xFFFF, 0x0000, 0x0001} {
		feed(t, h, seq)
	}
	if st := h.Stats(); st.MissedSeq != 0 || st.Decoded != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHostSeqGapAcrossWrap(t *testing.T) {
	h := NewHost(false)
	// 0xFFFF followed by 0x0002 skips 0x0000 and 0x0001: the wrapping
	// difference is 3, so 2 frames were lost on air.
	feed(t, h, 0xFFFF)
	feed(t, h, 0x0002)
	if got := h.Stats().MissedSeq; got != 2 {
		t.Fatalf("missed = %d, want 2", got)
	}
}

func TestHostSeqDuplicateNotCountedAsLoss(t *testing.T) {
	h := NewHost(false)
	feed(t, h, 5)
	feed(t, h, 5) // duplicate: gap == 0
	st := h.Stats()
	if st.MissedSeq != 0 {
		t.Fatalf("missed = %d, want 0", st.MissedSeq)
	}
	// The duplicate is still decoded and dispatched; deduplication is an
	// application concern.
	if st.Decoded != 2 || st.Events != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHostSeqReorderNotCountedAsLoss(t *testing.T) {
	h := NewHost(false)
	// A frame arriving one step late produces a backwards gap of 0xFFFF,
	// which is >= 0x8000: the heuristic treats it as reordering, not as
	// 65534 lost frames.
	feed(t, h, 5)
	feed(t, h, 4)
	if got := h.Stats().MissedSeq; got != 0 {
		t.Fatalf("missed = %d, want 0", got)
	}
	// After the late frame, the next in-order frame looks like a gap of 2
	// from seq 4; that is the price of the stateless heuristic.
	feed(t, h, 6)
	if got := h.Stats().MissedSeq; got != 1 {
		t.Fatalf("missed after recovery = %d, want 1", got)
	}
}

func TestHostSeqGapHeuristicBoundary(t *testing.T) {
	// gap == 0x7FFF is the largest treated as loss (0x7FFE frames missed);
	// gap == 0x8000 flips to the reordering interpretation.
	h := NewHost(false)
	feed(t, h, 0)
	feed(t, h, 0x7FFF)
	if got := h.Stats().MissedSeq; got != 0x7FFE {
		t.Fatalf("missed = %#x, want 0x7FFE", got)
	}

	h = NewHost(false)
	feed(t, h, 0)
	feed(t, h, 0x8000)
	if got := h.Stats().MissedSeq; got != 0 {
		t.Fatalf("missed = %d, want 0 at the reorder boundary", got)
	}
}

func TestHostAcceptsAnyDeviceID(t *testing.T) {
	// The single-device Host does no demultiplexing: frames from a tagged
	// device must still be decoded and dispatched.
	h := NewHost(true)
	m := rf.Message{Kind: rf.MsgScroll, Device: 7, Seq: 0, Index: 2}
	b := m.AppendBinary(nil)
	var got []Event
	h.OnScroll(func(e Event) { got = append(got, e) })
	h.Handle(b, 0)
	if len(got) != 1 || got[0].Device != 7 || got[0].Index != 2 {
		t.Fatalf("events: %+v", got)
	}
}
