package core

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/rf"
)

func newDev(t *testing.T, root *menu.Node) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 5
	d, err := NewDevice(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func TestDeviceAssembles(t *testing.T) {
	d := newDev(t, menu.PhoneMenu())
	if err := d.Board.SelfCheck(); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}

func TestScrollEventsReachHost(t *testing.T) {
	d := newDev(t, menu.FlatMenu(10))
	var got []Event
	d.Host.OnScroll(func(e Event) { got = append(got, e) })
	dist, err := d.DistanceForEntry(8)
	if err != nil {
		t.Fatal(err)
	}
	d.SetDistance(dist)
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Cursor() != 8 {
		t.Fatalf("cursor %d", d.Cursor())
	}
	if len(got) == 0 {
		t.Fatal("no host scroll events")
	}
	last := got[len(got)-1]
	if last.Index != 8 {
		t.Fatalf("last scroll index %d", last.Index)
	}
	if last.HostTime <= last.DeviceTime {
		t.Fatalf("host time %v should trail device time %v (radio latency)", last.HostTime, last.DeviceTime)
	}
}

func TestSelectEventCarriesButton(t *testing.T) {
	d := newDev(t, menu.FlatMenu(6))
	var sel []Event
	d.Host.OnSelect(func(e Event) { sel = append(sel, e) })
	dist, err := d.DistanceForEntry(4)
	if err != nil {
		t.Fatal(err)
	}
	d.SetDistance(dist)
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	d.PressSelect()
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].Index != 4 || sel[0].Button == 0 {
		t.Fatalf("select events: %+v", sel)
	}
}

func TestStateEventsCarryDebugInfo(t *testing.T) {
	d := newDev(t, menu.FlatMenu(6))
	var states []Event
	d.Host.OnState(func(e Event) { states = append(states, e) })
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no state telemetry")
	}
	if states[len(states)-1].Voltage <= 0 {
		t.Fatalf("state voltage: %+v", states[len(states)-1])
	}
}

func TestEventLogRetained(t *testing.T) {
	d := newDev(t, menu.FlatMenu(10))
	d.SetDistance(6)
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	evs := d.Host.Events()
	if len(evs) == 0 {
		t.Fatal("log empty")
	}
	d.Host.ResetLog()
	if len(d.Host.Events()) != 0 {
		t.Fatal("log not cleared")
	}
}

func TestHostSeqGapCounting(t *testing.T) {
	h := NewHost(false)
	mk := func(seq uint16) []byte {
		m := rf.Message{Kind: rf.MsgHeartbeat, Seq: seq}
		b := m.AppendBinary(nil)
		return b
	}
	h.Handle(mk(0), 0)
	h.Handle(mk(1), 0)
	h.Handle(mk(5), 0) // 3 missing
	if got := h.Stats().MissedSeq; got != 3 {
		t.Fatalf("missed = %d, want 3", got)
	}
}

func TestHostBadFrame(t *testing.T) {
	h := NewHost(false)
	h.Handle([]byte{1, 2}, 0)
	if h.Stats().BadFrames != 1 {
		t.Fatal("bad frame not counted")
	}
}

func TestStopHaltsFirmware(t *testing.T) {
	d := newDev(t, menu.FlatMenu(10))
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	cycles := d.Firmware.Stats().Cycles
	d.Stop()
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Firmware.Stats().Cycles != cycles {
		t.Fatal("firmware still cycling after Stop")
	}
}

func TestRadiolessDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radio = false
	cfg.Seed = 2
	d, err := NewDevice(cfg, menu.FlatMenu(5))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Link != nil {
		t.Fatal("link present despite Radio=false")
	}
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Host.Stats().Events != 0 {
		t.Fatal("host received events without a radio")
	}
}

func TestDeterministicEventStream(t *testing.T) {
	run := func() uint64 {
		cfg := DefaultConfig()
		cfg.Seed = 77
		d, err := NewDevice(cfg, menu.FlatMenu(12))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		d.SetDistance(25)
		if err := d.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		d.SetDistance(7)
		if err := d.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return d.Host.Stats().Events
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("event counts differ: %d vs %d", a, b)
	}
}

func TestAccessorsAndTap(t *testing.T) {
	d := newDev(t, menu.PhoneMenu())
	var levels, tapped int
	d.Host.OnLevel(func(Event) { levels++ })
	d.Host.Tap(func(Event) { tapped++ })

	d.SetDistance(12)
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Distance() != 12 {
		t.Fatalf("distance %v", d.Distance())
	}
	if d.Err() != nil {
		t.Fatalf("err %v", d.Err())
	}
	if d.Mapper() == nil {
		t.Fatal("nil mapper")
	}
	if d.TopDisplay() == "" || d.BottomDisplay() == "" {
		t.Fatal("empty display render")
	}
	if tapped == 0 {
		t.Fatal("tap observer not invoked")
	}
	d.PressSelect()
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if levels == 0 {
		t.Fatal("level handler not invoked")
	}
}

func TestPressBackNavigatesUp(t *testing.T) {
	d := newDev(t, menu.PhoneMenu())
	dist, err := d.DistanceForEntry(0)
	if err != nil {
		t.Fatal(err)
	}
	d.SetDistance(dist)
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	d.PressSelect()
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Menu.Depth() != 1 {
		t.Fatalf("depth %d", d.Menu.Depth())
	}
	// The hand is still at the root-level distance; the rebuilt 5-entry
	// mapper will move the cursor, which is fine. Press back.
	d.PressBack()
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Menu.Depth() != 0 {
		t.Fatalf("depth after back %d", d.Menu.Depth())
	}
}
