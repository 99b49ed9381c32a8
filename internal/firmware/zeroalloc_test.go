package firmware

import (
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
)

// discard is a no-op radio: it accepts every payload and keeps nothing.
type discard struct{ sent int }

func (d *discard) Send([]byte) (time.Duration, error) {
	d.sent++
	return 0, nil
}

// TestFirmwareStepZeroAlloc enforces the firmware cycle's zero-allocation
// contract, like the slab's: sampling, filtering, mapping, both display
// redraws and telemetry run every cycle of every full device, so a steady-
// state cycle must not allocate. Each case measures one kind of cycle and
// checks afterwards that every run really did that work. Level changes,
// which rebuild the mapper, are outside the contract.
func TestFirmwareStepZeroAlloc(t *testing.T) {
	const runs = 200
	newFirmware := func(t *testing.T, cfg Config) (*Firmware, *smartits.Board, *discard) {
		t.Helper()
		board, err := smartits.Assemble(smartits.DefaultConfig(), sim.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		m, err := menu.New(menu.FlatMenu(10))
		if err != nil {
			t.Fatal(err)
		}
		tx := &discard{}
		fw, err := New(cfg, board, m, tx)
		if err != nil {
			t.Fatal(err)
		}
		return fw, board, tx
	}

	t.Run("scroll redraws top", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DebugPeriod, cfg.HeartbeatPeriod = time.Hour, time.Hour
		fw, board, _ := newFirmware(t, cfg)
		near, err := fw.Mapper().DistanceFor(1)
		if err != nil {
			t.Fatal(err)
		}
		far, err := fw.Mapper().DistanceFor(8)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		hold := func(cm float64) {
			board.SetDistance(cm)
			for i := 0; i < 12; i++ {
				now += cfg.SamplePeriod
				if err := fw.Step(now); err != nil {
					t.Fatal(err)
				}
			}
		}
		hold(near)
		before := fw.Stats()
		target := far
		if n := testing.AllocsPerRun(runs, func() {
			hold(target)
			target = near + far - target
		}); n != 0 {
			t.Fatalf("scrolling cycles: %v allocs/op, want 0", n)
		}
		after := fw.Stats()
		if d := after.ScrollEvents - before.ScrollEvents; d < runs+1 {
			t.Fatalf("%d scroll events over %d runs", d, runs+1)
		}
		if d := after.DisplayWrites - before.DisplayWrites; d < runs+1 {
			t.Fatalf("%d top redraws over %d runs", d, runs+1)
		}
	})

	t.Run("debug refresh", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ContextSensing = true // the status row shows the context
		cfg.HeartbeatPeriod = time.Hour
		fw, board, tx := newFirmware(t, cfg)
		now := time.Duration(0)
		step := func() {
			now += cfg.DebugPeriod
			if err := fw.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			step()
		}
		writes := board.Bottom.Frames()
		sent := tx.sent
		if n := testing.AllocsPerRun(runs, step); n != 0 {
			t.Fatalf("debug refresh cycles: %v allocs/op, want 0", n)
		}
		if d := board.Bottom.Frames() - writes; d != 5*(runs+1) {
			t.Fatalf("%d debug row writes over %d runs, want %d", d, runs+1, 5*(runs+1))
		}
		if d := tx.sent - sent; d != runs+1 {
			t.Fatalf("%d state frames over %d runs", d, runs+1)
		}
	})

	t.Run("heartbeat", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DebugPeriod = time.Hour
		fw, _, tx := newFirmware(t, cfg)
		now := time.Duration(0)
		step := func() {
			now += cfg.HeartbeatPeriod
			if err := fw.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			step()
		}
		sent := tx.sent
		if n := testing.AllocsPerRun(runs, step); n != 0 {
			t.Fatalf("heartbeat cycles: %v allocs/op, want 0", n)
		}
		if d := tx.sent - sent; d != runs+1 {
			t.Fatalf("%d heartbeats over %d runs", d, runs+1)
		}
	})
}
