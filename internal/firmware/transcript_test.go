package firmware

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/adxl311"
	"github.com/hcilab/distscroll/internal/buttons"
	"github.com/hcilab/distscroll/internal/display"
	"github.com/hcilab/distscroll/internal/i2c"
	"github.com/hcilab/distscroll/internal/menu"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/smartits"
)

var update = flag.Bool("update", false, "rewrite testdata/display_transcript.golden from current output")

// busTap sits between the I2C bus and a display: it hashes every write
// transaction (address, length, command bytes) before forwarding it, so
// the transcript pins the exact byte stream the firmware puts on the bus.
type busTap struct {
	addr   byte
	slave  i2c.Slave
	h      hash.Hash
	writes *int
	seen   map[string]bool // text of every CmdSetLine, for script coverage
}

func (t *busTap) WriteBytes(data []byte) error {
	var hdr [3]byte
	hdr[0] = t.addr
	binary.BigEndian.PutUint16(hdr[1:], uint16(len(data)))
	t.h.Write(hdr[:])
	t.h.Write(data)
	*t.writes++
	if len(data) >= 2 && data[0] == display.CmdSetLine {
		t.seen[string(data[2:])] = true
	}
	return t.slave.WriteBytes(data)
}

func (t *busTap) ReadBytes(n int) ([]byte, error) { return t.slave.ReadBytes(n) }

// TestDisplayTranscriptGolden drives a scripted firmware run through every
// display-visible state — scrolling, a submenu enter and back, context
// sensing (still, moving, left hand), an out-of-range hold, a sensor fault
// and low battery — and pins a SHA-256 of every display write plus both
// panels' final text and pixels. Any change to what reaches the panels,
// or to how they rasterise it, shows up as a diff.
func TestDisplayTranscriptGolden(t *testing.T) {
	boardCfg := smartits.DefaultConfig()
	board, err := smartits.Assemble(boardCfg, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writes := 0
	seen := map[string]bool{}
	for _, p := range []struct {
		addr byte
		d    *display.Display
	}{{smartits.AddrTopDisplay, board.Top}, {smartits.AddrBottomDisplay, board.Bottom}} {
		board.Bus.Detach(p.addr)
		if err := board.Bus.Attach(p.addr, &busTap{addr: p.addr, slave: p.d, h: h, writes: &writes, seen: seen}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := menu.New(menu.PhoneMenu())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ContextSensing = true
	fw, err := New(cfg, board, m, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{board: board, fw: fw, menu: m}
	scrollTo := func(i int) {
		d, err := fw.Mapper().DistanceFor(i)
		if err != nil {
			t.Fatal(err)
		}
		board.SetDistance(d)
		r.steps(t, 15)
	}
	press := func(b buttons.ID) {
		board.Pad.Set(b, true, r.now)
		r.now += 30 * time.Millisecond
		if err := fw.Step(r.now); err != nil {
			t.Fatal(err)
		}
		board.Pad.Set(b, false, r.now)
		r.steps(t, 5)
	}

	board.Accel.SetOrientation(adxl311.Orientation{Pitch: 0.6, Roll: -0.25})
	for _, i := range []int{0, 2, 5, 3} {
		scrollTo(i)
	}
	press(cfg.SelectButton) // into Settings
	if m.Depth() != 1 {
		t.Fatalf("script: depth %d after select", m.Depth())
	}
	for _, i := range []int{1, 4, 0} {
		scrollTo(i)
	}
	press(cfg.BackButton)
	if m.Depth() != 0 {
		t.Fatalf("script: depth %d after back", m.Depth())
	}
	scrollTo(1)
	board.Accel.SetDynamic(0.9, -0.7)
	r.steps(t, 10)
	board.Accel.SetDynamic(0, 0)
	board.Accel.SetOrientation(adxl311.Orientation{Pitch: 0.6, Roll: 0.25})
	r.steps(t, 10)

	board.SetDistance(60) // out of range: the cursor holds
	r.steps(t, 40)
	if fw.Signal() != SignalOutOfRange {
		t.Fatalf("script: signal %v, want out of range", fw.Signal())
	}
	scrollTo(2)

	if err := board.ADC.Connect(smartits.ChanDistance, nil); err != nil {
		t.Fatal(err)
	}
	r.steps(t, 15)
	if fw.Signal() != SignalFault {
		t.Fatalf("script: signal %v, want fault", fw.Signal())
	}
	if err := board.ADC.Connect(smartits.ChanDistance, func() float64 {
		return board.Sensor.Sample(board.Distance())
	}); err != nil {
		t.Fatal(err)
	}
	scrollTo(4)

	board.DrainBattery(board.Battery() - 6.0)
	r.steps(t, 15)
	if !fw.LowBattery() {
		t.Fatal("script: low battery not raised")
	}
	scrollTo(0)

	for _, want := range []string{"held/right", "held/right moving", "held/left",
		"isle=no-meas", "SENSOR FAULT", "LOW BAT 6.0V", "> Security", "> Messages"} {
		if !seen[want] {
			t.Errorf("script never drew %q", want)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "writes %d\n", writes)
	fmt.Fprintf(&b, "sha256 %x\n", h.Sum(nil))
	for _, p := range []struct {
		name string
		d    *display.Display
	}{{"top", board.Top}, {"bottom", board.Bottom}} {
		fmt.Fprintf(&b, "%s lines\n", p.name)
		for _, l := range p.d.Lines() {
			fmt.Fprintf(&b, "  %q\n", l)
		}
		fmt.Fprintf(&b, "%s pixels (lit %d)\n", p.name, p.d.LitPixels())
		for y := 0; y < display.HeightPx; y++ {
			var row [display.WidthPx / 8]byte
			for x := 0; x < display.WidthPx; x++ {
				if p.d.Pixel(x, y) {
					row[x/8] |= 0x80 >> (x % 8)
				}
			}
			fmt.Fprintf(&b, "  %x\n", row)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "display_transcript.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Fatalf("display transcript differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
