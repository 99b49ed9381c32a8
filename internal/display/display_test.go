package display

import (
	"errors"
	"strings"
	"testing"
)

func TestSetLineAndRender(t *testing.T) {
	d := New()
	if err := d.SetLine(0, "> Messages"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetLine(1, "  Contacts"); err != nil {
		t.Fatal(err)
	}
	out := d.Render()
	if !strings.Contains(out, "> Messages") || !strings.Contains(out, "  Contacts") {
		t.Fatalf("render:\n%s", out)
	}
	if d.Line(0) != "> Messages" {
		t.Fatalf("Line(0) = %q", d.Line(0))
	}
}

func TestSetLineTruncatesToPanelWidth(t *testing.T) {
	d := New()
	long := strings.Repeat("x", TextCols+10)
	if err := d.SetLine(2, long); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Line(2)); got != TextCols {
		t.Fatalf("line length = %d, want %d", got, TextCols)
	}
}

func TestSetLineBounds(t *testing.T) {
	d := New()
	if err := d.SetLine(-1, "x"); !errors.Is(err, ErrBounds) {
		t.Fatalf("row -1: %v", err)
	}
	if err := d.SetLine(TextLines, "x"); !errors.Is(err, ErrBounds) {
		t.Fatalf("row %d: %v", TextLines, err)
	}
	if d.Line(99) != "" {
		t.Fatal("out-of-range Line should be empty")
	}
}

func TestRasterisationLightsPixels(t *testing.T) {
	d := New()
	if d.LitPixels() != 0 {
		t.Fatal("fresh panel should be dark")
	}
	if err := d.SetLine(0, "AB"); err != nil {
		t.Fatal(err)
	}
	lit := d.LitPixels()
	if lit == 0 {
		t.Fatal("text did not light pixels")
	}
	// Spaces light nothing extra.
	if err := d.SetLine(1, "   "); err != nil {
		t.Fatal(err)
	}
	if d.LitPixels() != lit {
		t.Fatal("spaces lit pixels")
	}
	// Overwriting with blank clears the band.
	if err := d.SetLine(0, ""); err != nil {
		t.Fatal(err)
	}
	if d.LitPixels() != 0 {
		t.Fatal("clearing a line left pixels lit")
	}
}

func TestClear(t *testing.T) {
	d := New()
	if err := d.SetLine(0, "hello"); err != nil {
		t.Fatal(err)
	}
	d.Clear()
	if d.LitPixels() != 0 || d.Line(0) != "" {
		t.Fatal("Clear left state behind")
	}
}

func TestI2CProtocol(t *testing.T) {
	d := New()
	// Set a line through the wire protocol.
	cmd := append([]byte{CmdSetLine, 1}, "Inbox"...)
	if err := d.WriteBytes(cmd); err != nil {
		t.Fatal(err)
	}
	if d.Line(1) != "Inbox" {
		t.Fatalf("Line(1) = %q", d.Line(1))
	}
	// Contrast.
	if err := d.WriteBytes([]byte{CmdContrast, 50}); err != nil {
		t.Fatal(err)
	}
	if d.Contrast() != 50 {
		t.Fatalf("contrast = %d", d.Contrast())
	}
	// Invert.
	if err := d.WriteBytes([]byte{CmdInvert, 1}); err != nil {
		t.Fatal(err)
	}
	if !d.Inverted() {
		t.Fatal("invert failed")
	}
	// Pixel.
	if err := d.WriteBytes([]byte{CmdSetPixel, 10, 10, 1}); err != nil {
		t.Fatal(err)
	}
	if !d.Pixel(10, 10) {
		t.Fatal("pixel not set")
	}
	// Clear.
	if err := d.WriteBytes([]byte{CmdClear}); err != nil {
		t.Fatal(err)
	}
	if d.Line(1) != "" {
		t.Fatal("clear over wire failed")
	}
}

func TestI2CProtocolErrors(t *testing.T) {
	d := New()
	if err := d.WriteBytes(nil); !errors.Is(err, ErrShortCommand) {
		t.Fatalf("empty write: %v", err)
	}
	if err := d.WriteBytes([]byte{0xEE}); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("bad opcode: %v", err)
	}
	if err := d.WriteBytes([]byte{CmdSetLine}); !errors.Is(err, ErrShortCommand) {
		t.Fatalf("short set-line: %v", err)
	}
	if err := d.WriteBytes([]byte{CmdSetPixel, 200, 0, 1}); !errors.Is(err, ErrBounds) {
		t.Fatalf("pixel out of bounds: %v", err)
	}
	if _, err := d.ReadBytes(1); err == nil {
		t.Fatal("read without register select should fail")
	}
}

func TestStatusRead(t *testing.T) {
	d := New()
	d.SetContrast(40)
	if err := d.WriteBytes([]byte{CmdStatus}); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadBytes(4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 40 || got[2] != TextLines || got[3] != TextCols {
		t.Fatalf("status = %v", got)
	}
}

func TestContrastClamp(t *testing.T) {
	d := New()
	d.SetContrast(200)
	if d.Contrast() != 63 {
		t.Fatalf("contrast = %d, want clamped 63", d.Contrast())
	}
}

func TestFramesCounter(t *testing.T) {
	d := New()
	for _, cmd := range [][]byte{
		{CmdClear},
		append([]byte{CmdSetLine, 2}, "Inbox"...),
		append([]byte{CmdSetLine, 2}, "Inbox"...), // unchanged text still counts
		{CmdSetPixel, 10, 10, 1},
		{CmdContrast, 40},
		{CmdInvert, 1},
		{CmdStatus},
	} {
		before := d.Frames()
		if err := d.WriteBytes(cmd); err != nil {
			t.Fatal(err)
		}
		if d.Frames() != before+1 {
			t.Fatalf("frame counter did not advance on %#x", cmd[0])
		}
	}
	// Rejected commands are not frames.
	before := d.Frames()
	for _, cmd := range [][]byte{{CmdSetLine, TextLines}, {CmdSetPixel, WidthPx, 0, 1}, {0xEE}} {
		if err := d.WriteBytes(cmd); err == nil {
			t.Fatalf("command %v accepted", cmd)
		}
	}
	if d.Frames() != before {
		t.Fatalf("rejected commands counted: %d -> %d", before, d.Frames())
	}
}

func TestPixelBounds(t *testing.T) {
	d := New()
	if err := d.SetPixel(WidthPx, 0, true); !errors.Is(err, ErrBounds) {
		t.Fatalf("x out of bounds: %v", err)
	}
	if d.Pixel(-1, -1) {
		t.Fatal("out-of-range pixel read true")
	}
}

func TestRenderShape(t *testing.T) {
	d := New()
	out := d.Render()
	lines := strings.Split(out, "\n")
	if len(lines) != TextLines+2 {
		t.Fatalf("render has %d lines, want %d", len(lines), TextLines+2)
	}
	for _, l := range lines[1 : TextLines+1] {
		if len(l) != TextCols+2 {
			t.Fatalf("row width %d, want %d: %q", len(l), TextCols+2, l)
		}
	}
}

// refPanel is the original [40][96]bool framebuffer, kept as the oracle for
// the bit-packed one: the text rows it stores and the pixels it lights are
// the specification FuzzRasterize checks Display against.
type refPanel struct {
	pixels [HeightPx][WidthPx]bool
	lines  [TextLines]string
}

// write applies the commands that touch text or pixels and reports whether
// the command was accepted; other opcodes leave the framebuffer alone.
func (r *refPanel) write(data []byte) (handled, ok bool) {
	if len(data) == 0 {
		return false, false
	}
	op, rest := data[0], data[1:]
	switch op {
	case CmdClear:
		r.pixels = [HeightPx][WidthPx]bool{}
		r.lines = [TextLines]string{}
		return true, true
	case CmdSetLine:
		if len(rest) < 1 || int(rest[0]) >= TextLines {
			return true, false
		}
		row, text := int(rest[0]), string(rest[1:])
		if len(text) > TextCols {
			text = text[:TextCols]
		}
		r.lines[row] = text
		top := row * GlyphH
		for y := top; y < top+GlyphH && y < HeightPx; y++ {
			for x := 0; x < WidthPx; x++ {
				r.pixels[y][x] = false
			}
		}
		for col, ch := range r.lines[row] {
			if ch == ' ' || col >= TextCols {
				continue
			}
			left := col * GlyphW
			for dy := 1; dy < GlyphH-1; dy++ {
				for dx := 1; dx < GlyphW-1; dx++ {
					y, x := top+dy, left+dx
					if y < HeightPx && x < WidthPx {
						r.pixels[y][x] = true
					}
				}
			}
		}
		return true, true
	case CmdSetPixel:
		if len(rest) < 3 {
			return true, false
		}
		x, y := int(rest[0]), int(rest[1])
		if x >= WidthPx || y >= HeightPx {
			return true, false
		}
		r.pixels[y][x] = rest[2] != 0
		return true, true
	}
	return false, false
}

// FuzzRasterize runs an arbitrary command stream through the bit-packed
// Display and the bool-array oracle and requires identical text, pixels and
// lit counts after every command. The input is a sequence of
// length-prefixed commands: a length byte, then that many command bytes.
func FuzzRasterize(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		d, ref := New(), &refPanel{}
		for len(stream) > 0 {
			n := int(stream[0])
			stream = stream[1:]
			if n > len(stream) {
				n = len(stream)
			}
			cmd := stream[:n]
			stream = stream[n:]

			err := d.WriteBytes(cmd)
			if handled, ok := ref.write(cmd); handled && ok != (err == nil) {
				t.Fatalf("command %q: display err %v, oracle accepted %v", cmd, err, ok)
			}
			lit := 0
			for y := 0; y < HeightPx; y++ {
				for x := 0; x < WidthPx; x++ {
					if d.Pixel(x, y) != ref.pixels[y][x] {
						t.Fatalf("after %q: pixel (%d,%d) = %v, oracle %v", cmd, x, y, d.Pixel(x, y), ref.pixels[y][x])
					}
					if ref.pixels[y][x] {
						lit++
					}
				}
			}
			if d.LitPixels() != lit {
				t.Fatalf("after %q: LitPixels = %d, oracle %d", cmd, d.LitPixels(), lit)
			}
			for i, l := range d.Lines() {
				if l != ref.lines[i] {
					t.Fatalf("after %q: line %d = %q, oracle %q", cmd, i, l, ref.lines[i])
				}
			}
		}
	})
}

// TestWritesZeroAlloc pins the panel's write path at zero allocations:
// the firmware drives both panels every cycle, so clearing, writing a
// changed text row and setting a pixel must not allocate.
func TestWritesZeroAlloc(t *testing.T) {
	d := New()
	rows := [][]byte{
		append([]byte{CmdSetLine, 1}, "V=1.234"...),
		append([]byte{CmdSetLine, 1}, "V=1.235"...),
		append([]byte{CmdSetLine, 4}, strings.Repeat("long title ", 5)...),
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		if err := d.WriteBytes(rows[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBytes([]byte{CmdSetPixel, byte(i % WidthPx), 3, byte(i & 1)}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := d.WriteBytes([]byte{CmdClear}); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("display writes: %.1f allocs/op, want 0", n)
	}
}
