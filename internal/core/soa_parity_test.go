package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/hcilab/distscroll/internal/adc"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/gp2d120"
	"github.com/hcilab/distscroll/internal/mapping"
)

// parityDevices is the slab size of the parity fuzz target; the input picks
// which slot it drives, so the others must stay untouched.
const parityDevices = 3

// FuzzSlabMatchesFirmwareStages is the differential test between the two
// device models. A raw sensor voltage sequence (big-endian int16 pairs,
// 0.2 mV per unit) is fed to one slab slot and to the firmware's own stages:
// an adc.Converter with no rng, NewFilter(MedianEMA, DefaultEMAAlpha) and a
// mapping.Mapper, with firmware.Step's rule that the cursor (starting at
// entry 0) moves, and a scroll frame is sent, when the mapped entry differs
// from it. Step for step the quantised and filtered voltages must agree bit
// for bit and the selection must agree; the slab's frames must carry the
// same entry indices with consecutive seqs.
//
// The seed corpus in testdata/fuzz covers the ways the slab once drifted
// from the firmware: 1024- instead of 1023-step ADC scaling (adc-scale),
// the raw third sample passed through the median warm-up (median-warmup), a
// stale island kept across a gap so its hysteresis band re-captured the
// voltage (gap-hysteresis), and frames sent on first contact with entry 0
// or carrying an island position rather than an entry index (entry-index).
func FuzzSlabMatchesFirmwareStages(f *testing.F) {
	f.Fuzz(func(t *testing.T, entries, slot uint8, raw []byte) {
		n := 1 + int(entries)%24
		i := int(slot) % parityDevices
		slab, err := NewStateSlab(SlabConfig{Devices: parityDevices, Seed: 1, Entries: n})
		if err != nil {
			t.Fatal(err)
		}

		var in float64
		conv, err := adc.New(adc.DefaultVref, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := conv.Connect(0, func() float64 { return in }); err != nil {
			t.Fatal(err)
		}
		filter, err := firmware.NewFilter(firmware.MedianEMA, firmware.DefaultEMAAlpha)
		if err != nil {
			t.Fatal(err)
		}
		sensor, err := gp2d120.New(gp2d120.DefaultConfig(), gp2d120.DefaultSurface(), nil)
		if err != nil {
			t.Fatal(err)
		}
		mapper, err := mapping.New(mapping.DefaultConfig(n), sensor.Ideal)
		if err != nil {
			t.Fatal(err)
		}

		cursor := 0
		var want, got []int
		emit := func(s int, seq uint16, entry int16, _ uint32) {
			if s != i {
				t.Fatalf("frame from slot %d, only slot %d was stepped", s, i)
			}
			if wantSeq := uint16(len(got) + 1); seq != wantSeq {
				t.Fatalf("frame %d has seq %d, want %d", len(got), seq, wantSeq)
			}
			got = append(got, int(entry))
		}
		for k := 0; k+1 < len(raw); k += 2 {
			in = float64(int16(binary.BigEndian.Uint16(raw[k:]))) / 5000

			code, err := conv.Read(0)
			if err != nil {
				t.Fatal(err)
			}
			q := conv.Voltage(code)
			v := filter.Apply(q)
			if index, active := mapper.Map(v); active && index != cursor {
				cursor = index
				want = append(want, index)
			}

			sq, sv := slab.stepSignal(i, in, nil, emit, 0)
			if math.Float64bits(sq) != math.Float64bits(q) {
				t.Fatalf("step %d (raw %v V): slab quantised %v, firmware ADC %v", k/2, in, sq, q)
			}
			if math.Float64bits(sv) != math.Float64bits(v) {
				t.Fatalf("step %d (raw %v V): slab filtered %v, firmware filter %v", k/2, in, sv, v)
			}
			sel := -1
			if p := slab.pos[i]; p >= 0 {
				sel = slab.islands[p].Index
			}
			if sel != mapper.Current() {
				t.Fatalf("step %d (filtered %v V): slab selects entry %d, mapper %d", k/2, v, sel, mapper.Current())
			}
			if int(slab.cursor[i]) != cursor {
				t.Fatalf("step %d: slab cursor %d, firmware cursor %d", k/2, slab.cursor[i], cursor)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("scroll entries differ:\nslab     %v\nfirmware %v", got, want)
		}
		if tot := slab.Totals(0, slab.Len()); tot.Sent != uint64(len(want)) {
			t.Fatalf("slab sent %d frames, firmware %d scroll events", tot.Sent, len(want))
		}
	})
}
