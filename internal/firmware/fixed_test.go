package firmware

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkAppendFixed requires appendFixed to match strconv.AppendFloat byte
// for byte, appending after a prefix, for both precisions the debug
// display uses.
func checkAppendFixed(t *testing.T, v float64) {
	t.Helper()
	for _, prec := range []int{1, 3} {
		got := appendFixed([]byte("V="), v, prec)
		want := strconv.AppendFloat([]byte("V="), v, 'f', prec, 64)
		if string(got) != string(want) {
			t.Fatalf("appendFixed(%v (%#x), %d) = %q, strconv %q",
				v, math.Float64bits(v), prec, got, want)
		}
	}
}

// FuzzAppendFixed checks the debug formatter's fast path against
// strconv.AppendFloat. The committed corpus holds exact decimal ties
// (0.0625, 2.25), near-ties whose binary value falls either side
// (0.0005, 1.0005, 9.9995, 0.05), -0, negatives, NaN, ±Inf, subnormals,
// 2^32 and 1e300.
func FuzzAppendFixed(f *testing.F) {
	f.Fuzz(func(t *testing.T, v float64) { checkAppendFixed(t, v) })
}

// TestAppendFixedSweep runs the comparison over every rounding tie of the
// two precisions in the sensor's voltage range and battery range, their
// float64 neighbours, and random values of assorted magnitudes.
func TestAppendFixedSweep(t *testing.T) {
	for k := 0; k <= 20_000; k++ {
		tie := (float64(k) + 0.5) / 1000 // 0.0005, 0.0015, ... 20.0005
		for _, v := range []float64{tie, math.Nextafter(tie, 0), math.Nextafter(tie, 1e9), float64(k) / 16} {
			checkAppendFixed(t, v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		checkAppendFixed(t, rng.Float64()*math.Pow(10, float64(rng.Intn(14)-4)))
		checkAppendFixed(t, math.Float64frombits(rng.Uint64()))
	}
}

func TestAppendFixedZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(1000, func() {
		buf = appendFixed(buf[:0], 1.2345, 3)
		buf = appendFixed(buf[:0], 3.05, 1)
	}); n != 0 {
		t.Fatalf("appendFixed: %v allocs/op, want 0", n)
	}
}
