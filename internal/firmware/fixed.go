package firmware

import (
	"math"
	"strconv"
)

// pow10 holds the scales of the precisions (1 to 3) appendFixed formats on
// its fast path.
var pow10 = [...]uint64{1, 10, 100, 1000}

// appendFixed appends v with prec decimals, byte-identical to
// strconv.AppendFloat(b, v, 'f', prec, 64). That call formats through an
// exact multiprecision conversion; the debug display writes two such
// values per redraw, so small non-negative values take a fixed-point fast
// path: v·10^prec rounded to an integer, split at the decimal point.
// Negative values (and -0), NaN, infinities, large values and rounding
// ties fall back to strconv.
func appendFixed(b []byte, v float64, prec int) []byte {
	if n, ok := roundScaled(v, prec); ok {
		scale := pow10[prec]
		b = append(strconv.AppendUint(b, n/scale, 10), '.')
		start := len(b)
		b = append(b, "000"[:prec]...)
		for i, frac := len(b)-1, n%scale; i >= start; i, frac = i-1, frac/10 {
			b[i] = byte('0' + frac%10)
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', prec, 64)
}

// roundScaled returns v·10^prec rounded to the nearest integer, and whether
// float64 arithmetic decides that rounding exactly. Below 2^32 every tie
// point n+0.5 is a float64, and rounding the product is monotonic, so the
// rounded product x lies on the same side of n+0.5 as the exact product
// unless x is the tie point itself. Only then, when the exact product may
// sit on either side of the tie or on it, is the answer left to strconv.
func roundScaled(v float64, prec int) (uint64, bool) {
	if prec < 1 || prec >= len(pow10) || math.Signbit(v) {
		return 0, false
	}
	x := v * float64(pow10[prec])
	if !(x < 1<<32) { // NaN, +Inf and large values
		return 0, false
	}
	n := math.Floor(x)
	switch frac := x - n; {
	case frac == 0.5:
		return 0, false
	case frac > 0.5:
		n++
	}
	return uint64(n), true
}
