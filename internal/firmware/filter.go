// Package firmware is the Go port of the C firmware running on the PIC
// 18F452 inside the DistScroll (paper Section 4: "The code for the
// microcontroller in the DistScroll device is programmed in C").
//
// The loop is: sample the distance sensor through the ADC, filter the
// value, map it to an entry island, move the menu cursor, redraw the two
// displays over I2C, scan the buttons, and report events over the RF link.
package firmware

import "fmt"

// FilterKind selects the sensor smoothing strategy (ablation A1).
type FilterKind int

// Filter kinds.
const (
	// Raw passes samples through unfiltered.
	Raw FilterKind = iota + 1
	// Median3 applies a 3-tap median, killing single-sample outliers (the
	// spurious readings of structured reflective surfaces).
	Median3
	// EMA applies an exponential moving average, smoothing tremor.
	EMA
	// MedianEMA chains a 3-tap median into an EMA — the prototype default.
	MedianEMA
)

// String returns the filter name.
func (k FilterKind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Median3:
		return "median3"
	case EMA:
		return "ema"
	case MedianEMA:
		return "median3+ema"
	default:
		return fmt.Sprintf("filter(%d)", int(k))
	}
}

// Filter smooths a stream of voltages.
type Filter interface {
	// Apply consumes one sample and returns the filtered value.
	Apply(v float64) float64
	// Reset clears the filter state.
	Reset()
}

// DefaultEMAAlpha is the prototype's EMA coefficient. The firmware's
// default filter and the struct-of-arrays scale path (core.StateSlab) both
// run MedianEMAState.Step with it.
const DefaultEMAAlpha = 0.35

// NewFilter constructs a filter of the given kind. alpha is the EMA
// coefficient (ignored by Raw/Median3); values outside (0,1] fall back to
// the prototype's DefaultEMAAlpha.
func NewFilter(kind FilterKind, alpha float64) (Filter, error) {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEMAAlpha
	}
	switch kind {
	case Raw:
		return rawFilter{}, nil
	case Median3:
		return &medianFilter{}, nil
	case EMA:
		return &emaFilter{alpha: alpha}, nil
	case MedianEMA:
		return &medianEMAFilter{alpha: alpha}, nil
	default:
		return nil, fmt.Errorf("firmware: unknown filter kind %d", kind)
	}
}

// MedianEMAState is the whole state of the median3+EMA filter: the 3-tap
// window, its fill count and the EMA value. The zero value is a reset
// filter. It is a plain value so a packed store can hold one per device.
type MedianEMAState struct {
	med   medianWindow
	value float64
}

// Step feeds one sample through the 3-tap median and then the EMA with
// gain alpha, and returns the filtered value. The EMA starts at the first
// median output.
func (st *MedianEMAState) Step(v, alpha float64) float64 {
	v = st.med.push(v)
	if st.med.n == 1 {
		st.value = v
	} else {
		st.value += alpha * (v - st.value)
	}
	return st.value
}

// medianWindow is a 3-tap median over the last three samples. Until the
// window fills it passes samples through; from the third sample on it
// returns their median.
type medianWindow struct {
	w [3]float64
	n uint8 // samples seen, saturating at 3
}

func (m *medianWindow) push(v float64) float64 {
	if m.n < 3 {
		m.w[m.n] = v
		m.n++
		if m.n < 3 {
			return v
		}
	} else {
		m.w[0], m.w[1], m.w[2] = m.w[1], m.w[2], v
	}
	return median3(m.w[0], m.w[1], m.w[2])
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

type rawFilter struct{}

func (rawFilter) Apply(v float64) float64 { return v }
func (rawFilter) Reset()                  {}

type medianFilter struct{ medianWindow }

func (f *medianFilter) Apply(v float64) float64 { return f.push(v) }
func (f *medianFilter) Reset()                  { f.n = 0 }

type emaFilter struct {
	alpha float64
	value float64
	init  bool
}

func (f *emaFilter) Apply(v float64) float64 {
	if !f.init {
		f.value = v
		f.init = true
		return v
	}
	f.value += f.alpha * (v - f.value)
	return f.value
}

func (f *emaFilter) Reset() { f.init = false }

type medianEMAFilter struct {
	alpha float64
	st    MedianEMAState
}

func (f *medianEMAFilter) Apply(v float64) float64 { return f.st.Step(v, f.alpha) }
func (f *medianEMAFilter) Reset()                  { f.st = MedianEMAState{} }
