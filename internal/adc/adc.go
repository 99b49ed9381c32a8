// Package adc models the 10-bit successive-approximation analog-to-digital
// converter of the Microchip PIC 18F452, which digitises the GP2D120 and
// ADXL311 outputs at the Smart-Its input ports (paper Figure 4: "measured
// analog voltage at Smart-Its input port").
package adc

import (
	"fmt"

	"github.com/hcilab/distscroll/internal/sim"
)

// Converter characteristics.
const (
	// Bits is the converter resolution.
	Bits = 10
	// MaxCode is the largest output code.
	MaxCode = 1<<Bits - 1
	// DefaultVref is the default positive reference voltage.
	DefaultVref = 5.0
)

// Source is an analog signal the converter can sample.
type Source func() float64

// Converter is a multi-channel 10-bit ADC.
type Converter struct {
	vref     float64
	channels []Source
	rng      *sim.Rand
	// offsetLSB and gainErr model static converter error (datasheet:
	// < ±1 LSB integral error for the PIC 18F452 module).
	offsetLSB float64
	gainErr   float64
	samples   uint64
}

// New returns a converter with the given reference voltage and channel
// count. rng may be nil to disable sampling noise.
func New(vref float64, channels int, rng *sim.Rand) (*Converter, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("adc: vref must be positive, got %g", vref)
	}
	if channels <= 0 {
		return nil, fmt.Errorf("adc: need at least one channel, got %d", channels)
	}
	c := &Converter{
		vref:     vref,
		channels: make([]Source, channels),
		rng:      rng,
	}
	if rng != nil {
		c.offsetLSB = rng.Uniform(-0.5, 0.5)
		c.gainErr = rng.Uniform(-0.001, 0.001)
	}
	return c, nil
}

// Connect attaches an analog source to a channel.
func (c *Converter) Connect(channel int, src Source) error {
	if channel < 0 || channel >= len(c.channels) {
		return fmt.Errorf("adc: channel %d out of range [0,%d)", channel, len(c.channels))
	}
	c.channels[channel] = src
	return nil
}

// Channels reports the number of channels.
func (c *Converter) Channels() int { return len(c.channels) }

// Samples reports how many conversions have been performed.
func (c *Converter) Samples() uint64 { return c.samples }

// Vref returns the reference voltage.
func (c *Converter) Vref() float64 { return c.vref }

// Read performs one conversion on the given channel and returns the 10-bit
// code. An unconnected channel reads as a floating input near zero.
func (c *Converter) Read(channel int) (uint16, error) {
	if channel < 0 || channel >= len(c.channels) {
		return 0, fmt.Errorf("adc: channel %d out of range [0,%d)", channel, len(c.channels))
	}
	c.samples++
	v := 0.0
	if src := c.channels[channel]; src != nil {
		v = src()
	}
	level := v / c.vref * float64(MaxCode)
	level *= 1 + c.gainErr
	level += c.offsetLSB
	if c.rng != nil {
		// ±0.5 LSB quantisation/thermal noise.
		level += c.rng.Uniform(-0.5, 0.5)
	}
	return quantise(level), nil
}

// Voltage converts a code back to volts using the reference.
func (c *Converter) Voltage(code uint16) float64 { return Volts(code, c.vref) }

// Code is the ideal converter's transfer function: v volts against vref,
// clamped to [0, MaxCode] and truncated to a code. Read is the same
// transfer with a part's gain error, offset and dither applied to the
// scaled level before the clamp, so a Converter built with a nil rng reads
// exactly Code(v, vref).
func Code(v, vref float64) uint16 { return quantise(v / vref * float64(MaxCode)) }

// Volts converts a code back to volts against vref, the inverse scale of
// Code.
func Volts(code uint16, vref float64) float64 { return float64(code) / float64(MaxCode) * vref }

// quantise clamps a level in LSB to the code range and truncates it, as
// the successive-approximation register does.
func quantise(level float64) uint16 {
	if level < 0 {
		level = 0
	}
	if level > MaxCode {
		level = MaxCode
	}
	return uint16(level)
}
