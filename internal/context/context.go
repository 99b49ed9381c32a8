// Package context implements the paper's planned extension of Section 4.3:
// "We plan to include the acceleration sensor in the final version of the
// DistScroll to get information about the orientation of the device in 3D
// space and exploit this values for context determination."
//
// The detector classifies device posture and the holding hand from the
// two-axis ADXL311 signal, with debouncing so momentary motion does not
// flap the classification. Hand detection feeds the Section 6 ambition of
// a device "equally usable with the left or right hand": the firmware can
// swap the select/back button roles automatically.
package context

import (
	"math"

	"github.com/hcilab/distscroll/internal/adxl311"
)

// Posture is the coarse device attitude.
type Posture int

// Posture classes.
const (
	// PostureUnknown is reported before enough samples arrived.
	PostureUnknown Posture = iota
	// PostureFlat: the device lies on a table (both axes near 0 g).
	PostureFlat
	// PostureHeld: the typical reading posture, pitched towards the face.
	PostureHeld
	// PostureTilted: strongly rolled sideways.
	PostureTilted
)

// String returns the posture name.
func (p Posture) String() string {
	switch p {
	case PostureFlat:
		return "flat"
	case PostureHeld:
		return "held"
	case PostureTilted:
		return "tilted"
	default:
		return "unknown"
	}
}

// Hand is the detected holding hand.
type Hand int

// Hand classes.
const (
	HandUnknown Hand = iota
	HandRight
	HandLeft
)

// String returns the hand name.
func (h Hand) String() string {
	switch h {
	case HandRight:
		return "right"
	case HandLeft:
		return "left"
	default:
		return "unknown"
	}
}

// Context is one classified device state.
type Context struct {
	Posture Posture
	Hand    Hand
	// Moving reports significant dynamic acceleration (gesture/transport).
	Moving bool
}

// Encode packs the context into one telemetry byte.
func (c Context) Encode() byte {
	b := byte(c.Posture)&0x3 | byte(c.Hand)&0x3<<2
	if c.Moving {
		b |= 1 << 4
	}
	return b
}

// DecodeContext unpacks a telemetry byte.
func DecodeContext(b byte) Context {
	return Context{
		Posture: Posture(b & 0x3),
		Hand:    Hand(b >> 2 & 0x3),
		Moving:  b&(1<<4) != 0,
	}
}

// String formats the context for the debug display.
func (c Context) String() string { return string(c.Append(nil)) }

// Append appends the String form ("posture/hand", plus " moving") to dst;
// the firmware's debug display formats into a reused buffer with it.
func (c Context) Append(dst []byte) []byte {
	dst = append(append(append(dst, c.Posture.String()...), '/'), c.Hand.String()...)
	if c.Moving {
		dst = append(dst, " moving"...)
	}
	return dst
}

// Config tunes the detector thresholds.
type Config struct {
	// FlatMaxG is the per-axis magnitude below which the device is flat.
	FlatMaxG float64
	// TiltMinG is the roll magnitude above which the device is tilted.
	TiltMinG float64
	// HandMinG is the roll magnitude needed to call the holding hand: a
	// right hand rolls the device slightly to the left (negative Y).
	HandMinG float64
	// MoveVarG2 is the dynamic variance threshold for Moving.
	MoveVarG2 float64
	// Settle is how many consistent classifications flip the output.
	Settle int
}

// DefaultConfig returns thresholds tuned for the simulated ADXL311.
func DefaultConfig() Config {
	return Config{
		FlatMaxG:  0.12,
		TiltMinG:  0.55,
		HandMinG:  0.10,
		MoveVarG2: 0.01,
		Settle:    3,
	}
}

// Detector turns accelerometer samples into a debounced Context.
type Detector struct {
	cfg Config

	current   Context
	candidate Context
	streak    int

	// running variance of the magnitude, for Moving.
	histMag [8]float64
	histN   int
	histIdx int
	samples uint64
}

// NewDetector returns a detector with the given thresholds; a zero Settle
// falls back to the default.
func NewDetector(cfg Config) *Detector {
	if cfg.Settle <= 0 {
		cfg.Settle = DefaultConfig().Settle
	}
	return &Detector{cfg: cfg}
}

// Current returns the debounced context.
func (d *Detector) Current() Context { return d.current }

// Samples reports how many samples were consumed.
func (d *Detector) Samples() uint64 { return d.samples }

// FeedVoltages consumes one pair of ADXL311 output voltages.
func (d *Detector) FeedVoltages(vx, vy float64) Context {
	o := adxl311.TiltFromVoltages(vx, vy)
	gx := math.Sin(o.Pitch)
	gy := math.Sin(o.Roll)
	return d.FeedG(gx, gy)
}

// FeedG consumes one pair of axis accelerations in g.
func (d *Detector) FeedG(gx, gy float64) Context {
	d.samples++

	mag := math.Hypot(gx, gy)
	d.histMag[d.histIdx] = mag
	d.histIdx = (d.histIdx + 1) % len(d.histMag)
	if d.histN < len(d.histMag) {
		d.histN++
	}

	next := Context{Posture: d.classifyPosture(gx, gy), Hand: d.classifyHand(gy)}
	next.Moving = d.movementVariance() > d.cfg.MoveVarG2

	// Debounce posture+hand; Moving is immediate (it is already a
	// windowed statistic).
	if next.Posture == d.candidate.Posture && next.Hand == d.candidate.Hand {
		d.streak++
	} else {
		d.candidate = next
		d.streak = 1
	}
	if d.streak >= d.cfg.Settle {
		d.current.Posture = d.candidate.Posture
		d.current.Hand = d.candidate.Hand
	}
	d.current.Moving = next.Moving
	return d.current
}

func (d *Detector) classifyPosture(gx, gy float64) Posture {
	switch {
	case math.Abs(gx) < d.cfg.FlatMaxG && math.Abs(gy) < d.cfg.FlatMaxG:
		return PostureFlat
	case math.Abs(gy) > d.cfg.TiltMinG:
		return PostureTilted
	default:
		return PostureHeld
	}
}

func (d *Detector) classifyHand(gy float64) Hand {
	switch {
	case gy < -d.cfg.HandMinG:
		return HandRight // right-hand grip rolls the top edge left
	case gy > d.cfg.HandMinG:
		return HandLeft
	default:
		return HandUnknown
	}
}

func (d *Detector) movementVariance() float64 {
	if d.histN < 2 {
		return 0
	}
	mean := 0.0
	for i := 0; i < d.histN; i++ {
		mean += d.histMag[i]
	}
	mean /= float64(d.histN)
	v := 0.0
	for i := 0; i < d.histN; i++ {
		dm := d.histMag[i] - mean
		v += dm * dm
	}
	return v / float64(d.histN-1)
}
