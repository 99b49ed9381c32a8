// Package buttons models the push buttons of the DistScroll prototype:
// "two of them situated in the middle area of the device on the left side
// and one button situated near the top on the right side" (paper Section
// 4.5), debounced in firmware, used to select menu entries.
//
// Section 6 of the paper discusses alternative layouts — a two-button
// design with buttons slidable along the sides, and a single large button
// usable with either hand — which Layout captures.
package buttons

import (
	"fmt"
	"time"
)

// ID identifies a button position on the case.
type ID int

// Button positions of the three-button prototype.
const (
	TopRight ID = iota + 1 // thumb button: "most conveniently operated with the thumb"
	LeftUpper
	LeftLower
)

// String returns the position name.
func (id ID) String() string {
	switch id {
	case TopRight:
		return "top-right"
	case LeftUpper:
		return "left-upper"
	case LeftLower:
		return "left-lower"
	default:
		return fmt.Sprintf("button(%d)", int(id))
	}
}

// Handedness selects which hand the layout is optimised for.
type Handedness int

// Hand options.
const (
	RightHanded Handedness = iota + 1
	LeftHanded
	Ambidextrous
)

// Layout describes a button arrangement under study.
type Layout struct {
	Name     string
	Buttons  []ID
	Hand     Handedness
	Slidable bool // buttons can slide along the case sides (Section 6)
}

// PrototypeLayout is the three-button right-handed layout of the built
// prototype.
func PrototypeLayout() Layout {
	return Layout{
		Name:    "prototype-3button",
		Buttons: []ID{TopRight, LeftUpper, LeftLower},
		Hand:    RightHanded,
	}
}

// SlidableTwoButtonLayout is the favoured future design: "a two button
// design with the buttons slidable along the sides of the device".
func SlidableTwoButtonLayout() Layout {
	return Layout{
		Name:     "slidable-2button",
		Buttons:  []ID{TopRight, LeftUpper},
		Hand:     Ambidextrous,
		Slidable: true,
	}
}

// SingleLargeButtonLayout is the alternative "one large button that can
// easily be pressed independently of which hand is used".
func SingleLargeButtonLayout() Layout {
	return Layout{
		Name:    "single-large",
		Buttons: []ID{TopRight},
		Hand:    Ambidextrous,
	}
}

// EventKind distinguishes press and release edges.
type EventKind int

// Edge kinds.
const (
	Press EventKind = iota + 1
	Release
)

// Event is a debounced button edge.
type Event struct {
	Button ID
	Kind   EventKind
	At     time.Duration
}

// DefaultDebounce is the firmware debounce interval.
const DefaultDebounce = 20 * time.Millisecond

// Pad is a set of debounced buttons scanned by the firmware.
type Pad struct {
	layout   Layout
	debounce time.Duration
	// keys holds each button's state in layout order.
	keys []key
}

// key is the debounce state of one button.
type key struct {
	raw      bool          // electrical level set by the environment
	stable   bool          // debounced level
	lastEdge time.Duration // time of last raw edge
}

// NewPad returns a pad for the given layout with the default debounce.
func NewPad(layout Layout) *Pad {
	return &Pad{
		layout:   layout,
		debounce: DefaultDebounce,
		keys:     make([]key, len(layout.Buttons)),
	}
}

// SetDebounce overrides the debounce interval.
func (p *Pad) SetDebounce(d time.Duration) {
	if d >= 0 {
		p.debounce = d
	}
}

// Layout returns the pad layout.
func (p *Pad) Layout() Layout { return p.layout }

// Has reports whether the layout contains the button.
func (p *Pad) Has(id ID) bool { return p.key(id) != nil }

// key returns the state of a button, or nil when the layout lacks it.
func (p *Pad) key(id ID) *key {
	for i, b := range p.layout.Buttons {
		if b == id {
			return &p.keys[i]
		}
	}
	return nil
}

// Set drives the electrical level of a button (true = pressed) at the given
// time. Unknown buttons are ignored, matching a wire to nowhere.
func (p *Pad) Set(id ID, pressed bool, at time.Duration) {
	k := p.key(id)
	if k != nil && k.raw != pressed {
		k.raw = pressed
		k.lastEdge = at
	}
}

// Scan performs a firmware scan at the given time: any raw level that has
// been stable for the debounce interval and differs from the debounced
// state produces an event.
func (p *Pad) Scan(at time.Duration) []Event {
	var events []Event
	for i := range p.keys {
		k := &p.keys[i]
		if k.raw == k.stable || at-k.lastEdge < p.debounce {
			continue
		}
		k.stable = k.raw
		kind := Release
		if k.raw {
			kind = Press
		}
		events = append(events, Event{Button: p.layout.Buttons[i], Kind: kind, At: at})
	}
	return events
}

// Pressed reports the debounced state of a button.
func (p *Pad) Pressed(id ID) bool {
	k := p.key(id)
	return k != nil && k.stable
}

// Tap is a test/scenario helper: it presses and releases a button with
// edges spaced so both pass debouncing, returning the time after release
// settles.
func (p *Pad) Tap(id ID, at time.Duration) time.Duration {
	p.Set(id, true, at)
	p.Scan(at + p.debounce)
	release := at + p.debounce + 30*time.Millisecond
	p.Set(id, false, release)
	end := release + p.debounce
	p.Scan(end)
	return end
}
