// Package distscroll is a full simulation of DistScroll, the one-handed
// distance-based interaction device of Kranz, Holleis and Schmidt (ICDCS
// Workshops 2005).
//
// A Device assembles the complete prototype in software — Sharp GP2D120
// distance sensor, PIC-style ADC, Smart-Its board, two I2C chip-on-glass
// displays, push buttons, island mapping firmware and the RF link to a
// host — and navigates a hierarchical menu by varying the simulated
// distance between the device and the user's body:
//
//	dev, err := distscroll.New(distscroll.WithMenu(distscroll.PhoneMenu()))
//	if err != nil { ... }
//	defer dev.Close()
//	dev.OnScroll(func(e distscroll.Event) { fmt.Println("cursor:", e.Index) })
//	dev.GlideTo(10, time.Second) // move the device to 10 cm over 1 s
//	dev.Run(2 * time.Second)     // advance virtual time
//	dev.PressSelect()
//	dev.Run(time.Second)
//
// Everything runs on a deterministic virtual clock; nothing sleeps.
package distscroll

import (
	"errors"
	"fmt"
	"time"

	"github.com/hcilab/distscroll/internal/adxl311"
	"github.com/hcilab/distscroll/internal/buttons"
	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/firmware"
	"github.com/hcilab/distscroll/internal/mapping"
)

// EventKind labels host-side events.
type EventKind string

// Event kinds delivered to handlers.
const (
	EventScroll EventKind = "scroll"
	EventSelect EventKind = "select"
	EventLevel  EventKind = "level"
)

// Event is a decoded device event.
type Event struct {
	Kind EventKind
	// Index is the entry index (scroll/select) or the new depth (level).
	Index int
	// Entry is the entry title where applicable.
	Entry string
	// At is the host arrival time on the virtual clock.
	At time.Duration
}

// Direction selects the scroll-direction mapping.
type Direction = mapping.Direction

// Direction values (paper Section 7, open question 4).
const (
	TowardsIsDown = mapping.TowardsIsDown
	TowardsIsUp   = mapping.TowardsIsUp
)

// Option configures a Device.
type Option func(*config) error

type config struct {
	core core.Config
	root *Item
	// opsAddr, slo and history configure the fleet-only live ops plane
	// (ops.go).
	opsAddr string
	slo     *SLO
	history *historyOptions
	// hubShards routes fleet frames through the networked ingest gateway
	// in loopback mode (fleet.go); 0 keeps the plain in-process hub.
	hubShards int
}

// WithMenu sets the navigated structure. Required unless WithEntries is
// used.
func WithMenu(root *Item) Option {
	return func(c *config) error {
		if root == nil {
			return errors.New("distscroll: nil menu")
		}
		c.root = root
		return nil
	}
}

// WithEntries sets a flat numbered list of n entries as the structure.
func WithEntries(n int) Option {
	return func(c *config) error {
		if n < 2 {
			return fmt.Errorf("distscroll: need at least 2 entries, got %d", n)
		}
		c.root = NumberedList(n)
		return nil
	}
}

// WithSeed seeds every stochastic model in the device.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.core.Seed = seed
		return nil
	}
}

// WithDeviceID tags the device's telemetry with a wire id (frame v1) so a
// host serving many DistScrolls can attribute frames. Zero — the default —
// is the conventional single-device id.
func WithDeviceID(id uint32) Option {
	return func(c *config) error {
		c.core.DeviceID = id
		return nil
	}
}

// WithScrollRange overrides the physical scroll range in cm (default 4–30,
// the paper's design range).
func WithScrollRange(nearCm, farCm float64) Option {
	return func(c *config) error {
		if farCm <= nearCm || nearCm <= 0 {
			return fmt.Errorf("distscroll: invalid range [%g,%g]", nearCm, farCm)
		}
		c.core.Firmware.Mapping.NearCm = nearCm
		c.core.Firmware.Mapping.FarCm = farCm
		return nil
	}
}

// WithDirection sets the motion→scroll mapping.
func WithDirection(d Direction) Option {
	return func(c *config) error {
		c.core.Firmware.Mapping.Direction = d
		return nil
	}
}

// WithGapFraction sets the island gap fraction in [0,1).
func WithGapFraction(f float64) Option {
	return func(c *config) error {
		if f < 0 || f >= 1 {
			return fmt.Errorf("distscroll: gap fraction %g not in [0,1)", f)
		}
		c.core.Firmware.Mapping.GapFraction = f
		return nil
	}
}

// WithSamplePeriod sets the firmware sensor sampling period.
func WithSamplePeriod(p time.Duration) Option {
	return func(c *config) error {
		if p <= 0 {
			return fmt.Errorf("distscroll: sample period must be positive")
		}
		c.core.Firmware.SamplePeriod = p
		return nil
	}
}

// WithFilter selects the firmware smoothing filter: "raw", "median3",
// "ema" or "median3+ema" (default).
func WithFilter(name string) Option {
	return func(c *config) error {
		switch name {
		case "raw":
			c.core.Firmware.Filter = firmware.Raw
		case "median3":
			c.core.Firmware.Filter = firmware.Median3
		case "ema":
			c.core.Firmware.Filter = firmware.EMA
		case "median3+ema", "":
			c.core.Firmware.Filter = firmware.MedianEMA
		default:
			return fmt.Errorf("distscroll: unknown filter %q", name)
		}
		return nil
	}
}

// WithRadioLink tunes the RF channel (loss probability and base latency).
func WithRadioLink(lossProb float64, latency time.Duration) Option {
	return func(c *config) error {
		if lossProb < 0 || lossProb > 1 {
			return fmt.Errorf("distscroll: loss probability %g not in [0,1]", lossProb)
		}
		c.core.Link.LossProb = lossProb
		c.core.Link.Latency = latency
		return nil
	}
}

// WithReliableDelivery wraps the RF channel in the ARQ retransmission
// layer: the host answers every frame with a cumulative ack over a
// host→device back-channel, unacknowledged frames are retransmitted with
// exponential backoff, and the event stream arrives complete and in order
// even on a lossy link. Ignored with WithoutRadio.
func WithReliableDelivery() Option {
	return func(c *config) error {
		c.core.Reliable = true
		return nil
	}
}

// WithLinkFaults injects correlated channel faults on top of the
// independent per-frame loss of WithRadioLink: burstProb is the per-frame
// chance to start a burst that drops burstLen consecutive frames (pass 0
// to disable; burstLen 0 takes the default length), and ackLossProb drops
// acks on the reverse channel of WithReliableDelivery.
func WithLinkFaults(burstProb float64, burstLen int, ackLossProb float64) Option {
	return func(c *config) error {
		if burstProb < 0 || burstProb > 1 {
			return fmt.Errorf("distscroll: burst probability %g not in [0,1]", burstProb)
		}
		if ackLossProb < 0 || ackLossProb > 1 {
			return fmt.Errorf("distscroll: ack loss probability %g not in [0,1]", ackLossProb)
		}
		if burstLen < 0 {
			return fmt.Errorf("distscroll: negative burst length %d", burstLen)
		}
		c.core.Link.BurstLossProb = burstProb
		c.core.Link.BurstLossLen = burstLen
		c.core.Link.AckLossProb = ackLossProb
		return nil
	}
}

// WithLoopbackHub routes the fleet's frames through the networked
// ingest gateway in its deterministic in-process (loopback) mode: every
// frame is framed for the wire, stream-decoded and demultiplexed across
// the given number of hub shards exactly as the TCP server would do it —
// but synchronously, with no socket and no wall clock, so a seeded fleet
// run reports byte-identical results to the plain in-process hub. Fleet
// only, like the ops plane. Shards <= 0 takes 1.
func WithLoopbackHub(shards int) Option {
	return func(c *config) error {
		if shards < 1 {
			shards = 1
		}
		c.hubShards = shards
		return nil
	}
}

// WithoutRadio removes the RF link (pure on-device operation).
func WithoutRadio() Option {
	return func(c *config) error {
		c.core.Radio = false
		return nil
	}
}

// WithDualSensor enables the second distance sensor the prototype carries
// ("only one is used in our experiments so far"): both are sampled and
// averaged for lower noise.
func WithDualSensor() Option {
	return func(c *config) error {
		c.core.Board.SecondSensor = true
		c.core.Firmware.DualSensor = true
		return nil
	}
}

// WithPowerSave enables sensor duty-cycling: after idleAfter without
// interaction the firmware samples at a slow idle cadence and wakes on
// the first scroll or button activity. Pass 0 for the default (2 s).
func WithPowerSave(idleAfter time.Duration) Option {
	return func(c *config) error {
		if idleAfter < 0 {
			return fmt.Errorf("distscroll: negative idle threshold")
		}
		c.core.Firmware.PowerSave = true
		c.core.Firmware.IdleAfter = idleAfter
		return nil
	}
}

// WithRelativeScrolling switches the firmware from the paper's absolute
// island mapping to speed-dependent relative scrolling: distance *changes*
// step the cursor, with higher gain at higher movement speed. Useful for
// structures far larger than the island mapping can resolve.
func WithRelativeScrolling() Option {
	return func(c *config) error {
		c.core.Firmware.Mode = firmware.Relative
		return nil
	}
}

// WithContextSensing enables the Section 4.3 extension: the accelerometer
// is sampled and the device classifies its posture and holding hand. With
// autoHandedness set (and the slidable two-button layout) the select/back
// roles follow the detected hand.
func WithContextSensing(autoHandedness bool) Option {
	return func(c *config) error {
		c.core.Firmware.ContextSensing = true
		c.core.Firmware.AutoHandedness = autoHandedness
		if autoHandedness {
			c.core.Board.Layout = buttons.SlidableTwoButtonLayout()
			c.core.Firmware.SelectButton = buttons.TopRight
			c.core.Firmware.BackButton = buttons.LeftUpper
		}
		return nil
	}
}

// Device is a complete simulated DistScroll system.
type Device struct {
	inner  *core.Device
	lookup func(index int) string

	onScroll func(Event)
	onSelect func(Event)
	onLevel  func(Event)
}

// New assembles a device.
func New(opts ...Option) (*Device, error) {
	cfg := config{core: core.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.root == nil {
		return nil, errors.New("distscroll: a menu is required (WithMenu or WithEntries)")
	}
	if cfg.opsAddr != "" || cfg.history != nil {
		return nil, errors.New("distscroll: the ops plane watches a fleet run; use NewFleet with WithOpsServer/WithSLOWatchdog/WithHistory")
	}
	if cfg.hubShards > 0 {
		return nil, errors.New("distscroll: the loopback hub serves a fleet; use NewFleet with WithLoopbackHub")
	}
	root := cfg.root.toNode()
	inner, err := core.NewDevice(cfg.core, root)
	if err != nil {
		return nil, err
	}
	d := &Device{inner: inner}
	d.lookup = func(index int) string {
		if index < 0 || index >= inner.Menu.Len() {
			return ""
		}
		return inner.Menu.Entries()[index].Title
	}
	inner.Host.OnScroll(func(e core.Event) {
		if d.onScroll != nil {
			d.onScroll(d.translate(EventScroll, e))
		}
	})
	inner.Host.OnSelect(func(e core.Event) {
		if d.onSelect != nil {
			d.onSelect(d.translate(EventSelect, e))
		}
	})
	inner.Host.OnLevel(func(e core.Event) {
		if d.onLevel != nil {
			d.onLevel(d.translate(EventLevel, e))
		}
	})
	return d, nil
}

func (d *Device) translate(kind EventKind, e core.Event) Event {
	ev := Event{Kind: kind, Index: e.Index, At: e.HostTime}
	if kind != EventLevel {
		ev.Entry = d.lookup(e.Index)
	}
	return ev
}

// Close stops the firmware loop. The device can still drain pending radio
// deliveries with Run.
func (d *Device) Close() { d.inner.Stop() }

// OnScroll registers the scroll handler (called from Run).
func (d *Device) OnScroll(fn func(Event)) { d.onScroll = fn }

// OnSelect registers the selection handler.
func (d *Device) OnSelect(fn func(Event)) { d.onSelect = fn }

// OnLevel registers the level-change handler.
func (d *Device) OnLevel(fn func(Event)) { d.onLevel = fn }

// Run advances virtual time by dur, executing firmware cycles, radio
// deliveries and handlers in order.
func (d *Device) Run(dur time.Duration) error { return d.inner.Run(dur) }

// Now returns the current virtual time.
func (d *Device) Now() time.Duration { return d.inner.Clock.Now() }

// SetDistance instantly positions the device at a body distance in cm.
func (d *Device) SetDistance(cm float64) { d.inner.SetDistance(cm) }

// Distance returns the current body distance in cm.
func (d *Device) Distance() float64 { return d.inner.Distance() }

// GlideTo moves the device smoothly (minimum-jerk) from its current
// distance to target cm over the given duration, then returns. Combine
// with Run: GlideTo schedules the motion, Run executes it. A single
// self-rescheduling callback samples the trajectory and stops exactly when
// the motion completes.
func (d *Device) GlideTo(targetCm float64, over time.Duration) {
	d.inner.GlideTo(targetCm, over)
}

// DistanceForEntry returns the physical distance in cm that selects entry
// index of the current level.
func (d *Device) DistanceForEntry(index int) (float64, error) {
	return d.inner.DistanceForEntry(index)
}

// PressSelect taps the select (thumb) button.
func (d *Device) PressSelect() { d.inner.PressSelect() }

// PressBack taps the back button.
func (d *Device) PressBack() { d.inner.PressBack() }

// Cursor returns the current entry index at the current level.
func (d *Device) Cursor() int { return d.inner.Cursor() }

// CurrentEntry returns the title under the cursor.
func (d *Device) CurrentEntry() string { return d.inner.Menu.CurrentEntry().Title }

// Path returns the breadcrumb from the root to the current entry.
func (d *Device) Path() string { return d.inner.Menu.CurrentEntry().Path() }

// Depth returns the current menu depth (root level = 0).
func (d *Device) Depth() int { return d.inner.Menu.Depth() }

// Entries returns the titles at the current level.
func (d *Device) Entries() []string {
	nodes := d.inner.Menu.Entries()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Title
	}
	return out
}

// TopDisplay returns the rendered top (menu) display.
func (d *Device) TopDisplay() string { return d.inner.TopDisplay() }

// BottomDisplay returns the rendered bottom (debug) display.
func (d *Device) BottomDisplay() string { return d.inner.BottomDisplay() }

// LinkStats reports RF link counters (zero without a radio).
func (d *Device) LinkStats() (sent, delivered, lost uint64) {
	if d.inner.Link == nil {
		return 0, 0, 0
	}
	s := d.inner.Link.Stats()
	return s.Sent, s.Delivered, s.Lost
}

// SetOrientation sets the device attitude sensed by the accelerometer
// (radians): pitch tilts the top towards (+) or away from (−) the user,
// roll tilts it sideways. Only meaningful with WithContextSensing.
func (d *Device) SetOrientation(pitchRad, rollRad float64) {
	d.inner.Board.Accel.SetOrientation(adxl311.Orientation{Pitch: pitchRad, Roll: rollRad})
}

// Context returns the detected posture/hand context as a string, or
// "unknown/unknown" without context sensing.
func (d *Device) Context() string {
	return d.inner.Firmware.Context().String()
}

// Internal exposes the assembled core device for advanced scenarios
// (experiment harnesses, custom environments). Most users never need it.
func (d *Device) Internal() *core.Device { return d.inner }
