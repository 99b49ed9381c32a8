package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// RealtimeRunner drives a Device's virtual clock against the wall clock so
// interactive front-ends (GUIs, demos) can use the simulation live. It is
// the only concurrent component in the library and follows the managed-
// worker pattern: Start spawns one goroutine, Stop signals it and waits.
//
// Host events are forwarded into a buffered channel; if the consumer lags
// behind, events are dropped and counted rather than blocking the clock.
type RealtimeRunner struct {
	dev *Device
	// speed is the virtual-to-wall time ratio (2 = twice real time).
	speed float64
	// slice is the virtual time advanced per wakeup.
	slice time.Duration

	events  chan Event
	cmds    chan func(*Device)
	stop    chan struct{}
	done    chan struct{}
	started bool
	// closed marks the events channel as closed; the host tap keeps
	// firing if the caller runs the device after Stop, and must not send.
	closed  bool
	mu      sync.Mutex
	dropped uint64
	runErr  error
}

// Runner errors.
var (
	// ErrAlreadyStarted is returned by a second Start.
	ErrAlreadyStarted = errors.New("core: runner already started")
	// ErrNotStarted is returned by Stop before Start.
	ErrNotStarted = errors.New("core: runner not started")
)

// NewRealtimeRunner wraps a device. speed <= 0 defaults to 1 (real time);
// buffer is the event channel capacity (default 64).
func NewRealtimeRunner(dev *Device, speed float64, buffer int) (*RealtimeRunner, error) {
	if dev == nil || dev.Host == nil {
		return nil, errors.New("core: runner needs a device with its own Host (no Config.Sink)")
	}
	if speed <= 0 {
		speed = 1
	}
	if buffer <= 0 {
		buffer = 64
	}
	r := &RealtimeRunner{
		dev:    dev,
		speed:  speed,
		slice:  20 * time.Millisecond,
		events: make(chan Event, buffer),
		cmds:   make(chan func(*Device), 16),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	dev.Host.Tap(func(e Event) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			r.dropped++
			return
		}
		select {
		case r.events <- e:
		default:
			r.dropped++
		}
	})
	return r, nil
}

// Events returns the live event stream. It is closed by Stop.
func (r *RealtimeRunner) Events() <-chan Event { return r.events }

// Dropped reports events discarded because the consumer lagged.
func (r *RealtimeRunner) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Do schedules a device mutation (SetDistance, PressSelect, ...) onto the
// runner goroutine — the only safe way to touch the device while the
// runner is live. It blocks when the command queue is full and returns
// false if the runner has stopped.
func (r *RealtimeRunner) Do(fn func(*Device)) bool {
	// A stopped runner refuses deterministically even when the command
	// queue has space.
	select {
	case <-r.done:
		return false
	default:
	}
	select {
	case r.cmds <- fn:
		return true
	case <-r.done:
		return false
	}
}

// Start launches the clock-driving goroutine.
func (r *RealtimeRunner) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return ErrAlreadyStarted
	}
	r.started = true

	go func() {
		defer close(r.done)
		defer func() {
			r.mu.Lock()
			r.closed = true
			r.mu.Unlock()
			close(r.events)
		}()
		wall := time.Duration(float64(r.slice) / r.speed)
		ticker := time.NewTicker(wall)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case fn := <-r.cmds:
				// Device mutations run on this goroutine only: the
				// Device itself is single-threaded by design.
				fn(r.dev)
			case <-ticker.C:
				// The device's Run executes firmware cycles, radio
				// deliveries and (via the tap) event forwarding.
				if err := r.dev.Run(r.slice); err != nil {
					r.mu.Lock()
					r.runErr = fmt.Errorf("core: realtime run: %w", err)
					r.mu.Unlock()
					return
				}
			}
		}
	}()
	return nil
}

// Stop signals the goroutine, waits for it to exit and returns any run
// error. Safe to call once; a second call returns ErrNotStarted.
func (r *RealtimeRunner) Stop() error {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return ErrNotStarted
	}
	r.started = false
	r.mu.Unlock()

	close(r.stop)
	<-r.done

	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runErr
}
