package sim

import "time"

// event is one scheduled callback, stored by value in the Scheduler's heap.
type event struct {
	at  time.Duration
	seq uint64 // schedule order: equal-time events fire FIFO
	fn  func(at time.Duration)
}

// before orders events by (time, schedule order).
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Scheduler executes events in virtual-time order on a shared Clock: the
// default implementation, with HeapScheduler as the reference semantics. It
// keeps events by value in one binary min-heap slice with hand-written sifts
// (container/heap would box every push into an interface), so once the slice
// has grown to the working set nothing allocates. A fleet device holds under
// ten pending events: a sift is about three levels, the queue a few hundred
// bytes. Single-threaded by design: callbacks run on the caller's goroutine.
type Scheduler struct {
	clock   *Clock
	queue   []event
	nextSeq uint64
	stopped bool
}

// NewScheduler returns a scheduler driving the given clock.
func NewScheduler(clock *Clock) *Scheduler {
	return &Scheduler{clock: clock}
}

// Clock returns the scheduler's clock.
func (s *Scheduler) Clock() *Clock { return s.clock }

// At schedules fn to run at absolute virtual time t. Events scheduled in the
// past run at the current time.
func (s *Scheduler) At(t time.Duration, fn func(at time.Duration)) {
	if now := s.clock.Now(); t < now {
		t = now
	}
	e := event{at: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func(at time.Duration)) {
	s.At(s.clock.Now()+d, fn)
}

// Every schedules fn to run periodically with the given period, starting one
// period from now, until the returned cancel function is called. A
// non-positive period schedules nothing and returns a no-op cancel: at fleet
// horizons a silently clamped period would be an event storm, so the
// degenerate case is an explicit no-op instead (see EventScheduler).
func (s *Scheduler) Every(period time.Duration, fn func(at time.Duration)) (cancel func()) {
	if period <= 0 {
		return func() {}
	}
	active := true
	var tick func(at time.Duration)
	tick = func(at time.Duration) {
		if !active {
			return
		}
		fn(at)
		if active {
			s.At(at+period, tick)
		}
	}
	s.At(s.clock.Now()+period, tick)
	return func() { active = false }
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Stop aborts a Run in progress (from inside a callback).
func (s *Scheduler) Stop() { s.stopped = true }

// Step executes the next queued event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	n := len(s.queue) - 1
	if n < 0 {
		return false
	}
	q := s.queue
	next, last := q[0], q[n]
	// Sift the former tail down from the root over the first n slots, then
	// zero slot n so the spare capacity holds no closure references.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	q[n] = event{}
	s.queue = q[:n]
	s.clock.Set(next.at)
	next.fn(next.at)
	return true
}

// Run executes events until the queue is empty or the horizon is passed.
// When it returns nil the clock is at the horizon — on a clean drain the
// clock advances the rest of the way so elapsed time is the same whether or
// not a device had late events. Run returns ErrStopped if Stop was called,
// leaving the clock at the stopping event's time.
func (s *Scheduler) Run(horizon time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.queue[0].at > horizon {
			break
		}
		s.Step()
	}
	if s.stopped {
		return ErrStopped
	}
	s.clock.Set(horizon)
	return nil
}
