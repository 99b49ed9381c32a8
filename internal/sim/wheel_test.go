package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSchedulerDifferential drives the Scheduler and the heap reference with
// identical randomized schedules — bursts of equal times, nested scheduling
// from callbacks, periodic timers with cancellation, far-future events,
// thousands-deep queues, and staged Run horizons — and requires the exact
// same event sequence (time and identity) from both. This is the proof that
// the default scheduler preserves the reference's per-seed determinism.
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			schedTrace := differentialTrace(NewScheduler(NewClock(0)), seed)
			heapTrace := differentialTrace(NewHeapScheduler(NewClock(0)), seed)
			if len(schedTrace) != len(heapTrace) {
				t.Fatalf("trace lengths differ: scheduler %d, heap %d", len(schedTrace), len(heapTrace))
			}
			for i := range schedTrace {
				if schedTrace[i] != heapTrace[i] {
					t.Fatalf("traces diverge at %d: scheduler %q, heap %q", i, schedTrace[i], heapTrace[i])
				}
			}
			if len(schedTrace) == 0 {
				t.Fatal("empty trace: the differential test exercised nothing")
			}
		})
	}
}

// differentialTrace runs one randomized schedule against s and returns the
// ordered (id, time) trace of every event execution. The schedule depends
// only on the seed, never on the scheduler, so both implementations see the
// same program.
func differentialTrace(s EventScheduler, seed uint64) []string {
	rng := NewRand(seed)
	var trace []string
	note := func(id int) func(time.Duration) {
		return func(at time.Duration) {
			trace = append(trace, fmt.Sprintf("%d@%d", id, at))
		}
	}
	nextID := 0
	id := func() int { nextID++; return nextID }

	// randomAt picks times clustered enough to force equal-time collisions
	// and spread from nanoseconds to tens of seconds ahead.
	randomAt := func(now time.Duration) time.Duration {
		switch rng.Intn(4) {
		case 0: // cluster: collisions at the current millisecond
			return now + time.Duration(rng.Intn(4))*time.Millisecond
		case 1: // near future
			return now + time.Duration(rng.Intn(2_000_000))
		case 2: // mid future
			return now + time.Duration(rng.Intn(4_000_000_000))
		default: // far future, beyond most Run horizons
			return now + time.Duration(4_000_000_000+rng.Intn(30_000_000_000))
		}
	}

	// Every fourth seed queues a burst of thousands of events before the
	// first Run. A fleet device never holds more than a handful, so without
	// it the sift paths below the top few heap levels would go untested.
	// Runs of equal times and far-future times are mixed in.
	if seed%4 == 0 {
		for n := 0; n < 4096; {
			at := randomAt(s.Clock().Now())
			for k := 1 + rng.Intn(8); k > 0; k-- {
				s.At(at, note(id()))
				n++
			}
		}
	}

	var cancels []func()
	for i := 0; i < 40; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			eid := id()
			at := randomAt(s.Clock().Now())
			nest := rng.Intn(3) == 0
			s.At(at, func(now time.Duration) {
				note(eid)(now)
				if nest {
					// Nested scheduling, sometimes at the callback's own time
					// to exercise same-tick ordering.
					inner := id()
					innerAt := now
					if rng2 := (eid+int(now))%2 == 0; rng2 {
						innerAt += time.Duration(eid%5) * time.Millisecond
					}
					s.At(innerAt, note(inner))
				}
			})
		case 3:
			s.After(time.Duration(rng.Intn(50_000_000)), note(id()))
		case 4:
			period := time.Duration(rng.Intn(20_000_000))
			if rng.Intn(5) == 0 {
				period = 0 // exercise the non-positive no-op contract
			}
			cancels = append(cancels, s.Every(period, note(id())))
		case 5:
			if len(cancels) > 0 {
				k := rng.Intn(len(cancels))
				cancels[k]()
			}
		}
		// Occasionally advance through a partial horizon mid-construction so
		// schedules interleave with execution.
		if rng.Intn(4) == 0 {
			horizon := s.Clock().Now() + time.Duration(rng.Intn(3_000_000_000))
			if err := s.Run(horizon); err != nil {
				trace = append(trace, fmt.Sprintf("err=%v", err))
			}
			trace = append(trace, fmt.Sprintf("clock@%d", s.Clock().Now()))
		}
	}
	for _, c := range cancels {
		c()
	}
	if err := s.Run(s.Clock().Now() + 10*time.Second); err != nil {
		trace = append(trace, fmt.Sprintf("err=%v", err))
	}
	trace = append(trace, fmt.Sprintf("final@%d pending=%d", s.Clock().Now(), s.Pending()))
	return trace
}

// TestSchedulerZeroAlloc pins the allocation-free contract of the scheduler
// hot path: once the queue has grown to the schedule's working set, At +
// Step reuse its slots and allocate nothing.
func TestSchedulerZeroAlloc(t *testing.T) {
	clock := NewClock(0)
	s := NewScheduler(clock)
	fn := func(time.Duration) {}
	// Warm the queue beyond the steady-state working set.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	for s.Step() {
	}

	allocs := testing.AllocsPerRun(1000, func() {
		s.After(40*time.Millisecond, fn)
		s.After(40*time.Millisecond, fn)
		s.After(200*time.Millisecond, fn)
		s.Step()
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("scheduler hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSchedulerSlabReuse checks the queue actually recycles its slots: a
// sustained periodic load must not grow it beyond its working set.
func TestSchedulerSlabReuse(t *testing.T) {
	s := NewScheduler(NewClock(0))
	s.Every(time.Millisecond, func(time.Duration) {})
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	grown := cap(s.queue)
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cap(s.queue) != grown {
		t.Fatalf("queue grew from cap %d to %d under steady periodic load", grown, cap(s.queue))
	}
}

// TestSchedulerFootprint bounds what a scheduler costs each fleet device:
// 1,024 schedulers each run a fleet-shaped working set (16 events
// scheduled, then drained), and the bytes allocated per scheduler —
// construction included — must stay within 1 KiB.
func TestSchedulerFootprint(t *testing.T) {
	const n, events = 1024, 16
	fn := func(time.Duration) {}
	// Keeping every scheduler makes it escape to the heap, as a device's
	// does, so construction is counted too.
	keep := make([]*Scheduler, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		s := NewScheduler(NewClock(0))
		for k := 0; k < events; k++ {
			s.After(time.Duration(k%4)*time.Millisecond, fn)
		}
		for s.Step() {
		}
		keep[i] = s
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per scheduler", per)
	if per > 1024 {
		t.Fatalf("each scheduler allocated %d B for a %d-event working set, want <= 1024", per, events)
	}
}

func benchScheduler(b *testing.B, s EventScheduler) {
	fn := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(40*time.Millisecond, fn)
		s.After(41*time.Millisecond, fn)
		s.After(200*time.Millisecond, fn)
		s.Step()
		s.Step()
		s.Step()
	}
}

func BenchmarkScheduler(b *testing.B) {
	benchScheduler(b, NewScheduler(NewClock(0)))
}

func BenchmarkSchedulerHeap(b *testing.B) {
	benchScheduler(b, NewHeapScheduler(NewClock(0)))
}
