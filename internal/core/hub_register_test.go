package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/rf"
)

// maxBytesPerSession bounds the cumulative allocation of registering one
// device: its Session plus its share of the routing structures. Linear
// registration measures a few hundred bytes; a table copied per device
// blows through it within the first few thousand registrations.
const maxBytesPerSession = 1024

// checkLinearRegistration registers id(0), id(1), … id(n-1) on a fresh hub
// and, at every doubling of the count from first on, fails if the bytes
// allocated since the start divided by the sessions registered exceed
// maxBytesPerSession. A quadratic table therefore fails at the first
// doubling where its copies outgrow the bound, long before n.
func checkLinearRegistration(t *testing.T, n, first int, id func(int) uint32) {
	t.Helper()
	h := NewHub(false)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	next := first
	for i := 0; i < n; i++ {
		h.Session(id(i))
		if i+1 != next {
			continue
		}
		runtime.ReadMemStats(&ms)
		per := float64(ms.TotalAlloc-start) / float64(next)
		t.Logf("%7d sessions: %6.0f B/session", next, per)
		if per > maxBytesPerSession {
			t.Fatalf("registering %d sessions allocated %.0f B/session, bound %d: registration is not linear",
				next, per, maxBytesPerSession)
		}
		next *= 2
	}
	if st := h.Stats(); st.Devices != n {
		t.Fatalf("hub holds %d devices, registered %d", st.Devices, n)
	}
}

// TestHubRegistrationLinear pins dense registration (fleet ids 1..n) at a
// constant number of bytes per session up to 2^17 devices.
func TestHubRegistrationLinear(t *testing.T) {
	checkLinearRegistration(t, 1<<17, 1<<12, func(i int) uint32 { return uint32(i + 1) })
}

// TestHubSparseRegistrationLinear pins the same bound for stray ids at or
// above denseLimit, which a single TCP client can mint at will: each one
// must cost its own session, not a copy of every earlier one.
func TestHubSparseRegistrationLinear(t *testing.T) {
	checkLinearRegistration(t, 1<<14, 1<<10, func(i int) uint32 { return denseLimit + uint32(i)*7919 })
}

// TestHubConcurrentRegistration races registrars over interleaved,
// overlapping id ranges that cross several table doublings and reach past
// denseLimit, while readers look sessions up and push frames through
// Handle and ConsumeBatch. Every caller must get the same *Session for an
// id, and the hub must count and list each id exactly once, ascending.
func TestHubConcurrentRegistration(t *testing.T) {
	const registrars, denseIDs, sparseIDs = 8, 5000, 300
	ids := make([]uint32, 0, denseIDs+sparseIDs+1)
	for i := uint32(0); i < denseIDs; i++ {
		ids = append(ids, i)
	}
	for i := uint32(0); i < sparseIDs; i++ {
		ids = append(ids, denseLimit-sparseIDs/2+i)
	}
	ids = append(ids, 0xFFFFFFFF)

	h := NewHub(false)
	// Registrar g walks every id with ids[i]%4 == g%4, the even registrars
	// forwards and the odd ones backwards, so each id is registered by two
	// goroutines racing from opposite ends.
	got := make([]map[uint32]*Session, registrars)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make(map[uint32]*Session)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ids {
				i := k
				if g%2 == 1 {
					i = len(ids) - 1 - k
				}
				if i%4 == g%4 {
					got[g][ids[i]] = h.Session(ids[i])
				}
			}
		}(g)
	}
	// Readers: a Lookup sweep over every id, a Handle stream for the ids
	// ≡ 1 (mod 4) and a ConsumeBatch stream for the ids ≡ 2 (mod 4). Each
	// device's frames come from one reader only, in order, as the hub's
	// contract requires.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		for {
			for _, id := range ids {
				if s, ok := h.Lookup(id); ok && s.Device() != id {
					t.Errorf("Lookup(%d) returned the session of device %d", id, s.Device())
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var handled, batched []uint32
	for i, id := range ids {
		switch i % 4 {
		case 1:
			handled = append(handled, id)
		case 2:
			batched = append(batched, id)
		}
	}
	payloads := make([][]byte, len(handled))
	for i, id := range handled {
		m := rf.Message{Kind: rf.MsgHeartbeat, Device: id}
		payloads[i] = m.AppendBinary(nil)
	}
	go func() {
		defer readers.Done()
		for _, p := range payloads {
			h.Handle(p, time.Millisecond)
		}
	}()
	go func() {
		defer readers.Done()
		var ms []rf.Message
		for len(batched) > 0 {
			k := min(16, len(batched))
			ms = ms[:0]
			for _, id := range batched[:k] {
				ms = append(ms, rf.Message{Kind: rf.MsgHeartbeat, Device: id})
			}
			h.ConsumeBatch(ms, time.Millisecond, func(s *Session, m rf.Message) {
				if s.Device() != m.Device {
					t.Errorf("ConsumeBatch routed device %d to session %d", m.Device, s.Device())
				}
			})
			batched = batched[k:]
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	for g, m := range got {
		for id, s := range m {
			if want, ok := h.Lookup(id); !ok || s != want {
				t.Fatalf("registrar %d holds session %p for device %d, hub has %p", g, s, id, want)
			}
		}
	}
	for i, id := range ids {
		want := uint64(0)
		if i%4 == 1 || i%4 == 2 {
			want = 1 // one frame through Handle or ConsumeBatch
		}
		if st, ok := h.DeviceStats(id); !ok || st.Decoded != want {
			t.Fatalf("device %d: registered %v, decoded %d frames, want %d", id, ok, st.Decoded, want)
		}
	}
	if st := h.Stats(); st.Devices != len(ids) {
		t.Fatalf("Stats().Devices = %d, want %d distinct ids", st.Devices, len(ids))
	}
	if devs := h.Devices(); !slices.Equal(devs, ids) {
		t.Fatalf("Devices() lists %d ids (ascending: %v), want the %d registered ids ascending",
			len(devs), slices.IsSorted(devs), len(ids))
	}
}
