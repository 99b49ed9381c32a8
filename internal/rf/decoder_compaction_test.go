package rf

import (
	"testing"

	"github.com/hcilab/distscroll/internal/sim"
)

// TestDecoderBufferBoundedOverLongStream is the buffer-compaction soak: it
// streams several megabytes of framed traffic with interleaved garbage
// through one decoder in tiny 1–7 byte chunks — the worst chunking for an
// incremental parser, since nearly every feed leaves a partial frame
// buffered — and asserts that (a) every frame is recovered in order and
// (b) the internal scratch buffer's capacity stays bounded by one maximum
// frame plus the chunk size, i.e. compaction actually reclaims consumed
// bytes instead of letting the backing array grow with the stream.
func TestDecoderBufferBoundedOverLongStream(t *testing.T) {
	rng := sim.NewRand(1)

	// Build the stream: frames with varied payload sizes, separated every
	// few frames by random garbage that must be resynced past. Garbage is
	// drawn without 0xAA so it cannot fake a sync prefix and eat the next
	// real frame's header.
	var stream []byte
	var want []uint32 // per-frame first-4-byte checksum, in order
	frames := 0
	for len(stream) < 4<<20 {
		size := 1 + rng.Intn(MaxPayload)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		var err error
		stream, err = AppendEncode(stream, payload)
		if err != nil {
			t.Fatal(err)
		}
		sum := uint32(0)
		for i := 0; i < 4 && i < len(payload); i++ {
			sum = sum<<8 | uint32(payload[i])
		}
		want = append(want, sum^uint32(size))
		frames++
		if frames%5 == 0 {
			for g := rng.Intn(20); g > 0; g-- {
				b := byte(rng.Intn(255))
				if b == sync0 {
					b = 0
				}
				stream = append(stream, b)
			}
		}
	}

	d := NewDecoder()
	got := 0
	maxCap := 0
	fn := func(p []byte) {
		sum := uint32(0)
		for i := 0; i < 4 && i < len(p); i++ {
			sum = sum<<8 | uint32(p[i])
		}
		if got < len(want) && sum^uint32(len(p)) != want[got] {
			t.Fatalf("frame %d: payload mismatch", got)
		}
		got++
	}
	const maxChunk = 7
	for off := 0; off < len(stream); {
		n := 1 + rng.Intn(maxChunk)
		if off+n > len(stream) {
			n = len(stream) - off
		}
		d.FeedFunc(stream[off:off+n], fn)
		off += n
		if c := cap(d.buf); c > maxCap {
			maxCap = c
		}
	}

	if got != frames {
		t.Fatalf("recovered %d frames, want %d", got, frames)
	}
	// The scratch can hold at most one incomplete frame plus one fed chunk;
	// append's growth policy may round that up, but never to anything that
	// scales with the multi-megabyte stream.
	const bound = 2 * (maxFrame + maxChunk)
	if maxCap > bound {
		t.Fatalf("decoder buffer grew to %d bytes (bound %d): compaction is not reclaiming consumed bytes", maxCap, bound)
	}
	t.Logf("stream %d bytes, %d frames, peak scratch capacity %d bytes", len(stream), frames, maxCap)
}
