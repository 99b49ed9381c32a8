package rf

import (
	"bytes"
	"fmt"
	"testing"
)

// encodeSeq returns n framed payloads "p0".."pN" plus the raw payloads.
func encodeSeq(t *testing.T, n int) (frames [][]byte, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("p%02d", i))
		f, err := AppendEncode(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		payloads = append(payloads, p)
	}
	return frames, payloads
}

// feedAll pushes every stream chunk through the decoder and collects copies
// of the decoded payloads (FeedFunc's payloads alias the decoder scratch).
func feedAll(dec *Decoder, chunks ...[]byte) [][]byte {
	var got [][]byte
	for _, c := range chunks {
		dec.FeedFunc(c, func(p []byte) { got = append(got, append([]byte(nil), p...)) })
	}
	return got
}

// TestDecoderResyncCorruptSyncBytes corrupts each of the two sync bytes of a
// frame in a longer stream; the decoder must drop only that frame and decode
// every following one.
func TestDecoderResyncCorruptSyncBytes(t *testing.T) {
	for _, idx := range []int{0, 1} {
		dec := NewDecoder()
		frames, payloads := encodeSeq(t, 5)
		frames[2] = append([]byte(nil), frames[2]...)
		frames[2][idx] ^= 0xFF // break sync0 or sync1
		got := feedAll(dec, bytes.Join(frames, nil))
		// Frame 2 is lost; depending on where the scan lands, the decoder
		// may also consume into frame 3, but it must recover by frame 4.
		if len(got) < 3 {
			t.Fatalf("sync byte %d: recovered only %d frames", idx, len(got))
		}
		last := got[len(got)-1]
		if !bytes.Equal(last, payloads[4]) {
			t.Fatalf("sync byte %d: last decoded %q, want %q", idx, last, payloads[4])
		}
	}
}

// TestDecoderResyncCorruptLenByte corrupts a length byte upward, which makes
// the decoder swallow the following good frames while it waits for the
// phantom long frame. The CRC check must fail, the decoder must rescan
// inside its buffer, and the stream must flow again.
func TestDecoderResyncCorruptLenByte(t *testing.T) {
	dec := NewDecoder()
	frames, payloads := encodeSeq(t, 40)
	bad := append([]byte(nil), frames[0]...)
	bad[2] = MaxPayload // inflate the length field far beyond the real frame
	stream := bytes.Join(append([][]byte{bad}, frames[1:]...), nil)
	got := feedAll(dec, stream)
	if len(got) == 0 {
		t.Fatal("decoder never recovered from a corrupted length byte")
	}
	last := got[len(got)-1]
	if !bytes.Equal(last, payloads[len(payloads)-1]) {
		t.Fatalf("last decoded %q, want %q", last, payloads[len(payloads)-1])
	}
	if dec.Stats().CRCErrors == 0 {
		t.Fatal("phantom frame passed CRC")
	}
}

// TestDecoderResyncMidStreamGarbage interleaves bursts of garbage — which
// include stray sync bytes — between good frames. Every good frame must
// still decode.
func TestDecoderResyncMidStreamGarbage(t *testing.T) {
	dec := NewDecoder()
	frames, payloads := encodeSeq(t, 6)
	garbage := []byte{0x00, 0xAA, 0x55, 0x03, 0xFF, 0xAA, 0x7E, 0x55}
	var chunks [][]byte
	for _, f := range frames {
		chunks = append(chunks, garbage, f)
	}
	got := feedAll(dec, chunks...)
	// Garbage containing a plausible sync+len prefix may swallow the next
	// real frame before the CRC rejects it; the decoder must still deliver
	// most of the stream and end in sync.
	if len(got) < len(frames)/2 {
		t.Fatalf("recovered only %d of %d frames", len(got), len(frames))
	}
	if !bytes.Equal(got[len(got)-1], payloads[len(payloads)-1]) {
		t.Fatalf("last decoded %q, want %q", got[len(got)-1], payloads[len(payloads)-1])
	}
	if dec.Stats().Resyncs == 0 {
		t.Fatal("garbage consumed without resync accounting")
	}
}

// TestDecoderByteAtATimeUnderCorruption drip-feeds a corrupted stream one
// byte at a time — the worst-case framing path.
func TestDecoderByteAtATimeUnderCorruption(t *testing.T) {
	dec := NewDecoder()
	frames, payloads := encodeSeq(t, 4)
	frames[1] = append([]byte(nil), frames[1]...)
	frames[1][4] ^= 0x10 // flip a payload bit: CRC must reject
	stream := bytes.Join(frames, nil)
	var got [][]byte
	for i := range stream {
		got = append(got, feedAll(dec, stream[i:i+1])...)
	}
	if len(got) < 2 {
		t.Fatalf("recovered %d frames", len(got))
	}
	if !bytes.Equal(got[len(got)-1], payloads[3]) {
		t.Fatalf("last decoded %q, want %q", got[len(got)-1], payloads[3])
	}
	if dec.Stats().CRCErrors == 0 {
		t.Fatal("corruption not caught by CRC")
	}
}
