package rf

import (
	"bytes"
	"testing"
)

// FuzzDecoderChunkSplit pins the decoder's chunking contract: a byte stream
// fed whole, or cut into chunks through FeedFunc, must yield the same
// payloads in the same order, the same DecoderStats and the same buffered
// tail. Each byte of splits is the length of the next chunk (0 feeds an
// empty chunk); whatever the splits leave over is fed as one last chunk.
//
// The seed corpus in testdata/fuzz covers clean frames, line noise between
// frames, a corrupted CRC, a false sync pattern inside a payload, a
// truncated tail and a lone trailing sync byte.
func FuzzDecoderChunkSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, splits []byte) {
		feed := func(chunks [][]byte) ([][]byte, DecoderStats, int) {
			dec := NewDecoder()
			var out [][]byte
			for _, c := range chunks {
				dec.FeedFunc(c, func(p []byte) { out = append(out, bytes.Clone(p)) })
			}
			return out, dec.Stats(), dec.Buffered()
		}

		var chunks [][]byte
		rest := stream
		for _, s := range splits {
			n := min(int(s), len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		chunks = append(chunks, rest)

		wantOut, wantStats, wantBuf := feed([][]byte{stream})
		gotOut, gotStats, gotBuf := feed(chunks)
		if len(gotOut) != len(wantOut) {
			t.Fatalf("split feed decoded %d payloads, whole feed %d", len(gotOut), len(wantOut))
		}
		for i := range wantOut {
			if !bytes.Equal(gotOut[i], wantOut[i]) {
				t.Fatalf("payload %d: split feed %x, whole feed %x", i, gotOut[i], wantOut[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("stats: split feed %+v, whole feed %+v", gotStats, wantStats)
		}
		if gotBuf != wantBuf {
			t.Fatalf("buffered tail: split feed %d bytes, whole feed %d", gotBuf, wantBuf)
		}
	})
}
