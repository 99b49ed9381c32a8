package hubnet

import (
	"maps"
	"slices"
	"testing"

	"github.com/hcilab/distscroll/internal/rf"
)

// FuzzIngestFeed fuzzes the gateway's connection reader: arbitrary bytes
// go through Gateway.NewIngest(...).Feed once in one piece and once cut
// into chunks. Each byte of splits is the length of the next chunk (0
// feeds an empty chunk); whatever the splits leave over is fed as one last
// chunk. Neither feed may panic, and both must end with the same network
// accounting and the same per-device receive counters on every shard. The
// hub must hold exactly one session per distinct device id the stream
// decodes to; random ids land on both the dense and the sparse side of the
// session table.
//
// The seed corpus in testdata/fuzz covers valid frames split mid-header,
// garbage between frames, a max-length payload and the edge device ids 0,
// 2^20-1 and 2^20 (either side of the hub's dense limit) and 0xFFFFFFFF.
func FuzzIngestFeed(f *testing.F) {
	const shards = 3
	f.Fuzz(func(t *testing.T, stream, splits []byte) {
		whole := NewGateway(Config{Shards: shards})
		whole.NewIngest(nil).Feed(stream)

		split := NewGateway(Config{Shards: shards})
		in := split.NewIngest(nil)
		feeds := 1
		rest := stream
		for _, s := range splits {
			n := min(int(s), len(rest))
			in.Feed(rest[:n])
			rest = rest[n:]
			feeds++
		}
		in.Feed(rest)

		got, want := split.NetStats(), whole.NetStats()
		// A short read is a Feed that ends mid-frame, so its count follows
		// the chunking: at most one for the whole feed, at most one per
		// chunk for the split one.
		if want.ShortReads > 1 || got.ShortReads > uint64(feeds) {
			t.Fatalf("short reads: whole feed %d, split feed %d over %d chunks", want.ShortReads, got.ShortReads, feeds)
		}
		got.ShortReads, want.ShortReads = 0, 0
		if got != want {
			t.Fatalf("net stats: split feed %+v, whole feed %+v", got, want)
		}

		ids := make(map[uint32]bool)
		rf.NewDecoder().FeedFunc(stream, func(p []byte) {
			var m rf.Message
			if m.Decode(p) {
				ids[m.Device] = true
			}
		})
		if st := whole.Stats(); st.Devices != len(ids) {
			t.Fatalf("whole feed holds %d sessions for %d distinct device ids", st.Devices, len(ids))
		}
		for sh := 0; sh < shards; sh++ {
			gotIDs, gotStats := split.Shard(sh).PerDeviceStats()
			wantIDs, wantStats := whole.Shard(sh).PerDeviceStats()
			if !slices.Equal(gotIDs, wantIDs) || !maps.Equal(gotStats, wantStats) {
				t.Fatalf("shard %d: split feed %v %+v, whole feed %v %+v", sh, gotIDs, gotStats, wantIDs, wantStats)
			}
			for _, id := range wantIDs {
				if !ids[id] || whole.ShardFor(id) != sh {
					t.Fatalf("shard %d holds device %d (decoded: %v, routes to shard %d)", sh, id, ids[id], whole.ShardFor(id))
				}
			}
		}
	})
}
