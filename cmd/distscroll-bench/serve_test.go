package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/hubnet"
	"github.com/hcilab/distscroll/internal/rf"
)

// TestServeConnectFlagValidation pins that every networked-hub, saturate
// and link-shaping combination the single-namespace CLI rejected is still
// rejected: serve runs no simulation, saturate is only a load generator,
// and the simulation shaping flags cannot cross the process boundary.
func TestServeConnectFlagValidation(t *testing.T) {
	const (
		srv   = "127.0.0.1:0"
		dst   = "127.0.0.1:9"
		undef = "flag provided but not defined: "
	)
	checkRejected(t, []rejection{
		// serve accepts no simulation, client or report flags
		{[]string{"serve", "-listen", srv, "-connect", dst}, undef + "-connect"},
		{[]string{"serve", "-listen", srv, "-devices", "4"}, undef + "-devices"},
		{[]string{"serve", "-listen", srv, "-bench-csv", "b.csv"}, undef + "-bench-csv"},
		{[]string{"serve", "-listen", srv, "-run", "F3"}, undef + "-run"},
		{[]string{"serve", "-listen", srv, "-o", "report.txt"}, undef + "-o"},
		{[]string{"serve", "-listen", srv, "-loss", "0.1"}, undef + "-loss"},
		{[]string{"serve", "-listen", srv, "-reliable"}, undef + "-reliable"},
		{[]string{"serve", "-listen", srv, "-workers", "4"}, undef + "-workers"},
		{[]string{"serve", "-listen", srv, "-metrics"}, undef + "-metrics"},
		{[]string{"serve", "-listen", srv, "-saturate"}, undef + "-saturate"},
		// serve's own value checks
		{[]string{"serve"}, "-listen is required"},
		{[]string{"serve", "-listen", srv, "-shards", "0"}, "-shards must be at least 1"},
		{[]string{"serve", "-listen", srv, "-for", "-1s"}, "-for must not be negative"},
		{[]string{"serve", "-listen", srv, "-ring-slots", "0"}, "-ring-slots must be at least 1"},
		{[]string{"serve", "-listen", srv, "-ring-batch", "0"}, "-ring-batch must be at least 1"},
		{[]string{"serve", "-listen", srv, "-ring-policy", "shed"}, "must be block or drop"},
		// the serve flags outside serve
		{[]string{"-hub-shards", "4"}, undef + "-hub-shards"},
		{[]string{"-shards", "4"}, undef + "-shards"},
		{[]string{"fleet", "-devices", "2", "-shards", "4"}, undef + "-shards"},
		{[]string{"-serve-for", "5s"}, undef + "-serve-for"},
		{[]string{"-for", "5s"}, undef + "-for"},
		{[]string{"-ring-slots", "128"}, undef + "-ring-slots"},
		{[]string{"scale", "-devices", "10", "-ring-slots", "128"}, undef + "-ring-slots"},
		{[]string{"-ingest-pipeline=false"}, undef + "-ingest-pipeline"},
		// saturate is the load generator only
		{[]string{"saturate", "-connect", dst, "-devices", "2"}, undef + "-devices"},
		{[]string{"saturate", "-connect", dst, "-bench-json", "x.json"}, undef + "-bench-json"},
		{[]string{"saturate", "-connect", dst, "-metrics"}, undef + "-metrics"},
		{[]string{"saturate", "-connect", dst, "-run", "F3"}, undef + "-run"},
		{[]string{"-conns", "4"}, undef + "-conns"},
		{[]string{"-saturate-json", "x.json"}, undef + "-saturate-json"},
		{[]string{"saturate", "-connect", dst, "-conns", "0"}, "-conns must be at least 1"},
		{[]string{"saturate", "-connect", dst, "-conns", "128"}, "would leave some idle"},
		{[]string{"saturate", "-duration", "3s"}, "-connect is required"},
		{[]string{"saturate", "-connect", dst, "-duration", "0s"}, "-duration must be positive"},
		{[]string{"saturate", "-connect", dst, "-saturate-json", "x.json"}, undef + "-saturate-json"},
		{[]string{"saturate", "-connect", dst, "-saturate-shards", "2"}, undef + "-saturate-shards"},
		{[]string{"saturate", "-connect", dst, "-conns", "1,2"}, `invalid value "1,2" for flag -conns`},
		// -connect belongs to a simulation or the load generator
		{[]string{"-connect", dst}, undef + "-connect"},
		{[]string{"scale", "-devices", "100", "-connect", dst, "-scale-json", "x.json"}, undef + "-scale-json"},
		{[]string{"fleet", "-devices", "4", "-connect", dst, "-reliable"}, "acks cannot cross the -connect byte stream"},
		// the study's flags belong to the study
		{[]string{"fleet", "-devices", "2", "-run", "F3"}, undef + "-run"},
		{[]string{"fleet", "-devices", "2", "-csv", "out"}, undef + "-csv"},
		{[]string{"scale", "-devices", "100", "-o", "report.txt"}, undef + "-o"},
		{[]string{"scale", "-devices", "100", "-bench-csv", "b.csv"}, undef + "-bench-csv"},
		{[]string{"-workers", "4"}, undef + "-workers"},
		{[]string{"-loss", "0.1"}, undef + "-loss"},
		// fleet link value checks
		{[]string{"fleet", "-devices", "2", "-burst-len", "3"}, "set -burst > 0 as well"},
		{[]string{"fleet", "-devices", "2", "-ack-loss", "0.1"}, "add -reliable"},
		// stray arguments and unknown commands
		{[]string{"fleet", "-devices", "2", "scale"}, `unexpected argument "scale"`},
		{[]string{"bogus"}, `unknown command "bogus"`},
	})
}

// TestConnectFleetEndToEnd points a fleet run at a live ingest server: the
// CLI must announce the forwarding, the report must defer host accounting
// to the server, and the server must decode every device's frames.
func TestConnectFleetEndToEnd(t *testing.T) {
	srv, err := hubnet.Serve("127.0.0.1:0", hubnet.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	if err := run([]string{"fleet", "-devices", "4", "-connect", srv.Addr().String()}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hubnet: forwarding frames to", "frames forwarded to"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// run() has returned and closed the stream, but the server drains it
	// asynchronously: wait for every device's frames to land.
	gw := srv.Gateway()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().Devices < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	hs := gw.Stats()
	if hs.Devices != 4 || hs.Decoded == 0 || hs.BadFrames != 0 {
		t.Fatalf("server accounting after fleet run: %+v", hs)
	}
}

// TestConnectScaleEndToEnd points a scale run at a live ingest
// server: one stream per worker, every emitted frame decodable server-side.
func TestConnectScaleEndToEnd(t *testing.T) {
	srv, err := hubnet.Serve("127.0.0.1:0", hubnet.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	args := []string{"scale", "-devices", "40", "-workers", "4", "-seed", "9",
		"-duration", "300ms", "-connect", srv.Addr().String()}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hubnet: streaming frames to") {
		t.Fatalf("output missing streaming banner:\n%s", out.String())
	}
	gw := srv.Gateway()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if gw.Stats().Decoded > 0 && gw.NetStats().ConnsTotal >= 4 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ns, hs := gw.NetStats(), gw.Stats()
	if hs.Decoded == 0 || hs.BadFrames != 0 {
		t.Fatalf("server decoded %d frames (%d bad) from the scale run", hs.Decoded, hs.BadFrames)
	}
	if ns.ConnsTotal != 4 {
		t.Fatalf("scale run opened %d connections, want one per worker (4)", ns.ConnsTotal)
	}
}

// syncBuf is a writer safe to read while runServe writes from a goroutine.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeRunSummary drives the serve path end to end through run(): boot
// on an ephemeral port, feed it frames from three devices over one
// connection, and check the deadline-bounded server prints per-shard
// accounting that matches what was sent.
func TestServeRunSummary(t *testing.T) {
	out := &syncBuf{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-listen", "127.0.0.1:0", "-shards", "2", "-for", "2s"}, out)
	}()

	addrRe := regexp.MustCompile(`serving frame ingest on (\S+) \(2 shard\(s\)\)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("server never announced its address:\n%s", out.String())
	}

	conn, err := hubnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for dev := uint32(1); dev <= 3; dev++ {
		for seq := 0; seq < 5; seq++ {
			p := rf.Message{Kind: rf.MsgScroll, Device: dev, Seq: uint16(seq), AtMillis: uint32(seq) * 40}.AppendBinary(nil)
			if err := conn.Forward(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"15 frames (0 bad",
		"hub: 3 device(s), 15 frames decoded",
		"shard 0:",
		"shard 1:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("serve summary missing %q:\n%s", want, got)
		}
	}
}
