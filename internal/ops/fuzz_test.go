package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// FuzzHistoryQuery throws raw query strings at /api/history over a
// fixed-clock store holding counter, gauge and histogram series (the
// ring already wrapped). Whatever the query, the handler answers 200 with
// a well-formed, correctly bounded and filtered document, or 400.
func FuzzHistoryQuery(f *testing.F) {
	reg := telemetry.New()
	lat := reg.Histogram(telemetry.MetricHubE2ELatency, telemetry.LatencyBucketsMs)
	st, err := history.New(history.Config{Registry: reg, Windows: 8, Interval: time.Second, Now: histClock()})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		reg.Counter(telemetry.MetricHubDecoded).Add(100)
		reg.Counter(telemetry.ShardName(telemetry.MetricNetFrames, i%2)).Add(50)
		reg.Gauge(telemetry.MetricSimDevices).Set(float64(i))
		lat.Observe(float64(i))
		st.Sample()
	}
	h := Handler(Config{Registry: reg, History: st})

	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/api/history", nil)
		req.URL.RawQuery = raw
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code == http.StatusBadRequest {
			return
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("%q: status %d", raw, rr.Code)
		}
		var res history.Result
		if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
			t.Fatalf("%q: body not a history.Result: %v", raw, err)
		}
		q := req.URL.Query()
		if k, err := strconv.Atoi(q.Get("k")); err == nil && k > 0 && len(res.Times) > k {
			t.Fatalf("%q: %d windows returned for k=%d", raw, len(res.Times), k)
		}
		if len(res.Times) > res.Capacity {
			t.Fatalf("%q: %d windows returned over capacity %d", raw, len(res.Times), res.Capacity)
		}
		for name, sd := range res.Series {
			if !requested(q, name) {
				t.Fatalf("%q: unrequested series %q returned", raw, name)
			}
			for _, col := range [][]float64{sd.Values, sd.Count, sd.P50, sd.P99, sd.Max} {
				if col != nil && len(col) != len(res.Times) {
					t.Fatalf("%q: %s column of %d windows against %d times", raw, name, len(col), len(res.Times))
				}
			}
		}
	})
}

// requested reports whether the query's series/prefix lists select name
// (every name when neither list was given).
func requested(q url.Values, name string) bool {
	series, prefixes := q.Get("series"), q.Get("prefix")
	if series == "" && prefixes == "" {
		return true
	}
	if series != "" && slices.Contains(strings.Split(series, ","), name) {
		return true
	}
	return prefixes != "" && slices.ContainsFunc(strings.Split(prefixes, ","), func(p string) bool {
		return strings.HasPrefix(name, p)
	})
}
