package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/wire"
)

// scrapeMetrics fetches and parses GET /metrics, failing the test on
// any exposition-format violation the parser can detect.
func scrapeMetrics(t *testing.T, baseURL string) []obs.Family {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	fams, err := obs.ParseFamilies(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

func familyValue(t *testing.T, fams []obs.Family, name string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			if len(f.Samples) != 1 {
				t.Fatalf("%s has %d samples, want 1", name, len(f.Samples))
			}
			return f.Samples[0].Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestMetricsExposition drives the engine backend through HTTP and wire
// traffic and asserts GET /metrics renders parse-valid Prometheus text
// exposition whose counters agree with /stats and whose histograms saw
// the traffic.
func TestMetricsExposition(t *testing.T) {
	edges := testStream(3000, 21)
	_, ts := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, edges[:1000]))})

	if code, _ := postIngest(t, ts.URL, edges, true); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	qbody := `{"queries":[{"src":1,"dst":101},{"src":2,"dst":102}]}`
	qresp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	// One wire-framed HTTP ingest so the wire decode histogram has data.
	frame := wire.AppendIngest(nil, edges[:64])
	wresp, err := http.Post(ts.URL+"/ingest?sync=1", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()

	fams := scrapeMetrics(t, ts.URL)

	if got := familyValue(t, fams, "gsketch_ingest_requests_total"); got != 2 {
		t.Errorf("ingest_requests_total = %v, want 2", got)
	}
	if got := familyValue(t, fams, "gsketch_edges_accepted_total"); got != float64(len(edges)+64) {
		t.Errorf("edges_accepted_total = %v, want %d", got, len(edges)+64)
	}
	if got := familyValue(t, fams, "gsketch_queries_answered_total"); got != 2 {
		t.Errorf("queries_answered_total = %v, want 2", got)
	}
	if got := familyValue(t, fams, "gsketch_engine_stream_total"); got <= 0 {
		t.Errorf("engine_stream_total = %v, want > 0", got)
	}
	if got := familyValue(t, fams, "gsketch_ready"); got != 1 {
		t.Errorf("gsketch_ready = %v, want 1", got)
	}

	// Per-route HTTP latency: the ingest route saw both requests.
	h, err := obs.FindHistogram(fams, "gsketch_http_request_duration_seconds",
		map[string]string{"route": "POST /ingest"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 2 {
		t.Errorf("ingest route histogram count = %d, want 2", h.Count)
	}
	// Wire decode latency saw the framed body.
	wd, err := obs.FindHistogram(fams, "gsketch_wire_frame_decode_duration_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if wd.Count != 1 {
		t.Errorf("wire decode histogram count = %d, want 1", wd.Count)
	}

	// /stats derives from the same registry: its counter keys must agree
	// with the exposition (and keep their PR-era names).
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	stats := string(raw)
	for key, want := range map[string]float64{
		"ingest_requests": 2,
		"edges_accepted":  float64(len(edges) + 64),
		"query_requests":  1,
		"wire_frames":     1,
	} {
		if !strings.Contains(stats, fmt.Sprintf("%q:%d", key, int64(want))) {
			t.Errorf("/stats missing %q:%d in %s", key, int64(want), stats)
		}
	}
}

// TestMetricsQuantilesBracketInjectedLatencies injects known durations
// straight into a registry histogram and asserts the scraped quantiles
// bracket them — the end-to-end path of the bench's server-side view.
func TestMetricsQuantilesBracketInjectedLatencies(t *testing.T) {
	srv, ts := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, testStream(500, 3)))})
	h := srv.Metrics().Histogram("test_injected_seconds", "injected", nil)
	for i := 0; i < 98; i++ {
		h.ObserveDuration(3 * time.Millisecond)
	}
	h.ObserveDuration(600 * time.Millisecond)
	h.ObserveDuration(700 * time.Millisecond)

	fams := scrapeMetrics(t, ts.URL)
	snap, err := obs.FindHistogram(fams, "test_injected_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 100 {
		t.Fatalf("scraped count = %d, want 100", snap.Count)
	}
	if p50 := snap.Quantile(0.50); p50 < 0.0025 || p50 > 0.005 {
		t.Errorf("p50 = %v, want within (0.0025, 0.005]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 0.5 || p99 > 1.0 {
		t.Errorf("p99 = %v, want within (0.5, 1.0]", p99)
	}
}

// TestReadyzFlipsDuringRestore streams a snapshot restore body through
// a pipe, holding the swap window open: /readyz must answer 503 while
// the restore is in flight and 200 again after it lands, while
// /healthz stays 200 throughout (alive ≠ ready).
func TestReadyzFlipsDuringRestore(t *testing.T) {
	srv, ts := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, testStream(2000, 7)))})

	getCode := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := getCode("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before restore: %d", code)
	}

	var snap bytes.Buffer
	if _, err := srv.Engine().Save(&snap); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	restored := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/snapshot/restore", "application/octet-stream", pr)
		if err != nil {
			restored <- -1
			return
		}
		resp.Body.Close()
		restored <- resp.StatusCode
	}()

	// The server is blocked reading the body inside the swap window.
	deadline := time.Now().Add(5 * time.Second)
	for getCode("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during restore")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := getCode("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during restore: %d, want 200", code)
	}

	if _, err := pw.Write(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-restored; code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	if code := getCode("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after restore: %d", code)
	}
}

// TestInstrumentedWireConnAllocs guards the TCP wire pipeline the same
// way alloc_test guards the HTTP path: per-frame instrumentation (two
// histograms + byte counters) must not add allocations.
func TestWireHistogramObserveIsAllocFree(t *testing.T) {
	srv, _ := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, testStream(500, 5)))})
	start := time.Now()
	if n := testing.AllocsPerRun(500, func() {
		srv.metrics.wireDecode.ObserveSince(start)
		srv.metrics.wireApply[wire.TypeIngest].ObserveSince(start)
		srv.stats.wireBytesIn.Add(64)
	}); n != 0 {
		t.Fatalf("wire instrumentation allocates %v per frame, want 0", n)
	}
}
