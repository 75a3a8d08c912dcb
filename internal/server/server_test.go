package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/cluster"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/window"
)

// gateEstimator blocks UpdateBatch on a gate so queue-full states are
// deterministic.
type gateEstimator struct {
	gate  chan struct{}
	edges atomic.Int64
}

func (g *gateEstimator) Update(e stream.Edge)               { g.UpdateBatch([]stream.Edge{e}) }
func (g *gateEstimator) UpdateBatch(es []stream.Edge)       { <-g.gate; g.edges.Add(int64(len(es))) }
func (g *gateEstimator) EstimateEdge(src, dst uint64) int64 { return 0 }
func (g *gateEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	return make([]core.Result, len(qs))
}
func (g *gateEstimator) Count() int64     { return g.edges.Load() }
func (g *gateEstimator) MemoryBytes() int { return 0 }

func getStats(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never converged", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postIngest(t *testing.T, baseURL string, edges []stream.Edge, sync bool) (int, ingestResponse) {
	t.Helper()
	url := baseURL + "/ingest"
	if sync {
		url += "?sync=1"
	}
	resp, err := http.Post(url, "application/x-ndjson", ndjsonBody(edges))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ir
}

// TestIngestBackpressure429 drives the pipeline into a deterministic
// queue-full state and checks the 429 mapping: typed shed-load with the
// accepted prefix, never a blocked handler.
func TestIngestBackpressure429(t *testing.T) {
	dest := &gateEstimator{gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, dest,
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 4, QueueDepth: 1}),
		),
	})
	// While the gate is closed the generic-fallback worker holds the
	// estimator's write lock, so state polling goes straight to the
	// ingestor counters (the /stats gauges that read the estimator would
	// block, correctly, until the batch applies).
	ingStats := func() gsketch.IngestStats { return *srv.Engine().IngestStats() }
	edges := testStream(16, 3)

	// Batch 1 → held by the gated worker.
	if code, ir := postIngest(t, ts.URL, edges[:4], false); code != http.StatusOK || ir.Accepted != 4 {
		t.Fatalf("first batch: code %d, %+v", code, ir)
	}
	waitFor(t, "worker pickup", func() bool {
		st := ingStats()
		return st.QueueDepth == 0 && st.Inflight == 1
	})
	// Batch 2 → fills the depth-1 queue.
	if code, ir := postIngest(t, ts.URL, edges[4:8], false); code != http.StatusOK || ir.Accepted != 4 {
		t.Fatalf("second batch: code %d, %+v", code, ir)
	}
	// Batch 3+4 → one batch buffers, the second must be shed with 429.
	code, ir := postIngest(t, ts.URL, edges[8:16], false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429 (%+v)", code, ir)
	}
	if ir.Accepted != 4 || ir.Rejected != 4 {
		t.Fatalf("accepted/rejected = %d/%d, want 4/4", ir.Accepted, ir.Rejected)
	}

	// Open the gate: retrying the shed suffix (honoring each reply's
	// accepted prefix) drains, and every accepted edge lands.
	close(dest.gate)
	for rest := edges[12:16]; len(rest) > 0; {
		code, ir := postIngest(t, ts.URL, rest, true)
		rest = rest[ir.Accepted:]
		if code == http.StatusOK {
			continue
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("retry code %d", code)
		}
		time.Sleep(time.Millisecond)
	}
	if got := dest.Count(); got != 16 {
		t.Fatalf("edges applied = %d, want 16", got)
	}
	m := getStats(t, ts.URL)
	if m["edges_rejected"].(float64) != 4 || m["edges_accepted"].(float64) != 16 {
		t.Fatalf("counter mismatch: %v", m)
	}
}

// TestGracefulShutdownDrains checks Shutdown's drain-then-stop contract:
// edges accepted (but unflushed) before Shutdown are all applied, the
// final snapshot covers them, and post-shutdown requests fail typed.
func TestGracefulShutdownDrains(t *testing.T) {
	snap := t.TempDir() + "/final.gsk"
	edges := testStream(10_000, 5)
	srv, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, edges[:2000]),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 256, QueueDepth: 4}),
			gsketch.WithSnapshotFile(snap),
		),
		SnapshotOnShutdown: true,
	})
	ingestAll(t, ts.URL, edges)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var want int64
	for _, e := range edges {
		want += e.Weight
	}
	if got := srv.Engine().Estimator().Count(); got != want {
		t.Fatalf("drained Count = %d, want %d", got, want)
	}

	// The shutdown snapshot must load and carry the full stream total.
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := core.ReadGSketch(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != want {
		t.Fatalf("snapshot Count = %d, want %d", g.Count(), want)
	}

	// Post-shutdown: health is 503, ingest reports the closed pipeline.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", resp.StatusCode)
	}
	if code, _ := postIngest(t, ts.URL, edges[:4], false); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after shutdown: %d", code)
	}
	// Second Close is a no-op.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowQueryEndpoint checks the optional windowed read path: served
// answers must match an identically configured in-process store fed the
// same stream.
func TestWindowQueryEndpoint(t *testing.T) {
	wcfg := window.StoreConfig{
		Span:       1000,
		SampleSize: 512,
		Sketch:     core.Config{TotalBytes: 16 << 10, Seed: 11},
		Seed:       11,
	}
	reference, err := window.NewStore(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	edges := testStream(8000, 13) // Time = index → 8 windows of span 1000
	if err := reference.ObserveBatch(edges); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, edges[:1000]), gsketch.WithWindows(wcfg)),
	})
	for lo := 0; lo < len(edges); lo += 1000 {
		if code, _ := postIngest(t, ts.URL, edges[lo:lo+1000], true); code != http.StatusOK {
			t.Fatalf("ingest window chunk: %d", code)
		}
	}

	qs := make([]queryJSON, 200)
	cqs := make([]core.EdgeQuery, 200)
	for i := range qs {
		qs[i] = queryJSON{Src: edges[i].Src, Dst: edges[i].Dst}
		cqs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	body, _ := json.Marshal(windowQueryRequest{Queries: qs, T1: 500, T2: 6500})
	resp, err := http.Post(ts.URL+"/query/window", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("window query: %d: %s", resp.StatusCode, raw)
	}
	var wr windowQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	want := reference.EstimateBatch(cqs, 500, 6500)
	if len(wr.Values) != len(want) {
		t.Fatalf("value count %d != %d", len(wr.Values), len(want))
	}
	for i := range want {
		if wr.Values[i] != want[i] {
			t.Fatalf("window value %d: served %v != direct %v", i, wr.Values[i], want[i])
		}
	}

	// Snapshots carry no window state, so restore must refuse while a
	// window store is mounted instead of desynchronizing the two read
	// paths.
	rr, err := http.Post(ts.URL+"/snapshot/restore", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("restore with window store mounted: %d, want 409", rr.StatusCode)
	}
}

// TestNewNeedsExactlyOneBackend: a server fronts one engine, one cluster
// or one tenant registry — never none, never two.
func TestNewNeedsExactlyOneBackend(t *testing.T) {
	eng := openTestEngine(t, buildTestGSketch(t, testStream(100, 3)))
	coord, reg := new(cluster.Coordinator), new(tenant.Registry)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"none", Config{}},
		{"engine+cluster", Config{Engine: eng, Cluster: coord}},
		{"engine+tenants", Config{Engine: eng, Tenants: reg}},
		{"cluster+tenants", Config{Cluster: coord, Tenants: reg}},
		{"all", Config{Engine: eng, Cluster: coord, Tenants: reg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), "exactly one") {
				t.Fatalf("New(%s) = %v, want an exactly-one-backend error", tc.name, err)
			}
		})
	}
}

// TestBadRequests covers the defensive error paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, testStream(1000, 17)))})

	post := func(path, ctype, body string) int {
		resp, err := http.Post(ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/ingest", "application/x-ndjson", "{not json}\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest line: %d", code)
	}
	if code := post("/query", "application/json", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty query batch: %d", code)
	}
	if code := post("/query", "application/json", "]["); code != http.StatusBadRequest {
		t.Fatalf("malformed query body: %d", code)
	}
	if code := post("/snapshot/save", "application/json", "{}"); code != http.StatusBadRequest {
		t.Fatalf("save without path: %d", code)
	}
	// Without a configured SnapshotPath, request paths are refused
	// outright — no arbitrary-path writes or existence probes.
	if code := post("/snapshot/save", "application/json", `{"path":"/tmp/evil.gsk"}`); code != http.StatusForbidden {
		t.Fatalf("save to unconfined path: %d", code)
	}
	if code := post("/snapshot/restore", "application/json", `{"path":"/nonexistent/x.gsk"}`); code != http.StatusForbidden {
		t.Fatalf("restore from unconfined path: %d", code)
	}
	if code := post("/snapshot/restore", "application/octet-stream", "garbage"); code != http.StatusBadRequest {
		t.Fatalf("restore garbage: %d", code)
	}
	// No window store configured → no route.
	if code := post("/query/window", "application/json", `{"queries":[{"src":1,"dst":2}]}`); code != http.StatusNotFound {
		t.Fatalf("window query without store: %d", code)
	}
	// Method mismatch.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}

	// GET /snapshot on an estimator without a serial form must be a clean
	// 500, never a 200 with an empty body the client would save.
	gl, err := core.BuildGlobalSketch(core.Config{TotalWidth: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Engine: openTestEngine(t, gl)})
	snapResp, err := http.Get(ts2.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /snapshot on GlobalSketch: %d, want 500", snapResp.StatusCode)
	}
}

// TestStatsShape checks the /stats payload carries both the expvar
// counters and the live gauges.
func TestStatsShape(t *testing.T) {
	edges := testStream(5000, 19)
	// /stats reports workload gauges only when a recorder is mounted.
	_, ts := newTestServer(t, Config{Engine: openTestEngine(t, buildTestGSketch(t, edges[:1000]),
		gsketch.WithWorkloadRecorder(4096, 0))})
	if code, _ := postIngest(t, ts.URL, edges, true); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	queryBatch(t, ts.URL, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})

	m := getStats(t, ts.URL)
	for _, key := range []string{
		"uptime_seconds", "stream_total", "partitions", "memory_bytes",
		"edges_applied", "queue_depth", "queue_cap", "inflight",
		"ingest_requests", "edges_accepted", "query_requests", "queries_answered",
		"workload_seen", "snapshot_age_seconds",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, m)
		}
	}
	if m["edges_accepted"].(float64) != 5000 || m["queries_answered"].(float64) != 1 {
		t.Fatalf("counters off: %v", m)
	}
	if m["snapshot_age_seconds"].(float64) != -1 {
		t.Fatalf("snapshot age should be -1 before any snapshot: %v", m["snapshot_age_seconds"])
	}
	var healthy struct{ Status string }
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&healthy); err != nil || healthy.Status != "ok" {
		t.Fatalf("healthz: %v %v", healthy, err)
	}
}
