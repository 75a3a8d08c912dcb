package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 3000,
			Dst:    rng.Uint64() % 9000,
			Weight: int64(rng.Uint64()%4) + 1,
			Time:   int64(i),
		}
	}
	return edges
}

// testSketchConfig is shared by the direct and served estimators so both
// partition identically.
func testSketchConfig() core.Config {
	return core.Config{TotalBytes: 64 << 10, Seed: 99}
}

func buildTestGSketch(t *testing.T, sample []stream.Edge) *core.GSketch {
	t.Helper()
	g, err := core.BuildGSketch(testSketchConfig(), sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openTestEngine opens an engine over est with a mounted ingest pipeline —
// the wiring the HTTP and wire paths serve through — plus the test's own
// options (a later WithIngest replaces the default pipeline config). The
// server closes the engine on Shutdown; the cleanup covers a failed New.
func openTestEngine(t *testing.T, est core.Estimator, opts ...gsketch.Option) *gsketch.Engine {
	t.Helper()
	eng, err := gsketch.Open(gsketch.Config{}, append([]gsketch.Option{
		gsketch.WithEstimator(est),
		gsketch.WithIngest(ingest.Config{}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// openAdaptiveEngine is openTestEngine over a chain with a repartition
// manager (thresholds mc) fed by a 4096-query workload recorder.
func openAdaptiveEngine(t *testing.T, chain *adapt.Chain, mc adapt.ManagerConfig, opts ...gsketch.Option) *gsketch.Engine {
	t.Helper()
	return openTestEngine(t, chain, append([]gsketch.Option{
		gsketch.WithAdaptive(chain.Config(), mc),
		gsketch.WithWorkloadRecorder(4096, 0),
	}, opts...)...)
}

// newTestServer starts a Server over httptest and arranges cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// ndjsonBody renders edges as NDJSON ingest lines.
func ndjsonBody(edges []stream.Edge) *bytes.Buffer {
	var buf bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&buf, `{"src":%d,"dst":%d,"weight":%d,"time":%d}`+"\n", e.Src, e.Dst, e.Weight, e.Time)
	}
	return &buf
}

// ingestAll pushes a stream through POST /ingest in chunks, retrying any
// 429-shed suffix until everything is accepted.
func ingestAll(t *testing.T, baseURL string, edges []stream.Edge) {
	t.Helper()
	const chunk = 2048
	client := &http.Client{}
	for lo := 0; lo < len(edges); {
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		resp, err := client.Post(baseURL+"/ingest", "application/x-ndjson", ndjsonBody(edges[lo:hi]))
		if err != nil {
			t.Fatal(err)
		}
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			lo = hi
		case http.StatusTooManyRequests:
			lo += ir.Accepted
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("ingest: unexpected status %d", resp.StatusCode)
		}
	}
}

// queryBatch answers qs over POST /query with sync semantics.
func queryBatch(t *testing.T, baseURL string, qs []core.EdgeQuery) []resultJSON {
	t.Helper()
	req := queryRequest{Queries: make([]queryJSON, len(qs)), Sync: true}
	for i, q := range qs {
		req.Queries[i] = queryJSON{Src: q.Src, Dst: q.Dst}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("query: status %d: %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr.Results
}

// requireSameResults compares served answers against the in-process
// batched read path, field by field. JSON round-trips float64 losslessly
// (encoding/json emits the shortest representation that parses back to the
// same value), so equality here is byte-identity of the answers.
func requireSameResults(t *testing.T, got []resultJSON, want []core.Result, qs []core.EdgeQuery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Src != qs[i].Src || g.Dst != qs[i].Dst {
			t.Fatalf("result %d echoes (%d,%d), want (%d,%d)", i, g.Src, g.Dst, qs[i].Src, qs[i].Dst)
		}
		if g.Estimate != w.Estimate || g.Partition != w.Partition || g.Outlier != w.Outlier ||
			g.ErrorBound != w.ErrorBound || g.Confidence != w.Confidence || g.StreamTotal != w.StreamTotal {
			t.Fatalf("result %d: served %+v != direct %+v", i, g, w)
		}
	}
}

// TestServeEquivalenceEndToEnd is the acceptance test: the same stream
// pushed over HTTP and directly through an in-process Concurrent estimator
// must answer identically, and identically again after snapshot →
// restart → restore.
func TestServeEquivalenceEndToEnd(t *testing.T) {
	edges := testStream(40_000, 7)
	sample := edges[:4000]

	// Direct in-process reference.
	direct := core.NewConcurrent(buildTestGSketch(t, sample))
	core.Populate(direct, edges)

	// Served twin, fed over loopback HTTP. Request-supplied snapshot
	// paths are confined to SnapshotPath's directory, so configure one.
	snapDir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, sample),
			gsketch.WithIngest(ingest.Config{Workers: 4, BatchSize: 512, QueueDepth: 4}),
			gsketch.WithSnapshotFile(snapDir+"/default.gsk"),
		),
	})
	ingestAll(t, ts.URL, edges)

	qs := make([]core.EdgeQuery, 0, 2000)
	for i := 0; i < 1999; i++ {
		qs = append(qs, core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	// One vertex outside the sample, so the outlier path round-trips.
	qs = append(qs, core.EdgeQuery{Src: 1 << 61, Dst: 5})

	want := direct.EstimateBatch(qs)
	requireSameResults(t, queryBatch(t, ts.URL, qs), want, qs)

	// Snapshot the served state, then restore it into a brand-new server
	// (fresh, unpopulated estimator — the "restart") and compare again.
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, sample),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 512, QueueDepth: 4}),
		),
	})
	restoreResp, err := http.Post(ts2.URL+"/snapshot/restore", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if restoreResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(restoreResp.Body)
		t.Fatalf("restore: status %d: %s", restoreResp.StatusCode, raw)
	}
	restoreResp.Body.Close()
	requireSameResults(t, queryBatch(t, ts2.URL, qs), want, qs)

	// Disk round-trip on the original server: save, restore from path,
	// query a third time.
	snapPath := snapDir + "/state.gsk"
	saveBody, _ := json.Marshal(snapshotRequest{Path: snapPath})
	saveResp, err := http.Post(ts.URL+"/snapshot/save", "application/json", bytes.NewReader(saveBody))
	if err != nil {
		t.Fatal(err)
	}
	if saveResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(saveResp.Body)
		t.Fatalf("save: status %d: %s", saveResp.StatusCode, raw)
	}
	saveResp.Body.Close()
	restoreResp2, err := http.Post(ts.URL+"/snapshot/restore", "application/json",
		bytes.NewReader(saveBody))
	if err != nil {
		t.Fatal(err)
	}
	if restoreResp2.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(restoreResp2.Body)
		t.Fatalf("restore from path: status %d: %s", restoreResp2.StatusCode, raw)
	}
	restoreResp2.Body.Close()
	requireSameResults(t, queryBatch(t, ts.URL, qs), want, qs)

	if n := srv.stats.snapshotsSaved.Value(); n != 1 {
		t.Fatalf("snapshots_saved = %d, want 1", n)
	}

	// Path confinement: a request path outside the snapshot directory is
	// refused; a confined-but-missing file is a plain 404.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/etc/passwd", http.StatusForbidden},
		{snapDir + "/sub/../../escape.gsk", http.StatusForbidden},
		{snapDir + "/missing.gsk", http.StatusNotFound},
	} {
		body, _ := json.Marshal(snapshotRequest{Path: tc.path})
		resp, err := http.Post(ts.URL+"/snapshot/restore", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("restore %q: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}
