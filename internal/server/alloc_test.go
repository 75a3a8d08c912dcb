package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/wire"
)

// TestIngestAllocsPerEdge is the regression guard for the pooled hot
// path: a warm server must not allocate parse or batch buffers per
// request, so the per-edge allocation count stays flat. NDJSON pays
// encoding/json's per-line cost; the wire path must be near zero. Under
// the race detector the requests still run but the bounds are not
// asserted.
func TestIngestAllocsPerEdge(t *testing.T) {
	const n = 2048
	edges := testStream(n, 31)
	g := buildTestGSketch(t, edges)
	srv, _ := newTestServer(t, Config{
		Engine: openTestEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 1024, QueueDepth: 16}),
		),
	})
	h := srv.Handler()

	ndjson := ndjsonBody(edges).Bytes()
	wireBody := wire.AppendIngest(nil, edges)

	post := func(contentType string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/ingest?sync=1", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}

	// Warm the buffer pools before measuring.
	post("application/x-ndjson", ndjson)
	post(wire.ContentType, wireBody)

	ndjsonPerEdge := testing.AllocsPerRun(10, func() { post("application/x-ndjson", ndjson) }) / n
	wirePerEdge := testing.AllocsPerRun(10, func() { post(wire.ContentType, wireBody) }) / n
	t.Logf("allocs/edge: ndjson=%.3f wire=%.4f", ndjsonPerEdge, wirePerEdge)
	if raceEnabled {
		// The race detector makes sync.Pool drop pooled buffers at random,
		// so the counts above are not deterministic; the bounds hold for
		// the normal build only.
		return
	}

	// NDJSON: json.Unmarshal costs ~5 allocs per line with pooled scan and
	// batch buffers; anything beyond 7 means a buffer stopped being pooled.
	if ndjsonPerEdge > 7 {
		t.Errorf("NDJSON ingest allocates %.3f allocs/edge, want <= 7 — a hot-path buffer is no longer pooled", ndjsonPerEdge)
	}
	// Wire: fixed-width decoding into pooled buffers; the request-constant
	// overhead (~tens of allocs) amortized over 2048 edges must stay well
	// under one allocation per edge.
	if wirePerEdge > 0.25 {
		t.Errorf("wire ingest allocates %.4f allocs/edge, want <= 0.25 — the frame path is allocating per record", wirePerEdge)
	}
}
