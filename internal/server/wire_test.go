package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

// wireClient is a minimal test client for the TCP wire protocol.
type wireClient struct {
	conn net.Conn
	dec  *wire.Decoder
	buf  []byte
}

func dialWire(t *testing.T, addr string) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{conn: conn, dec: wire.NewDecoder(bufio.NewReader(conn))}
}

func (c *wireClient) send(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func (c *wireClient) next(t *testing.T) wire.Frame {
	t.Helper()
	f, err := c.dec.Next()
	if err != nil {
		t.Fatalf("reading reply frame: %v", err)
	}
	return f
}

// ingestWire pushes edges through the connection in chunks, retrying any
// rejected suffix, then flushes the pipeline.
func (c *wireClient) ingestWire(t *testing.T, edges []stream.Edge) {
	t.Helper()
	const chunk = 1024
	for lo := 0; lo < len(edges); {
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		c.buf = wire.AppendIngest(c.buf[:0], edges[lo:hi])
		c.send(t, c.buf)
		f := c.next(t)
		if f.Type != wire.TypeAck {
			t.Fatalf("ingest reply type 0x%02x, want ack", f.Type)
		}
		accepted, _, err := wire.DecodeAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		lo += accepted
		if accepted == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	c.buf = wire.AppendFlush(c.buf[:0])
	c.send(t, c.buf)
	if f := c.next(t); f.Type != wire.TypeFlushAck {
		t.Fatalf("flush reply type 0x%02x, want flush ack", f.Type)
	}
}

func (c *wireClient) queryWire(t *testing.T, qs []core.EdgeQuery) []core.Result {
	t.Helper()
	c.buf = wire.AppendQuery(c.buf[:0], qs)
	c.send(t, c.buf)
	f := c.next(t)
	if f.Type != wire.TypeResults {
		t.Fatalf("query reply type 0x%02x, want results", f.Type)
	}
	rs, err := wire.DecodeResults(nil, f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// newWireServer starts a server with both an httptest HTTP frontend and a
// loopback TCP wire listener.
func newWireServer(t *testing.T, cfg Config) (*Server, string, string) {
	t.Helper()
	srv, ts := newTestServer(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // ErrServerClosed after shutdown
	return srv, ts.URL, ln.Addr().String()
}

// TestWireEquivalence ingests the same stream over the TCP wire protocol
// and checks that wire queries, HTTP wire-body queries and HTTP JSON
// queries all answer byte-identically to the engine's own read path.
func TestWireEquivalence(t *testing.T) {
	edges := testStream(6000, 11)
	g := buildTestGSketch(t, edges[:2000])
	cfg := Config{
		Engine: openTestEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 256}),
		),
	}
	srv, httpURL, wireAddr := newWireServer(t, cfg)

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)

	var total int64
	for _, e := range edges {
		total += e.Weight
	}
	if got := srv.Engine().Estimator().Count(); got != total {
		t.Fatalf("wire ingest lost volume: Count=%d want %d", got, total)
	}

	qs := make([]core.EdgeQuery, 512)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i*7%len(edges)].Src, Dst: edges[i*7%len(edges)].Dst}
	}
	want := srv.Engine().QueryBatch(qs)

	got := wc.queryWire(t, qs)
	if len(got) != len(want) {
		t.Fatalf("wire answered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wire result %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// HTTP with a wire-framed body answers the same bytes.
	resp, err := http.Post(httpURL+"/query", wire.ContentType, bytes.NewReader(wire.AppendQuery(nil, qs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("http wire query status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.NewDecoder(bytes.NewReader(body)).Next()
	if err != nil || f.Type != wire.TypeResults {
		t.Fatalf("http wire reply: type 0x%02x err %v", f.Type, err)
	}
	httpGot, err := wire.DecodeResults(nil, f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if httpGot[i] != want[i] {
			t.Fatalf("http wire result %d = %+v, want %+v", i, httpGot[i], want[i])
		}
	}

	// The JSON path agrees on every field it carries.
	jsonGot := queryBatch(t, httpURL, qs)
	for i := range want {
		j := jsonGot[i]
		if j.Estimate != want[i].Estimate || j.Partition != want[i].Partition ||
			j.Outlier != want[i].Outlier || j.ErrorBound != want[i].ErrorBound ||
			j.Confidence != want[i].Confidence {
			t.Fatalf("json result %d = %+v, want %+v", i, j, want[i])
		}
	}
}

// TestWireHTTPIngest round-trips an ingest through the HTTP endpoint with
// a wire-framed body.
func TestWireHTTPIngest(t *testing.T) {
	edges := testStream(3000, 17)
	g := buildTestGSketch(t, edges[:1000])
	_, hts := newTestServer(t, Config{
		Engine: openTestEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 512}),
		),
	})
	ts := hts.URL

	var total int64
	for lo := 0; lo < len(edges); {
		hi := lo + 1000
		if hi > len(edges) {
			hi = len(edges)
		}
		resp, err := http.Post(ts+"/ingest?sync=1", wire.ContentType, bytes.NewReader(wire.AppendIngest(nil, edges[lo:hi])))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.NewDecoder(bytes.NewReader(body)).Next()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.StatusCode == http.StatusOK && f.Type == wire.TypeAck:
			accepted, rejected, err := wire.DecodeAck(f.Payload)
			if err != nil || rejected != 0 || accepted != hi-lo {
				t.Fatalf("ack = (%d, %d, %v), want (%d, 0)", accepted, rejected, err, hi-lo)
			}
			lo = hi
		case resp.StatusCode == http.StatusTooManyRequests && f.Type == wire.TypeAck:
			accepted, _, err := wire.DecodeAck(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			lo += accepted
		default:
			t.Fatalf("status %d, frame type 0x%02x", resp.StatusCode, f.Type)
		}
	}
	for _, e := range edges {
		total += e.Weight
	}
	// ?sync=1 drained on the last chunk; retries may still be in flight.
	waitFor(t, "wire HTTP ingest", func() bool { return g.Count() == total })
}

// TestWireCorruptFrame sends garbage mid-stream: the server must answer a
// typed error frame and close the connection without panicking.
func TestWireCorruptFrame(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	_, _, wireAddr := newWireServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g))})

	wc := dialWire(t, wireAddr)
	// A valid frame first, so the failure is genuinely mid-stream.
	wc.buf = wire.AppendQuery(wc.buf[:0], []core.EdgeQuery{{Src: 1, Dst: 2}})
	wc.send(t, wc.buf)
	if f := wc.next(t); f.Type != wire.TypeResults {
		t.Fatalf("warmup reply type 0x%02x", f.Type)
	}
	wc.send(t, []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff})
	f := wc.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("reply type 0x%02x, want error", f.Type)
	}
	code, msg, err := wire.DecodeError(f.Payload)
	if err != nil || code != wire.CodeBadFrame || msg == "" {
		t.Fatalf("error frame = (%d, %q, %v), want code %d", code, msg, err, wire.CodeBadFrame)
	}
	if _, err := wc.dec.Next(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestWireOversizedFrame checks the size bound: a header claiming more
// than MaxBodyBytes is rejected up front.
func TestWireOversizedFrame(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	_, _, wireAddr := newWireServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g)), MaxBodyBytes: 1 << 16})

	wc := dialWire(t, wireAddr)
	hdr := make([]byte, wire.HeaderSize)
	hdr[0], hdr[1] = wire.Version, wire.TypeIngest
	hdr[4], hdr[5], hdr[6], hdr[7] = 0xff, 0xff, 0xff, 0x0f // 256 MiB claim
	wc.send(t, hdr)
	f := wc.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("reply type 0x%02x, want error", f.Type)
	}
}

// TestWireBadBodyHTTP checks the HTTP wire paths reject malformed and
// mismatched bodies with a wire error frame and HTTP 400.
func TestWireBadBodyHTTP(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	_, hts := newTestServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g))})
	ts := hts.URL

	cases := []struct {
		name string
		path string
		body []byte
	}{
		{"truncated", "/ingest", wire.AppendIngest(nil, testStream(4, 1))[:10]},
		{"empty", "/ingest", nil},
		{"query frame on ingest", "/ingest", wire.AppendQuery(nil, []core.EdgeQuery{{Src: 1, Dst: 2}})},
		{"ingest frame on query", "/query", wire.AppendIngest(nil, testStream(4, 1))},
		{"empty query batch", "/query", wire.AppendQuery(nil, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts+tc.path, wire.ContentType, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			body, _ := io.ReadAll(resp.Body)
			f, err := wire.NewDecoder(bytes.NewReader(body)).Next()
			if err != nil || f.Type != wire.TypeError {
				t.Fatalf("reply frame type 0x%02x err %v, want error frame", f.Type, err)
			}
		})
	}
}

// TestWireStatsCounters checks the wire expvar counters surface in /stats.
func TestWireStatsCounters(t *testing.T) {
	edges := testStream(500, 23)
	g := buildTestGSketch(t, edges)
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g), gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 128}))})

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)
	wc.queryWire(t, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})

	stats := getStats(t, httpURL)
	if got := stats["wire_frames"].(float64); got < 3 { // ingest + flush + query at minimum
		t.Fatalf("wire_frames = %v, want >= 3", got)
	}
	if got := stats["wire_bytes_in"].(float64); got < float64(len(edges)*wire.EdgeSize) {
		t.Fatalf("wire_bytes_in = %v, want >= %d", got, len(edges)*wire.EdgeSize)
	}
	if got := stats["wire_bytes_out"].(float64); got <= 0 {
		t.Fatalf("wire_bytes_out = %v, want > 0", got)
	}
	if got := stats["wire_decode_errors"].(float64); got != 0 {
		t.Fatalf("wire_decode_errors = %v, want 0", got)
	}

	// A corrupt frame on a fresh connection bumps the error counter.
	wc2 := dialWire(t, wireAddr)
	wc2.send(t, []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	wc2.next(t) // error frame
	waitFor(t, "decode error counter", func() bool {
		return getStats(t, httpURL)["wire_decode_errors"].(float64) == 1
	})
}

// TestWireShutdown checks Shutdown closes the wire listener and its
// connections: in-flight clients see EOF/reset, new dials are refused.
func TestWireShutdown(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	srv, _, wireAddr := newWireServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g))})

	wc := dialWire(t, wireAddr)
	wc.queryWire(t, []core.EdgeQuery{{Src: 1, Dst: 2}}) // connection is live
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.dec.Next(); err == nil {
		t.Fatal("connection survived shutdown")
	}
	if _, err := net.Dial("tcp", wireAddr); err == nil {
		t.Fatal("listener survived shutdown")
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Logf("post-shutdown dial failed with %v (not ECONNREFUSED; acceptable)", err)
	}
}

// TestWireClusterFrames exercises the coordinator-facing frames —
// ping/pong, snapshot save and snapshot restore — against an engine-backed
// wire server, plus the unsupported-save error when no snapshot path is
// configured.
func TestWireClusterFrames(t *testing.T) {
	edges := testStream(800, 29)
	g := buildTestGSketch(t, edges[:300])
	snap := t.TempDir() + "/wire.snap"
	_, _, wireAddr := newWireServer(t, Config{
		Engine: openTestEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 128}),
			gsketch.WithSnapshotFile(snap),
		),
	})

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)
	var total int64
	for _, e := range edges {
		total += e.Weight
	}

	// Ping reflects the applied stream and generation count.
	wc.send(t, wire.AppendPing(nil))
	f := wc.next(t)
	if f.Type != wire.TypePong {
		t.Fatalf("ping reply type 0x%02x, want pong", f.Type)
	}
	pong, err := wire.DecodePong(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if pong.StreamTotal != total || pong.Generations != 1 {
		t.Fatalf("pong = %+v, want stream total %d, 1 generation", pong, total)
	}

	// Save persists to the server's own configured path.
	wc.send(t, wire.AppendSnapSave(nil))
	f = wc.next(t)
	if f.Type != wire.TypeSnapSaveAck {
		t.Fatalf("save reply type 0x%02x, want save ack", f.Type)
	}
	n, err := wire.DecodeSnapSaveAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() != n {
		t.Fatalf("snapshot on disk = (%v, %v), want %d bytes", fi, err, n)
	}

	// Mutate, restore, and check the ack carries the pre-mutation totals.
	wc.ingestWire(t, edges)
	wc.send(t, wire.AppendSnapRestore(nil))
	f = wc.next(t)
	if f.Type != wire.TypeSnapRestoreAck {
		t.Fatalf("restore reply type 0x%02x, want restore ack", f.Type)
	}
	restoredTotal, gens, err := wire.DecodeSnapRestoreAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if restoredTotal != total || gens != 1 {
		t.Fatalf("restore ack = (%d, %d), want (%d, 1)", restoredTotal, gens, total)
	}

	// No snapshot path configured: save answers unsupported, connection
	// stays usable afterwards for non-snapshot frames.
	g2 := buildTestGSketch(t, edges[:300])
	_, _, wireAddr2 := newWireServer(t, Config{Engine: openTestEngine(t, core.NewConcurrent(g2))})
	wc2 := dialWire(t, wireAddr2)
	wc2.send(t, wire.AppendSnapSave(nil))
	f = wc2.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("pathless save reply type 0x%02x, want error", f.Type)
	}
	code, _, err := wire.DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != wire.CodeUnsupported {
		t.Fatalf("pathless save code = %d, want CodeUnsupported", code)
	}
}
