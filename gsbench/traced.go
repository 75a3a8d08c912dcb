package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/server"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/wire"
)

// The traced run replays a workload's generated inputs through the public
// calls of each module, one layer at a time, and records spans around
// those calls from this file. It never instruments the program itself.
// End-to-end numbers come only from untraced runs.

// replayBatch is the query count of one replayed wire query batch and
// HTTP query batch: large enough that the layers beneath a round trip,
// not the loopback hop, carry most of its time.
const replayBatch = 256

// sink keeps the results of timed pure calls alive.
var sink uint64

// maxWrittenSpans caps the span file; every span is still validated.
const maxWrittenSpans = 50_000

// minServerOps is the fewest real round trips per operation kind, so the
// server-side histograms support a p99.
const minServerOps = minP99Samples

func runTraced(p params, in *inputs, r *report, o *oracle) error {
	tr := newTracer()
	budget := p.seconds
	if err := replayRequests(p, in, r, o, tr, budget*4/10); err != nil {
		return err
	}
	if err := replayCore(p, in, r, o, tr, budget*3/10); err != nil {
		return err
	}
	if err := replayLifecycle(p, in, r, o, tr, budget*2/10); err != nil {
		return err
	}
	if err := validateSpans(tr.spans); err != nil {
		o.fail("span tree: %v", err)
	}
	// One file per workload, overwritten by the next traced run, holding
	// the first maxWrittenSpans spans.
	written := tr.spans[:min(len(tr.spans), maxWrittenSpans)]
	path, err := writeSpans(p.traceDir, "trace-"+p.workload+".jsonl", written)
	if err != nil {
		return err
	}
	r.details["spans"] = len(tr.spans)
	r.details["spans_written"] = len(written)
	r.details["span_file"] = path
	return nil
}

// requestKind is one operation of the serving path: a real loopback round
// trip, and a synchronous replay of the layer calls beneath it.
type requestKind struct {
	name string
	// real performs the round trip over loopback.
	real func(i int) error
	// replay performs the same operation's layer calls under root span
	// root of request req.
	replay func(i int, root int32, req int64) error
	rtt    samples
	layers samples // per-op layer time (root minus its own self time)
	onNs   int64   // replay time with the tracer on
	offNs  int64   // replay time with the tracer off
}

// replayRequests drives the serving path two ways on one engine: real
// wire/HTTP round trips through server.New (whose own histograms give the
// server.* rows), and a synchronous replay of the same requests' layer
// calls — encode, loopback transport (to an echo peer), decode, engine
// call, reply — under spans. The gap between a round trip and its layers
// is the unattributed share: the server's stage hand-offs and bookkeeping.
func replayRequests(p params, in *inputs, r *report, o *oracle, tr *tracer, budget time.Duration) error {
	cfg := referenceConfig()
	opts := []gsketch.Option{gsketch.WithSample(in.sample), gsketch.WithIngest(referenceIngest())}
	if in.workload != nil {
		opts = append(opts, gsketch.WithWorkloadSample(in.workload))
	}
	var opens []float64
	var eng *gsketch.Engine
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		e, err := gsketch.Open(cfg, opts...)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
		if eng != nil {
			eng.Close()
		}
		eng = e
	}
	r.setN("engine.open_s", median(opens), "s", len(opens))
	sv, err := serve(eng, true)
	if err != nil {
		return err
	}
	defer sv.close()
	c, err := wire.Dial(sv.wireAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	client := httpClient(1)
	defer client.CloseIdleConnections()
	handler := sv.srv.Handler()
	peer, err := startEcho()
	if err != nil {
		return err
	}
	defer peer.close()
	ec, err := dialEcho(peer.ln.Addr().String())
	if err != nil {
		return err
	}
	defer ec.c.Close()

	queries := in.queries
	batchAt := func(i int) []gsketch.EdgeQuery {
		lo := (i * replayBatch) % max(len(queries)-replayBatch, 1)
		return queries[lo:min(lo+replayBatch, len(queries))]
	}
	var (
		buf      []byte
		edges    []gsketch.Edge
		qs       []gsketch.EdgeQuery
		results  []gsketch.Result
		ackBuf   []byte
		sheds    int64
		tries    int64
		fill     float64
		fillN    int
		resBytes int
		flushes  samples
	)
	// Edges and queries replayed with the tracer on: the denominators of
	// the span-derived rows.
	var edgesOn, queriesOn int64
	decodeFrame := func(b []byte) (wire.Frame, error) {
		return wire.NewDecoder(bytes.NewReader(b)).Next()
	}
	kinds := []*requestKind{
		{
			name: "ingest_frame",
			real: func(i int) error {
				f := in.frames[i%len(in.frames)]
				_, err := c.IngestAll(f, len(f))
				return err
			},
			replay: func(i int, root int32, req int64) error {
				f := in.frames[i%len(in.frames)]
				tr.call("wire.encode_ingest", root, req, func() { buf = wire.AppendIngest(buf[:0], f) })
				var err error
				tr.call("net.loopback", root, req, func() { err = ec.roundTrip(buf) })
				if err != nil {
					return err
				}
				tr.call("wire.decode_ingest", root, req, func() {
					var fr wire.Frame
					if fr, err = decodeFrame(buf); err == nil {
						edges, err = wire.DecodeEdges(edges[:0], fr.Payload)
					}
				})
				if err != nil {
					return err
				}
				tr.call("engine.try_ingest", root, req, func() {
					rest := edges
					for len(rest) > 0 && err == nil {
						var n int
						n, err = eng.TryIngest(rest)
						tries++
						rest = rest[n:]
						if errors.Is(err, gsketch.ErrIngestQueueFull) {
							sheds++
							err = nil
							time.Sleep(200 * time.Microsecond)
						}
					}
				})
				if st := eng.IngestStats(); st != nil && st.QueueCap > 0 {
					fill += float64(st.QueueDepth) / float64(st.QueueCap)
					fillN++
				}
				if tr.on {
					edgesOn += int64(len(edges))
				}
				tr.call("wire.encode_ack", root, req, func() { ackBuf = wire.AppendAck(ackBuf[:0], len(edges), 0) })
				tr.call("wire.decode_ack", root, req, func() {
					var fr wire.Frame
					if fr, err = decodeFrame(ackBuf); err == nil {
						_, _, err = wire.DecodeAck(fr.Payload)
					}
				})
				return err
			},
		},
		{
			name: "query_batch",
			real: func(i int) error {
				var err error
				results, err = c.Query(results[:0], batchAt(i))
				return err
			},
			replay: func(i int, root int32, req int64) error {
				b := batchAt(i)
				tr.call("wire.encode_query", root, req, func() { buf = wire.AppendQuery(buf[:0], b) })
				var err error
				tr.call("net.loopback", root, req, func() { err = ec.roundTrip(buf) })
				if err != nil {
					return err
				}
				tr.call("wire.decode_query", root, req, func() {
					var fr wire.Frame
					if fr, err = decodeFrame(buf); err == nil {
						qs, err = wire.DecodeQueries(qs[:0], fr.Payload)
					}
				})
				if err != nil {
					return err
				}
				var res []gsketch.Result
				tr.call("engine.query_batch", root, req, func() { res = eng.QueryBatch(qs) })
				tr.call("wire.encode_results", root, req, func() { ackBuf = wire.AppendResults(ackBuf[:0], res) })
				resBytes = len(ackBuf) - len(wire.AppendResults(nil, nil))
				if tr.on {
					queriesOn += int64(len(qs))
				}
				tr.call("wire.decode_results", root, req, func() {
					var fr wire.Frame
					if fr, err = decodeFrame(ackBuf); err == nil {
						results, err = wire.DecodeResults(results[:0], fr.Payload)
					}
				})
				return err
			},
		},
		{
			name: "http_query",
			real: func(i int) error {
				_, err := postQuery(client, sv.httpAddr, batchAt(i))
				return err
			},
			replay: func(i int, root int32, req int64) error {
				var body []byte
				var err error
				tr.call("http.encode_request", root, req, func() { body = queryJSON(batchAt(i)) })
				rec := httptest.NewRecorder()
				tr.call("server.http_handler", root, req, func() {
					hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
					hr.Header.Set("Content-Type", "application/json")
					handler.ServeHTTP(rec, hr)
				})
				if rec.Code != http.StatusOK {
					return fmt.Errorf("replayed /query status %d", rec.Code)
				}
				tr.call("http.decode_response", root, req, func() {
					_, err = decodeEstimates(rec.Body, len(batchAt(i)))
				})
				return err
			},
		},
	}

	// Rounds alternate real round trips with replays, and replays with the
	// tracer on and off, so drift over the run hits every variant alike.
	var req int64
	start := time.Now()
	for round := 0; round < minServerOps || time.Since(start) < budget; round++ {
		for _, k := range kinds {
			t0 := time.Now()
			if err := k.real(round); err != nil {
				o.fail("%s round trip: %v", k.name, err)
				return err
			}
			k.rtt.add(time.Since(t0))
			o.ops(1)
			if round%2 != 0 {
				continue
			}
			for _, on := range []bool{round%4 == 0, round%4 != 0} {
				tr.on = on
				req++
				n0 := len(tr.spans)
				t0 := time.Now()
				root := tr.begin("op."+k.name, -1, req)
				err := k.replay(round, root, req)
				tr.end(root)
				d := time.Since(t0)
				tr.on = false
				if err != nil {
					o.fail("%s replay: %v", k.name, err)
					return err
				}
				if on {
					k.onNs += int64(d)
					var layers int64
					for _, s := range tr.spans[n0:] {
						if s.Parent == root {
							layers += s.End - s.Start
						}
					}
					k.layers.add(time.Duration(layers))
				} else {
					k.offNs += int64(d)
				}
			}
		}
		if round%64 == 63 {
			tr.on = true
			req++
			root := tr.begin("op.flush", -1, req)
			var err error
			var d time.Duration
			tr.call("engine.drain", root, req, func() {
				t0 := time.Now()
				err = eng.Drain(context.Background())
				d = time.Since(t0)
			})
			tr.end(root)
			tr.on = false
			if err != nil {
				return err
			}
			flushes.add(d)
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}

	// Layer sum: the layers replayed beneath each request kind against its
	// real round trip. The remainder is the loopback hop, goroutine
	// hand-offs and whatever else no layer call covers.
	var rttSum, layerSum, onSum, offSum float64
	for _, k := range kinds {
		rtt, lay := k.rtt.quantile(0.5), k.layers.quantile(0.5)
		share := (rtt - lay) / rtt
		r.details["layer_sum."+k.name] = map[string]float64{"rtt_ms": rtt, "layers_ms": lay, "unattributed_share": share}
		o.check(share >= -layerSumSlack && share <= layerSumSlack,
			"layer sum for %s: layers %.4f ms against round trip %.4f ms (unattributed %.3f, slack %.2f)", k.name, lay, rtt, share, layerSumSlack)
		rttSum += rtt
		layerSum += lay
		onSum += float64(k.onNs)
		offSum += float64(k.offNs)
	}
	r.set("server.unattributed_share", (rttSum-layerSum)/rttSum, "ratio")
	r.set("trace.overhead_share", onSum/offSum-1, "ratio")

	// Per-layer rows from the spans' self times.
	self := totalsByName(tr.spans)
	per := func(name string, n int64) float64 { return float64(self[name].selfNs) / float64(max(n, 1)) }
	replays := self["op.ingest_frame"].n
	r.setN("wire.decode_ingest_ns_per_edge", per("wire.decode_ingest", edgesOn), "ns", replays)
	r.setN("wire.decode_query_ns_per_query", per("wire.decode_query", queriesOn), "ns", replays)
	r.setN("wire.encode_results_ns_per_query", per("wire.encode_results", queriesOn), "ns", replays)
	r.set("wire.bytes_per_edge", float64(len(wire.AppendIngest(nil, in.frames[0]))-len(wire.AppendIngest(nil, nil)))/float64(len(in.frames[0])), "B")
	r.set("wire.bytes_per_result", float64(resBytes)/float64(len(results)), "B")
	r.setN("engine.try_ingest_ns_per_edge", per("engine.try_ingest", edgesOn), "ns", replays)
	r.setN("engine.query_batch_ns_per_query", per("engine.query_batch", queriesOn), "ns", replays)
	r.set("ingest.shed_ratio", float64(sheds)/float64(max(tries, 1)), "ratio")
	r.set("ingest.queue_fill_mean", fill/float64(max(fillN, 1)), "ratio")
	r.setN("ingest.flush_ms", flushes.quantile(0.5), "ms", len(flushes))

	// Allocation counts of the two engine entry points, measured alone.
	r.set("engine.try_ingest_allocs_per_edge", allocsPer(func() int {
		n := 0
		for _, f := range in.frames[:min(32, len(in.frames))] {
			rest := f
			for len(rest) > 0 {
				k, err := eng.TryIngest(rest)
				if err != nil && !errors.Is(err, gsketch.ErrIngestQueueFull) {
					o.fail("try ingest: %v", err)
					return max(n, 1)
				}
				rest = rest[k:]
			}
			n += len(f)
		}
		return n
	}), "allocs")
	if err := eng.Drain(context.Background()); err != nil {
		return err
	}
	r.set("engine.query_batch_allocs_per_query", allocsPer(func() int {
		n := 0
		for i := 0; i < 32; i++ {
			n += len(eng.QueryBatch(batchAt(i)))
		}
		return n
	}), "allocs")

	if rs := eng.Stats().ReadRoutes; rs != nil {
		r.set("core.outlier_read_share", rs.OutlierShare(), "ratio")
	}
	if err := serverQuantiles(sv.srv, r); err != nil {
		return err
	}

	// Restore: the same engine's snapshot reopened.
	snap := filepath.Join(p.dir, "replay.snap")
	if _, err := eng.SaveSnapshot(snap); err != nil {
		return err
	}
	var restores []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		e, err := gsketch.Open(cfg, gsketch.WithRestoreFile(snap))
		if err != nil {
			return err
		}
		restores = append(restores, time.Since(t0).Seconds())
		e.Close()
	}
	r.setN("engine.restore_s", median(restores), "s", len(restores))
	return nil
}

// serverQuantiles reads the server-side latency rows from the program's
// own metrics exposition, rendered and parsed as a scraper would.
func serverQuantiles(srv *server.Server, r *report) error {
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		return err
	}
	fams, err := obs.ParseFamilies(&buf)
	if err != nil {
		return err
	}
	rows := []struct {
		prefix, family string
		match          map[string]string
	}{
		{"server.wire_ingest_apply", "gsketch_wire_frame_apply_duration_seconds", map[string]string{"type": "ingest"}},
		{"server.wire_query_apply", "gsketch_wire_frame_apply_duration_seconds", map[string]string{"type": "query"}},
		{"server.http_query", "gsketch_http_request_duration_seconds", map[string]string{"route": "POST /query"}},
	}
	for _, row := range rows {
		h, err := obs.FindHistogram(fams, row.family, row.match)
		if err != nil {
			return fmt.Errorf("%s: %w", row.prefix, err)
		}
		r.setN(row.prefix+"_p50_ms", h.Quantile(0.5)*1e3, "ms", int(h.Count))
		if h.Count >= minP99Samples {
			r.setN(row.prefix+"_p99_ms", h.Quantile(0.99)*1e3, "ms", int(h.Count))
		}
	}
	return nil
}

// allocsPer returns heap allocations per operation of fn, which reports
// how many operations it ran.
func allocsPer(fn func() int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(max(n, 1))
}

// loop runs fn (one block of ops, returning its op count) under a span
// until budget has elapsed, at least once, and returns ns per op.
func loop(tr *tracer, name string, budget time.Duration, fn func(i int) int) float64 {
	tr.on = true
	defer func() { tr.on = false }()
	start := time.Now()
	ops := 0
	var busy time.Duration
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		id := tr.begin(name, -1, int64(i))
		t0 := time.Now()
		ops += fn(i)
		busy += time.Since(t0)
		tr.end(id)
	}
	return nsPer(busy, ops)
}

// replayCore times the estimator layers beneath the engine — the striped
// Concurrent wrapper, the partitioned sketch, its router, the CountMin
// cells and the hash — plus the ingest pipeline's hop, on the workload's
// own edges and queries.
func replayCore(p params, in *inputs, r *report, o *oracle, tr *tracer, budget time.Duration) error {
	cfg := referenceConfig()
	slice := budget / 12
	var builds []float64
	var g *core.GSketch
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		b, err := core.BuildGSketch(cfg, in.sample, in.workload)
		if err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		g = b
	}
	r.setN("core.build_partitioning_ms", median(builds), "ms", len(builds))
	r.set("core.partitions", float64(g.NumPartitions()), "count")

	// Bound check on exactly one pass of the stream.
	core.Populate(g, in.edges)
	res := g.EstimateBatch(in.accQueries)
	violations, bounded := 0, 0
	conf := 1.0
	for i, rr := range res {
		t := in.accTruth[i]
		if rr.Estimate < t {
			o.underestimate(in.accQueries[i].Src, in.accQueries[i].Dst, rr.Estimate, t)
		}
		bounded++
		if float64(rr.Estimate-t) > rr.ErrorBound {
			violations++
		}
		conf = min(conf, rr.Confidence)
	}
	ratio := float64(violations) / float64(max(bounded, 1))
	r.setN("core.bound_violation_ratio", ratio, "ratio", bounded)
	o.check(ratio <= 1-conf, "core bound violation ratio %.5f exceeds 1-confidence %.5f", ratio, 1-conf)

	frames := in.frames
	frame := func(i int) []gsketch.Edge { return frames[i%len(frames)] }
	qbatch := func(i int) []gsketch.EdgeQuery {
		lo := (i * replayBatch) % max(len(in.queries)-replayBatch, 1)
		return in.queries[lo:min(lo+replayBatch, len(in.queries))]
	}

	upd := loop(tr, "core.update", slice, func(i int) int {
		f := frame(i)
		for _, e := range f {
			g.Update(e)
		}
		return len(f)
	})
	r.set("core.update_ns_per_edge", upd, "ns")
	r.set("core.update_allocs_per_edge", allocsPer(func() int {
		for _, e := range frame(0) {
			g.Update(e)
		}
		return len(frame(0))
	}), "allocs")

	rt := loop(tr, "core.route", slice, func(i int) int {
		f := frame(i)
		for _, e := range f {
			sink += uint64(g.Route(e.Src))
		}
		return len(f)
	})
	r.set("core.route_ns_per_edge", rt, "ns")
	r.set("core.route_allocs_per_edge", allocsPer(func() int {
		for _, e := range frame(1) {
			sink += uint64(g.Route(e.Src))
		}
		return len(frame(1))
	}), "allocs")

	est := loop(tr, "core.estimate", slice, func(i int) int { return len(g.EstimateBatch(qbatch(i))) })
	r.set("core.estimate_ns_per_query", est, "ns")
	r.set("core.estimate_allocs_per_query", allocsPer(func() int { return len(g.EstimateBatch(qbatch(2))) }), "allocs")

	g2, err := core.BuildGSketch(cfg, in.sample, in.workload)
	if err != nil {
		return err
	}
	conc := core.NewConcurrent(g2)
	cu := loop(tr, "core.concurrent_update", slice, func(i int) int {
		conc.UpdateBatch(frame(i))
		return len(frame(i))
	})
	r.set("core.concurrent_update_ns_per_edge", cu, "ns")
	r.set("core.concurrent_update_allocs_per_edge", allocsPer(func() int {
		conc.UpdateBatch(frame(3))
		return len(frame(3))
	}), "allocs")
	ce := loop(tr, "core.concurrent_estimate", slice, func(i int) int { return len(conc.EstimateBatch(qbatch(i))) })
	r.set("core.concurrent_estimate_ns_per_query", ce, "ns")
	r.set("core.concurrent_estimate_allocs_per_query", allocsPer(func() int { return len(conc.EstimateBatch(qbatch(3))) }), "allocs")

	// The pipeline hop: PushBatch+Flush against UpdateBatch on the same
	// batches, alternating blocks of 16 frames.
	ing, err := ingest.New(conc, ingest.Config{})
	if err != nil {
		return err
	}
	var hopPipe, hopDirect time.Duration
	var hopEdges int
	loop(tr, "ingest.hop", 2*slice, func(i int) int {
		n := 0
		t0 := time.Now()
		for j := 0; j < 16; j++ {
			f := frame(i*16 + j)
			if err := ing.PushBatch(f); err != nil {
				o.fail("ingest push: %v", err)
			}
			n += len(f)
		}
		if err := ing.Flush(); err != nil {
			o.fail("ingest flush: %v", err)
		}
		hopPipe += time.Since(t0)
		t0 = time.Now()
		for j := 0; j < 16; j++ {
			conc.UpdateBatch(frame(i*16 + j))
		}
		hopDirect += time.Since(t0)
		hopEdges += n
		return 2 * n
	})
	if err := ing.Close(); err != nil {
		return err
	}
	r.setN("ingest.hop_ns_per_edge", nsPer(hopPipe-hopDirect, hopEdges), "ns", hopEdges)

	// Snapshot decode: the restore path's reader, on this sketch.
	var snap bytes.Buffer
	if _, err := g2.WriteTo(&snap); err != nil {
		return err
	}
	var reads, allocMB []float64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if _, err := core.ReadGSketch(bytes.NewReader(snap.Bytes())); err != nil {
			return err
		}
		reads = append(reads, float64(time.Since(t0).Nanoseconds())/1e6)
		runtime.ReadMemStats(&after)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	r.setN("core.snapshot_read_ms", median(reads), "ms", len(reads))
	r.setN("core.snapshot_read_alloc_mb", median(allocMB), "MiB", len(allocMB))

	// CountMin cells and the hash underneath them.
	cm, err := sketch.NewCountMinFromMemory(cfg.TotalBytes, gsketch.DefaultDepth, sketchSeed)
	if err != nil {
		return err
	}
	keys := make([]uint64, 0, 8192)
	counts := make([]int64, 0, 8192)
	out := make([]int64, 8192)
	keysOf := func(i int) {
		keys, counts = keys[:0], counts[:0]
		for _, e := range frame(i) {
			keys = append(keys, hashutil.EdgeKey(e.Src, e.Dst))
			counts = append(counts, weight(e))
		}
	}
	cmu := loop(tr, "sketch.countmin_update", slice, func(i int) int {
		keysOf(i)
		cm.UpdateBatch(keys, counts)
		return len(keys)
	})
	cme := loop(tr, "sketch.countmin_estimate", slice, func(i int) int {
		keysOf(i)
		cm.EstimateBatch(keys, out[:len(keys)])
		return len(keys)
	})
	// keysOf is inside both loops; take its cost back out.
	kc := loop(tr, "sketch.keys", slice/2, func(i int) int {
		keysOf(i)
		return len(keys)
	})
	r.set("sketch.countmin_update_ns_per_key", cmu-kc, "ns")
	r.set("sketch.countmin_estimate_ns_per_key", cme-kc, "ns")

	h := sink
	ek := loop(tr, "hashutil.edge_key", slice/2, func(i int) int {
		f := frame(i)
		for _, e := range f {
			h ^= hashutil.EdgeKey(e.Src, e.Dst)
		}
		return len(f)
	})
	r.set("hashutil.edge_key_ns", ek, "ns")
	md := loop(tr, "hashutil.mod61", slice/2, func(i int) int {
		f := frame(i)
		for _, e := range f {
			h += hashutil.Mod61(e.Src*0x9e3779b97f4a7c15 + e.Dst + h)
		}
		return len(f)
	})
	r.set("hashutil.mod61_ns", md, "ns")
	sink = h
	return nil
}

// replayLifecycle times the generation-chain layers: per-generation
// gather (query.AccumulateResults), chain update and estimate, a
// repartition cycle over the workload's phases with the chain-mixed
// lifecycle (cap, compaction, tiering), and segment spill and reload.
func replayLifecycle(p params, in *inputs, r *report, o *oracle, tr *tracer, budget time.Duration) error {
	cfg := referenceConfig()
	slice := budget / 8
	g, err := core.BuildGSketch(cfg, in.sample, in.workload)
	if err != nil {
		return err
	}
	core.Populate(g, in.phases[0])
	qbatch := func(i int) []gsketch.EdgeQuery {
		lo := (i * replayBatch) % max(len(in.queries)-replayBatch, 1)
		return in.queries[lo:min(lo+replayBatch, len(in.queries))]
	}
	gen := g.EstimateBatch(qbatch(0))
	acc := make([]core.Result, len(gen))
	accNs := loop(tr, "query.accumulate", slice, func(int) int {
		copy(acc, gen)
		query.AccumulateResults(acc, gen)
		return len(acc)
	})
	r.set("query.accumulate_ns_per_result", accNs, "ns")

	eng, err := gsketch.Open(cfg, gsketch.WithEstimator(g))
	if err != nil {
		return err
	}
	sub := loop(tr, "query.answer_subgraph", slice, func(int) int { return len(eng.AnswerBatch(in.subgraphs)) })
	eng.Close()
	r.set("query.answer_subgraph_ns_per_query", sub, "ns")

	// A bare chain over the workload's phases.
	chain := adapt.NewChain(g, adapt.ChainConfig{Seed: p.seed})
	frames := in.frames
	cu := loop(tr, "adapt.chain_update", slice, func(i int) int {
		f := frames[i%len(frames)]
		chain.UpdateBatch(f)
		return len(f)
	})
	r.set("adapt.chain_update_ns_per_edge", cu, "ns")

	// The chain-mixed lifecycle: repartition at every phase boundary.
	dir := filepath.Join(p.dir, "replay-tier")
	ceng, err := chainOpen(in, p.sz, p.seed, dir)
	if err != nil {
		return err
	}
	defer ceng.Close()
	var folds samples
	ceng.SetCompactObserver(func(d time.Duration) { folds = append(folds, float64(d.Nanoseconds())/1e6) })
	var reparts, reloadMs samples
	var reloads, batches, afterSpill int
	nPhases := len(in.phases)
	rounds := p.sz.ChainMaxGens + 3
	for inst := 0; inst < rounds; inst++ {
		if err := ceng.Ingest(context.Background(), in.phases[inst%nPhases]...); err != nil {
			return err
		}
		if err := ceng.Drain(context.Background()); err != nil {
			return err
		}
		req := int64(inst)
		tr.on = true
		root := tr.begin("op.phase_boundary", -1, req)
		var rerr error
		t0 := time.Now()
		tr.call("engine.repartition", root, req, func() { _, rerr = ceng.Repartition() })
		reparts.add(time.Since(t0))
		tr.end(root)
		tr.on = false
		if rerr != nil {
			return rerr
		}
		before := ceng.Stats().Adapt
		spilled := before.Generations - before.ResidentGenerations
		for b := 0; b < 8; b++ {
			t0 := time.Now()
			ceng.QueryBatch(qbatch(inst*8 + b))
			if b == 0 && spilled > 0 {
				reloadMs.add(time.Since(t0))
				reloads += spilled
				afterSpill++
			}
			batches++
		}
	}
	st := ceng.Stats().Adapt
	r.setN("engine.repartition_ms", reparts.quantile(0.5), "ms", len(reparts))
	r.set("adapt.generations", float64(st.Generations), "count")
	r.set("compact.compactions", float64(st.Compactions), "count")
	r.setN("compact.fold_ms", samples(folds).quantile(0.5), "ms", len(folds))
	r.set("compact.reloads", float64(reloads), "count")
	r.set("compact.reload_request_share", float64(afterSpill)/float64(max(batches, 1)), "ratio")

	cest := loop(tr, "adapt.chain_estimate", slice, func(i int) int {
		return len(ceng.Estimator().EstimateBatch(qbatch(i)))
	})
	r.set("adapt.chain_estimate_ns_per_query", cest, "ns")

	// One frozen segment spilled and reloaded on its own.
	var spills, loads []float64
	for i := 0; i < 5; i++ {
		seg := compact.NewSegment(g, core.GenerationMeta{BuiltAt: time.Now().Unix()})
		seg.Freeze(time.Now().Unix(), nil, 0)
		t0 := time.Now()
		if err := seg.Spill(filepath.Join(p.dir, "replay-seg")); err != nil {
			return err
		}
		spills = append(spills, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		if res := seg.EstimateBatch(qbatch(i)); len(res) == 0 || res[0].Confidence == 0 {
			o.fail("reloaded segment answered without confidence")
		}
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/1e6)
		seg.Discard()
	}
	r.setN("compact.spill_ms", median(spills), "ms", len(spills))
	// A reload is the first query after a spill; the chain replay above
	// measured it through the engine, this is the segment alone.
	if len(reloadMs) > 0 {
		r.setN("compact.reload_ms", reloadMs.quantile(0.5), "ms", len(reloadMs))
	} else {
		r.setN("compact.reload_ms", median(loads), "ms", len(loads))
	}
	r.details["compact.segment_reload_ms"] = median(loads)
	return nil
}
