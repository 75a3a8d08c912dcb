package gsketch_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
)

// engineTestStream builds a deterministic skewed stream.
func engineTestStream(n int, seed int64) []gsketch.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]gsketch.Edge, n)
	for i := range edges {
		edges[i] = gsketch.Edge{
			Src:    uint64(rng.Intn(64)),
			Dst:    uint64(rng.Intn(512)),
			Weight: int64(1 + rng.Intn(3)),
		}
	}
	return edges
}

func engineTestQueries(edges []gsketch.Edge, n int) []gsketch.EdgeQuery {
	qs := make([]gsketch.EdgeQuery, n)
	for i := range qs {
		e := edges[(i*31)%len(edges)]
		qs[i] = gsketch.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return qs
}

var engineTestCfg = gsketch.Config{TotalBytes: 64 << 10, Seed: 21}

// TestOpenMatchesCoreByteIdentical is the equivalence guard for the
// partitioned path: the core primitives (BuildGSketch + NewConcurrent +
// Populate + Save) and the one-handle Open + Ingest + Save path must
// produce byte-identical snapshots and byte-identical batched answers.
func TestOpenMatchesCoreByteIdentical(t *testing.T) {
	edges := engineTestStream(20_000, 5)
	sample := edges[:2_000]
	qs := engineTestQueries(edges, 500)

	// Core primitives.
	g, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewConcurrent(g)
	core.Populate(ref, edges)
	var refSnap bytes.Buffer
	if _, err := core.Save(ref, &refSnap); err != nil {
		t.Fatal(err)
	}
	refRes := ref.EstimateBatch(qs)

	// One-handle engine.
	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(sample))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	var engSnap bytes.Buffer
	if _, err := eng.Save(&engSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap.Bytes(), engSnap.Bytes()) {
		t.Fatalf("snapshot mismatch: core %d bytes, engine %d bytes", refSnap.Len(), engSnap.Len())
	}
	engRes := eng.QueryBatch(qs)
	for i := range qs {
		if refRes[i] != engRes[i] {
			t.Fatalf("query %d: core %+v, engine %+v", i, refRes[i], engRes[i])
		}
	}

	// The core reader loads the engine's snapshot.
	loaded, err := core.ReadGSketch(bytes.NewReader(engSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range loaded.EstimateBatch(qs) {
		if r != refRes[i] {
			t.Fatalf("loaded query %d: %+v want %+v", i, r, refRes[i])
		}
	}
}

// TestOpenGlobalMatchesCore pins the §3.2 baseline path.
func TestOpenGlobalMatchesCore(t *testing.T) {
	edges := engineTestStream(10_000, 7)
	qs := engineTestQueries(edges, 200)

	gl, err := core.BuildGlobalSketch(engineTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	core.Populate(gl, edges)
	want := gl.EstimateBatch(qs)

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core %+v, engine %+v", i, want[i], got[i])
		}
	}
}

// TestOpenWithIngestMatchesCorePipeline: the engine's mounted pipeline
// (WithIngest) lands exactly the same counters as an ingest.Ingestor
// driving a core.Concurrent over the same stream.
func TestOpenWithIngestMatchesCorePipeline(t *testing.T) {
	edges := engineTestStream(30_000, 9)
	sample := edges[:2_000]
	qs := engineTestQueries(edges, 300)
	icfg := gsketch.IngestConfig{Workers: 4, BatchSize: 512, QueueDepth: 8}

	g, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewConcurrent(g)
	ing, err := ingest.New(ref, icfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateBatch(qs)

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(sample), gsketch.WithIngest(icfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core pipeline %+v, engine pipeline %+v", i, want[i], got[i])
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineChainMatchesCoreChain drives the adaptive path both ways with
// identical inputs: adapt.NewChain + adapt.Repartition over an explicit
// workload and the engine's recorder-fed Repartition must produce
// byte-identical chain snapshots and answers.
func TestEngineChainMatchesCoreChain(t *testing.T) {
	edges := engineTestStream(20_000, 11)
	sample := edges[:2_000]
	qs := engineTestQueries(edges[10_000:], 256)
	ccfg := gsketch.ChainConfig{SampleSize: 1024, Seed: 3, MaxGenerations: 4}
	clock := func() time.Time { return time.Unix(0, 0) }

	// Core path: explicit chain, explicit workload slice.
	g0, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := adapt.NewChain(g0, ccfg)
	chain.SetClock(clock) // v4 snapshots carry build times; match the engine's
	core.Populate(chain, edges[:10_000])
	// The workload the engine will record: the served queries, weight 1,
	// timestamp 0 (the fixed clock).
	workload := make([]gsketch.Edge, len(qs))
	for i, q := range qs {
		workload[i] = gsketch.Edge{Src: q.Src, Dst: q.Dst, Weight: 1}
	}
	chain.EstimateBatch(qs) // parity: routing counters see the reads
	if _, err := adapt.Repartition(chain, engineTestCfg, workload); err != nil {
		t.Fatal(err)
	}
	core.Populate(chain, edges[10_000:])
	want := chain.EstimateBatch(qs)
	var wantSnap bytes.Buffer
	if _, err := chain.WriteTo(&wantSnap); err != nil {
		t.Fatal(err)
	}

	// Engine path: the served queries ARE the workload, via the recorder.
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(sample),
		gsketch.WithAdaptive(ccfg, gsketch.AdaptConfig{Sketch: engineTestCfg}),
		gsketch.WithWorkloadRecorder(len(qs), 0),
		gsketch.WithClock(clock),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges[:10_000]...); err != nil {
		t.Fatal(err)
	}
	eng.QueryBatch(qs)
	if _, err := eng.Repartition(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges[10_000:]...); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core chain %+v, engine chain %+v", i, want[i], got[i])
		}
	}
	var gotSnap bytes.Buffer
	if _, err := eng.Save(&gotSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
		t.Fatalf("chain snapshot mismatch: core %d bytes, engine %d bytes", wantSnap.Len(), gotSnap.Len())
	}
	if eng.Generations() != 2 {
		t.Fatalf("generations = %d, want 2", eng.Generations())
	}
}

// TestEngineSnapshotRoundTrip: SaveSnapshot → Open(WithRestoreFile) →
// byte-identical answers, and the core chain reader loads the same file.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	edges := engineTestStream(10_000, 13)
	qs := engineTestQueries(edges, 200)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithSnapshotDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	want := eng.QueryBatch(qs)
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	path := eng.SnapshotPath()
	if filepath.Dir(path) != dir {
		t.Fatalf("snapshot path %q not under %q", path, dir)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := gsketch.Open(engineTestCfg, gsketch.WithRestoreFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got := back.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d after round trip: %+v want %+v", i, got[i], want[i])
		}
	}

	// core.ReadChain reads the same snapshot.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gens, err := core.ReadChain(f)
	if err != nil {
		t.Fatal(err)
	}
	c := adapt.NewChainFrom(gens, adapt.ChainConfig{})
	for i, r := range c.EstimateBatch(qs) {
		// A restored single-generation chain answers with the same
		// estimates and bounds (stream totals included).
		if r != want[i] {
			t.Fatalf("chain query %d: %+v want %+v", i, r, want[i])
		}
	}
}

// TestEngineLiveRestoreSwap: restoring into a serving engine swaps the
// state atomically and later ingest lands in the restored estimator.
func TestEngineLiveRestoreSwap(t *testing.T) {
	edges := engineTestStream(8_000, 17)
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges[:4_000]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	savedTotal := eng.Estimator().Count()

	// More traffic after the snapshot, then restore: the post-snapshot
	// edges are deliberately discarded with the displaced state.
	if err := eng.Ingest(context.Background(), edges[4_000:]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := eng.Estimator().Count(); got != savedTotal {
		t.Fatalf("restored Count = %d, want %d", got, savedTotal)
	}
	// The restored state keeps serving and ingesting.
	if err := eng.Ingest(context.Background(), edges[:100]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Estimator().Count(); got <= savedTotal {
		t.Fatalf("post-restore ingest lost: Count = %d", got)
	}
	if st := eng.Stats(); st.SnapshotsRestored != 1 {
		t.Fatalf("SnapshotsRestored = %d, want 1", st.SnapshotsRestored)
	}
}

// TestEngineWindowMatchesDirectStore: the engine's mounted window store
// answers exactly like a hand-fed WindowStore + EstimateWindowBatch.
func TestEngineWindowMatchesDirectStore(t *testing.T) {
	wcfg := gsketch.WindowConfig{
		Span:       100,
		SampleSize: 256,
		Sketch:     engineTestCfg,
		Seed:       5,
	}
	edges := engineTestStream(5_000, 19)
	for i := range edges {
		edges[i].Time = int64(i) // nondecreasing timestamps
	}
	qs := engineTestQueries(edges, 100)

	direct, err := gsketch.NewWindowStore(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.ObserveBatch(edges); err != nil {
		t.Fatal(err)
	}
	want := gsketch.EstimateWindowBatch(direct, qs, 1000, 4000)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:500]),
		gsketch.WithWindows(wcfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryWindow(qs, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("window query %d: direct %v, engine %v", i, want[i], got[i])
		}
	}
	// Restore is refused while the window store is mounted.
	if err := eng.Restore(bytes.NewReader(nil)); !errors.Is(err, gsketch.ErrWindowMounted) {
		t.Fatalf("Restore with window = %v, want ErrWindowMounted", err)
	}
}

// TestEngineAnswerRecordsWorkload: Answer/AnswerBatch constituents land in
// the workload reservoir like QueryBatch's.
func TestEngineAnswerRecordsWorkload(t *testing.T) {
	edges := engineTestStream(2_000, 23)
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:500]),
		gsketch.WithWorkloadRecorder(64, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	resp := eng.Answer(gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}, {Src: edges[1].Src, Dst: edges[1].Dst}},
		Agg:   gsketch.Sum,
	})
	if len(resp.Results) != 2 {
		t.Fatalf("Answer folded %d results, want 2", len(resp.Results))
	}
	if st := eng.Stats(); st.Workload == nil || st.Workload.Seen != 2 {
		t.Fatalf("workload stats = %+v, want 2 seen", eng.Stats().Workload)
	}
}

// TestOpenRejectsContradictoryOptions: each remaining option conflict is
// refused at Open with its own message, before anything is built.
func TestOpenRejectsContradictoryOptions(t *testing.T) {
	sample := gsketch.WithSample([]gsketch.Edge{{Src: 1, Dst: 2}})
	adaptive := gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{})
	for _, tc := range []struct {
		name string
		opts []gsketch.Option
		want string
	}{
		{"restore+restore-file", []gsketch.Option{gsketch.WithRestore(bytes.NewReader(nil)), gsketch.WithRestoreFile("x.snap")}, "mutually exclusive"},
		{"negative-auto-interval", []gsketch.Option{sample, adaptive, gsketch.WithAutoRepartition(-time.Second, nil)}, "negative auto-repartition interval"},
		{"negative-decay", []gsketch.Option{sample, adaptive, gsketch.WithDecay(-time.Second)}, "negative decay half-life"},
		{"negative-tier-cap", []gsketch.Option{sample, adaptive, gsketch.WithTiering(t.TempDir(), -1)}, "negative tiering residency cap"},
		{"tier-dir-without-cap", []gsketch.Option{sample, adaptive, gsketch.WithTiering(t.TempDir(), 0)}, "both a directory and a positive residency cap"},
		{"negative-compaction-interval", []gsketch.Option{sample, adaptive, gsketch.WithCompaction(gsketch.CompactionPolicy{Interval: -time.Second}, nil)}, "negative compaction interval"},
		{"snapshot-on-close-without-path", []gsketch.Option{sample, gsketch.WithSnapshotOnClose()}, "needs a snapshot path"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := gsketch.Open(engineTestCfg, tc.opts...)
			if err == nil {
				eng.Close()
				t.Fatalf("Open succeeded, want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestOpenValidation pins the option-combination errors.
func TestOpenValidation(t *testing.T) {
	if _, err := gsketch.Open(engineTestCfg); err == nil {
		t.Fatal("Open with no bootstrap source should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal(), gsketch.WithSample(nil)); err == nil {
		t.Fatal("Open with two bootstrap sources should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal(),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{})); err == nil {
		t.Fatal("WithGlobal + WithAdaptive should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithSample([]gsketch.Edge{{Src: 1, Dst: 2}}),
		gsketch.WithAutoRepartition(time.Second, nil)); err == nil {
		t.Fatal("WithAutoRepartition without WithAdaptive should fail")
	}

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample([]gsketch.Edge{{Src: 1, Dst: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Repartition(); !errors.Is(err, gsketch.ErrNotAdaptive) {
		t.Fatalf("Repartition on non-adaptive = %v, want ErrNotAdaptive", err)
	}
	if _, err := eng.QueryWindow(nil, 0, 1); !errors.Is(err, gsketch.ErrNoWindow) {
		t.Fatalf("QueryWindow without store = %v, want ErrNoWindow", err)
	}
	if _, err := eng.SaveSnapshot(""); !errors.Is(err, gsketch.ErrNoSnapshotPath) {
		t.Fatalf("SaveSnapshot without path = %v, want ErrNoSnapshotPath", err)
	}
}

// TestEngineCloseDuringRepartition is the shutdown-ordering guard (run
// under -race in CI): Close must stop and await the auto-repartition loop
// before the final snapshot, so a rebuild can never race the save — even
// with manual Repartition calls and ingest in flight.
func TestEngineCloseDuringRepartition(t *testing.T) {
	dir := t.TempDir()
	edges := engineTestStream(12_000, 29)
	qs := engineTestQueries(edges[6_000:], 512)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 128}),
		gsketch.WithAdaptive(
			gsketch.ChainConfig{SampleSize: 512, Seed: 7, MaxGenerations: 64},
			gsketch.AdaptConfig{
				Sketch:         engineTestCfg,
				DriftThreshold: 0.01, MinWorkload: 1, MinData: 1,
			},
		),
		gsketch.WithAutoRepartition(time.Millisecond, nil),
		gsketch.WithWorkloadRecorder(1024, 1),
		gsketch.WithSnapshotDir(dir),
		gsketch.WithSnapshotOnClose(),
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // ingest pressure keeps the data reservoir fresh
		defer wg.Done()
		for i := 0; ; i += 500 {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Ingest(context.Background(), edges[i%10_000:i%10_000+500]...)
		}
	}()
	go func() { // query pressure feeds the drift signal and manual swaps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.QueryBatch(qs)
			_, _ = eng.Repartition()
		}
	}()

	time.Sleep(20 * time.Millisecond) // let swaps and the auto loop overlap
	if err := eng.Close(); err != nil {
		t.Fatalf("Close during repartition: %v", err)
	}
	close(stop)
	wg.Wait()

	// The final snapshot must be a loadable chain covering a consistent
	// state (Close stopped the loop before saving).
	f, err := os.Open(eng.SnapshotPath())
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	defer f.Close()
	if _, err := core.ReadChain(f); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	// Post-close ingest fails typed; reads stay usable.
	if err := eng.Ingest(context.Background(), edges[0]); !errors.Is(err, gsketch.ErrEngineClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrEngineClosed", err)
	}
	eng.QueryBatch(qs[:8])
}
