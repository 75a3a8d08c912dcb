package gsketch_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	gsketch "github.com/graphstream/gsketch"
)

// synthetic builds a small two-band stream: hub vertices with repeated
// heavy edges plus a tail of one-off edges.
func synthetic(n int) []gsketch.Edge {
	var edges []gsketch.Edge
	for i := 0; i < n; i++ {
		switch {
		case i%4 != 0:
			// Heavy band: few hub pairs repeated.
			hub := uint64(i % 8)
			edges = append(edges, gsketch.Edge{Src: hub, Dst: hub + 100, Weight: 1, Time: int64(i)})
		default:
			// Light band: fresh pair each time.
			edges = append(edges, gsketch.Edge{Src: uint64(1000 + i), Dst: uint64(2000 + i), Weight: 1, Time: int64(i)})
		}
	}
	return edges
}

func TestPublicAPIEndToEnd(t *testing.T) {
	edges := synthetic(20000)

	res := gsketch.NewReservoir(2000, 1)
	for _, e := range edges {
		res.Observe(e)
	}
	cfg := gsketch.Config{TotalBytes: 64 << 10, Seed: 42}
	eng, err := gsketch.Open(cfg, gsketch.WithSample(res.Sample()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}

	// Hub pair (1, 101): i%8 == 1 implies i%4 != 0, so it recurs
	// n/8 = 2500 times.
	est := eng.Query(1, 101).Estimate
	if est < 2500 {
		t.Errorf("hub estimate = %d, want ≥ 2500", est)
	}

	// Aggregate subgraph query over three hub pairs.
	q := gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}, {Src: 3, Dst: 103}},
		Agg:   gsketch.Sum,
	}
	if got := eng.Answer(q).Value; got < 7000 {
		t.Errorf("subgraph SUM = %v, want ≥ 7000", got)
	}

	// Serialization round-trip through the facade.
	var buf bytes.Buffer
	if _, err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gsketch.Open(cfg, gsketch.WithRestore(&buf))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Query(1, 101).Estimate != est {
		t.Error("loaded sketch disagrees")
	}
}

func TestPublicGlobalBaseline(t *testing.T) {
	edges := synthetic(5000)
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 32 << 10, Seed: 1}, gsketch.WithGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().StreamTotal; got != int64(len(edges)) {
		t.Errorf("count = %d", got)
	}
	if eng.Sketch() != nil {
		t.Error("the global baseline reports a partitioned sketch")
	}
}

func TestPublicConcurrent(t *testing.T) {
	edges := synthetic(5000)
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 32 << 10, Seed: 1}, gsketch.WithSample(edges[:500]))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	done := make(chan error, 1)
	go func() { done <- eng.Ingest(context.Background(), edges...) }()
	for i := 0; i < 100; i++ {
		_ = eng.Query(1, 101)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().StreamTotal; got != int64(len(edges)) {
		t.Errorf("count = %d", got)
	}
}

func TestPublicWindowStore(t *testing.T) {
	s, err := gsketch.NewWindowStore(gsketch.WindowConfig{
		Span:       1000,
		SampleSize: 100,
		Sketch:     gsketch.Config{TotalBytes: 16 << 10},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := s.Observe(gsketch.Edge{Src: 1, Dst: 2, Weight: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.EstimateEdgeAll(1, 2); got < 3000 {
		t.Errorf("windowed estimate = %v, want ≥ 3000", got)
	}
}

func TestPublicBatchedQueryAPI(t *testing.T) {
	edges := synthetic(20000)
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 64 << 10, Seed: 5}, gsketch.WithSample(edges[:2000]))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	g := eng.Estimator()

	// EstimateBatch matches per-edge EstimateEdge and carries guarantees.
	qs := []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}, {Src: 987654, Dst: 1}}
	res := gsketch.EstimateBatch(g, qs)
	if len(res) != len(qs) {
		t.Fatalf("EstimateBatch returned %d results", len(res))
	}
	for i, q := range qs {
		if res[i].Estimate != g.EstimateEdge(q.Src, q.Dst) {
			t.Fatalf("query %d: batch %d vs sequential %d", i, res[i].Estimate, g.EstimateEdge(q.Src, q.Dst))
		}
		if res[i].Confidence <= 0 || res[i].Confidence >= 1 {
			t.Fatalf("query %d: confidence %v", i, res[i].Confidence)
		}
		if res[i].StreamTotal != g.Count() {
			t.Fatalf("query %d: stream total %d, want %d", i, res[i].StreamTotal, g.Count())
		}
	}

	// Answer resolves each query kind through one batched pass.
	edge := gsketch.Answer(g, gsketch.EdgeQuery{Src: 1, Dst: 101})
	if edge.Value != float64(g.EstimateEdge(1, 101)) {
		t.Fatalf("Answer(edge) = %v", edge.Value)
	}
	sub := gsketch.Answer(g, gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}},
		Agg:   gsketch.Sum,
	})
	wantSum := float64(g.EstimateEdge(1, 101) + g.EstimateEdge(2, 102))
	if sub.Value != wantSum {
		t.Fatalf("Answer(subgraph SUM) = %v, want %v", sub.Value, wantSum)
	}
	if sub.ErrorBound <= 0 {
		t.Fatalf("subgraph bound %v", sub.ErrorBound)
	}
	node := gsketch.Answer(g, gsketch.NodeQuery{Node: 1, Out: []uint64{101, 102}, Agg: gsketch.Max})
	wantMax := float64(g.EstimateEdge(1, 101))
	if m := float64(g.EstimateEdge(1, 102)); m > wantMax {
		wantMax = m
	}
	if node.Value != wantMax {
		t.Fatalf("Answer(node MAX) = %v, want %v", node.Value, wantMax)
	}

	// AnswerBatch flattens heterogeneous queries into one estimator pass.
	batch := gsketch.AnswerBatch(g, []gsketch.Query{
		gsketch.EdgeQuery{Src: 1, Dst: 101},
		gsketch.SubgraphQuery{Edges: []gsketch.EdgeQuery{{Src: 2, Dst: 102}}, Agg: gsketch.Average},
	})
	if len(batch) != 2 || batch[0].Value != edge.Value {
		t.Fatalf("AnswerBatch = %+v", batch)
	}

	// The engine's own Answer resolves identically.
	if got := eng.Answer(gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}},
		Agg:   gsketch.Sum,
	}); got.Value != wantSum {
		t.Fatalf("Engine.Answer(subgraph SUM) = %v, want %v", got.Value, wantSum)
	}
}

func TestPublicWindowBatch(t *testing.T) {
	s, err := gsketch.NewWindowStore(gsketch.WindowConfig{
		Span:       1000,
		SampleSize: 100,
		Sketch:     gsketch.Config{TotalBytes: 16 << 10},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := s.Observe(gsketch.Edge{Src: 1, Dst: 2, Weight: 1, Time: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	qs := []gsketch.EdgeQuery{{Src: 1, Dst: 2}, {Src: 9, Dst: 9}}
	got := gsketch.EstimateWindowBatch(s, qs, 0, 2999)
	if got[0] != s.EstimateEdge(1, 2, 0, 2999) {
		t.Fatalf("windowed batch %v vs sequential %v", got[0], s.EstimateEdge(1, 2, 0, 2999))
	}
	if got[1] != s.EstimateEdge(9, 9, 0, 2999) {
		t.Fatalf("windowed batch absent-edge %v", got[1])
	}
}

func TestPublicInterner(t *testing.T) {
	in := gsketch.NewInterner()
	alice := in.Intern("10.0.0.1")
	bob := in.Intern("10.0.0.2")
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 16 << 10, Seed: 1},
		gsketch.WithSample([]gsketch.Edge{{Src: alice, Dst: bob, Weight: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), gsketch.Edge{Src: alice, Dst: bob, Weight: 7}); err != nil {
		t.Fatal(err)
	}
	if est := eng.Query(alice, bob).Estimate; est < 7 {
		t.Errorf("estimate = %d", est)
	}
}

// ExampleOpen demonstrates the quickstart flow: sample, open, stream,
// query.
func ExampleOpen() {
	// A toy stream: the pair (1, 2) appears 6 times, (3, 4) once.
	stream := []gsketch.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 3, Dst: 4},
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 16, Seed: 7}, gsketch.WithSample(stream))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), stream...); err != nil {
		panic(err)
	}
	fmt.Println(eng.Query(1, 2).Estimate)
	// Output: 6
}

// ExampleEngine_Answer demonstrates an aggregate subgraph query.
func ExampleEngine_Answer() {
	stream := []gsketch.Edge{
		{Src: 1, Dst: 2, Weight: 5},
		{Src: 2, Dst: 3, Weight: 7},
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 16, Seed: 7}, gsketch.WithSample(stream))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), stream...); err != nil {
		panic(err)
	}
	total := eng.Answer(gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		Agg:   gsketch.Sum,
	})
	fmt.Println(total.Value)
	// Output: 12
}
