package core

import (
	"sync"
	"testing"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

// The kernel benchmarks run the sharded batch paths at the ingest
// pipeline's shape: a partitioning of a few thousand localized sketches
// (a 2 MiB budget over a skewed R-MAT sample), 1024-edge write batches and
// 64-query read batches, one goroutine. At that shape a batch touches a
// small fraction of the shards, so any per-batch cost that follows the
// shard count instead of the batch shows up directly in ns/edge.

const (
	kernelBatch      = 1024
	kernelQueryBatch = 64
	kernelBytes      = 2 << 20
)

var (
	kernelOnce  sync.Once
	kernelEdges []stream.Edge
	kernelSmpl  []stream.Edge
)

// kernelInputs returns a skewed R-MAT stream and a reservoir sample of it,
// generated once per test binary.
func kernelInputs(tb testing.TB) (edges, sample []stream.Edge) {
	kernelOnce.Do(func() {
		var err error
		kernelEdges, err = graphgen.DefaultRMAT(18, 2_000_000, 11).Generate()
		if err != nil {
			tb.Fatal(err)
		}
		r := stream.NewReservoir(100_000, 12)
		for _, e := range kernelEdges {
			r.Observe(e)
		}
		kernelSmpl = append([]stream.Edge(nil), r.Sample()...)
	})
	return kernelEdges, kernelSmpl
}

// buildKernelSketch builds the many-shard reference sketch and fails the
// benchmark if the partitioning came out too coarse to exercise routing.
func buildKernelSketch(tb testing.TB, cfg Config) (*GSketch, []stream.Edge) {
	tb.Helper()
	edges, sample := kernelInputs(tb)
	cfg.TotalBytes = kernelBytes
	cfg.Seed = 0x6a09e667
	g, err := BuildGSketch(cfg, sample, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if g.NumPartitions() < 2000 {
		tb.Fatalf("kernel sketch has %d partitions, want >= 2000", g.NumPartitions())
	}
	return g, edges
}

func kernelQueries(edges []stream.Edge) []EdgeQuery {
	qs := make([]EdgeQuery, len(edges))
	for i, e := range edges {
		qs[i] = EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return qs
}

// BenchmarkKernelConcurrentUpdateBatch measures Concurrent.UpdateBatch
// per edge on 1024-edge batches against the many-shard sketch.
func BenchmarkKernelConcurrentUpdateBatch(b *testing.B) {
	g, edges := buildKernelSketch(b, Config{})
	c := NewConcurrent(g)
	batches := len(edges) / kernelBatch
	c.UpdateBatch(edges[:kernelBatch])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i % batches) * kernelBatch
		c.UpdateBatch(edges[lo : lo+kernelBatch])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernelBatch), "ns/edge")
}

// BenchmarkKernelConcurrentEstimateBatch measures Concurrent.EstimateBatch
// per query on 64-query batches against the many-shard sketch.
func BenchmarkKernelConcurrentEstimateBatch(b *testing.B) {
	g, edges := buildKernelSketch(b, Config{})
	c := NewConcurrent(g)
	Populate(c, edges)
	qs := kernelQueries(edges)
	batches := len(qs) / kernelQueryBatch
	c.EstimateBatch(qs[:kernelQueryBatch])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i % batches) * kernelQueryBatch
		c.EstimateBatch(qs[lo : lo+kernelQueryBatch])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernelQueryBatch), "ns/query")
}
