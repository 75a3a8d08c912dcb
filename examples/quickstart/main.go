// Quickstart: build a gSketch from a stream sample, ingest the stream,
// and answer edge and subgraph queries — the minimal end-to-end flow.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
)

func main() {
	// A synthetic co-authorship stream stands in for a live feed.
	cfg := graphgen.DBLPConfig{Authors: 2000, Papers: 20000, Seed: 1}
	edges, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: %d author-pair arrivals\n", len(edges))

	// 1. Sample the stream with a reservoir (the sample steers sketch
	//    partitioning; 10% here).
	res := gsketch.NewReservoir(len(edges)/10, 7)
	for _, e := range edges {
		res.Observe(e)
	}

	// 2. Open an engine with a deliberately tight 32 KiB budget (a
	//    generous budget would terminate partitioning at a single
	//    near-exact sketch via Theorem 1). WithIngest mounts the parallel
	//    ingest pipeline: its workers apply batches through locks sharded
	//    by partition (single pass, constant memory). Without it, Ingest
	//    applies edges synchronously.
	workers := runtime.GOMAXPROCS(0) // the pipeline default, spelled out
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 32 << 10, Seed: 42},
		gsketch.WithSample(res.Sample()),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: workers}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("gsketch: %d localized partitions, %d bytes of counters\n",
		eng.Sketch().NumPartitions(), eng.Sketch().MemoryBytes())

	// 3. Stream the edges through the pipeline, then wait until every
	//    accepted edge is applied (read-your-writes).
	ctx := context.Background()
	if err := eng.Ingest(ctx, edges...); err != nil {
		log.Fatal(err)
	}
	if err := eng.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	is := eng.IngestStats()
	fmt.Printf("ingested %d edges in %d batches across %d workers\n",
		is.EdgesApplied, is.BatchesApplied, workers)

	// 4. Edge query with guarantees: how often did the most frequent pair
	//    collaborate, and how much should we trust the answer? Answer
	//    resolves any query in one batched pass and reports the answering
	//    partition's error bound alongside the estimate.
	var top gsketch.Edge
	counts := map[[2]uint64]int64{}
	for _, e := range edges {
		counts[[2]uint64{e.Src, e.Dst}]++
		if counts[[2]uint64{e.Src, e.Dst}] > counts[[2]uint64{top.Src, top.Dst}] {
			top = e
		}
	}
	truth := counts[[2]uint64{top.Src, top.Dst}]
	resp := eng.Answer(gsketch.EdgeQuery{Src: top.Src, Dst: top.Dst})
	fmt.Printf("edge (%d,%d): true %d, estimated %.0f ±%.1f at %.1f%% confidence\n",
		top.Src, top.Dst, truth, resp.Value, resp.ErrorBound, 100*resp.Confidence)

	// 5. Aggregate subgraph query: total collaboration volume of a 3-edge
	//    neighbourhood, decomposed and answered in a single batched pass.
	q := gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{
			{Src: top.Src, Dst: top.Dst},
			{Src: top.Src, Dst: top.Dst + 1},
			{Src: top.Src, Dst: top.Dst + 2},
		},
		Agg: gsketch.Sum,
	}
	sub := eng.Answer(q)
	fmt.Printf("subgraph SUM estimate: %.0f ±%.1f\n", sub.Value, sub.ErrorBound)

	// 6. Node query: this author's aggregate volume toward three named
	//    co-authors — all constituents share the source vertex, so one
	//    localized sketch answers the whole query.
	node := eng.Answer(gsketch.NodeQuery{
		Node: top.Src,
		Out:  []uint64{top.Dst, top.Dst + 1, top.Dst + 2},
		Agg:  gsketch.Max,
	})
	fmt.Printf("node MAX estimate:     %.0f ±%.1f\n", node.Value, node.ErrorBound)
}
