// Social-network example (the paper's application 1): estimate
// communication frequencies between friends and within communities on a
// co-authorship-style interaction stream, comparing gSketch against the
// Global Sketch baseline at the same memory budget.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	cfg := graphgen.DBLPConfig{Authors: 6000, Papers: 60000, Seed: 42}
	edges, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for the demo report (a real deployment cannot afford
	// this; that is the point of sketching).
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	fmt.Printf("stream: %d interactions, %d distinct pairs, %d members\n",
		exact.Total(), exact.DistinctEdges(), exact.DistinctSources())

	const budget = 16 << 10 // deliberately tight: 16 KiB
	sample := reservoirSample(edges, 0.2, 7)

	sketchCfg := gsketch.Config{TotalBytes: budget, Seed: 1}
	g, err := gsketch.Open(sketchCfg, gsketch.WithSample(sample))
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	global, err := gsketch.Open(sketchCfg, gsketch.WithGlobal())
	if err != nil {
		log.Fatal(err)
	}
	defer global.Close()
	// Without WithIngest the engines apply edges synchronously.
	ctx := context.Background()
	if err := g.Ingest(ctx, edges...); err != nil {
		log.Fatal(err)
	}
	if err := global.Ingest(ctx, edges...); err != nil {
		log.Fatal(err)
	}

	// "How often do these two friends interact?" — collect a spread of
	// true frequencies, then answer the whole set with one batched pass
	// per estimator. Each gSketch Result also names its answering
	// partition and the ε·N_i bound that partition guarantees. The pairs
	// are walked in (src, dst) order so every run picks the same probes.
	pairs := sortedPairs(exact)
	var probes []gsketch.EdgeQuery
	var truths []int64
	lastF := int64(-1)
	for _, p := range pairs {
		if len(probes) == 8 {
			break
		}
		if p.Weight == lastF {
			continue
		}
		lastF = p.Weight
		probes = append(probes, gsketch.EdgeQuery{Src: p.Src, Dst: p.Dst})
		truths = append(truths, p.Weight)
	}
	gRes := g.QueryBatch(probes)
	globalRes := global.QueryBatch(probes)
	fmt.Println("\npair-frequency estimates (16 KiB budget):")
	fmt.Println("true   gSketch  ±bound  GlobalSketch  ±bound")
	for i := range probes {
		fmt.Printf("%5d  %7d  %6.0f  %12d  %6.0f\n",
			truths[i], gRes[i].Estimate, gRes[i].ErrorBound,
			globalRes[i].Estimate, globalRes[i].ErrorBound)
	}

	// "What is the overall communication volume within a community?" —
	// an aggregate subgraph query over one member's neighbourhood.
	// The hub is the most active member (lowest id on a tie).
	var hub uint64
	var best int64
	for _, p := range pairs {
		if f := exact.VertexFrequency(p.Src); f > best {
			best, hub = f, p.Src
		}
	}
	var community gsketch.SubgraphQuery
	community.Agg = gsketch.Sum
	var truth float64
	for _, p := range pairs {
		if p.Src == hub {
			community.Edges = append(community.Edges, gsketch.EdgeQuery{Src: p.Src, Dst: p.Dst})
			truth += float64(p.Weight)
		}
	}
	gAns := g.Answer(community)
	globalAns := global.Answer(community)
	fmt.Printf("\ncommunity of member %d (%d edges): true volume %.0f\n", hub, len(community.Edges), truth)
	fmt.Printf("  gSketch estimate:      %.0f ±%.0f\n", gAns.Value, gAns.ErrorBound)
	fmt.Printf("  GlobalSketch estimate: %.0f ±%.0f\n", globalAns.Value, globalAns.ErrorBound)
}

// sortedPairs lists the distinct pairs with their exact frequencies (as
// Weight) in (src, dst) order.
func sortedPairs(exact *stream.ExactCounter) []gsketch.Edge {
	pairs := exact.Edges()
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return pairs
}

func reservoirSample(edges []gsketch.Edge, frac float64, seed uint64) []gsketch.Edge {
	res := gsketch.NewReservoir(int(float64(len(edges))*frac), seed)
	for _, e := range edges {
		res.Observe(e)
	}
	out := make([]gsketch.Edge, len(res.Sample()))
	copy(out, res.Sample())
	return out
}
