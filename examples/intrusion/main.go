// Network-intrusion example (the paper's application 2): estimate attack
// frequencies between IP pairs on a sensor stream. Demonstrates the §4.2
// scenario — when a query-workload sample is available (here: the analyst
// repeatedly investigates the same suspicious sources), workload-aware
// partitioning beats data-only partitioning.
package main

import (
	"context"
	"fmt"
	"log"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	cfg := graphgen.DefaultIPAttack(2000, 12000, 300000, 9)
	edges, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)

	// The paper's sampling choice for this dataset: the first day's
	// packets are the data sample.
	dataSample := graphgen.FirstDay(edges)
	fmt.Printf("stream: %d packets over 5 days; first-day sample %d packets\n",
		len(edges), len(dataSample))

	// Analyst workload: Zipf-skewed queries over attack pairs (the same
	// suspicious pairs get re-investigated constantly).
	const alpha = 1.5
	workload := query.ZipfWorkloadSample(exact, 20000, alpha, 77, 78)
	queries := query.ZipfEdgeQueries(exact, 5000, alpha, 77, 79)

	const budget = 16 << 10
	base := gsketch.Config{TotalBytes: budget, Seed: 3}

	global, err := gsketch.Open(base, gsketch.WithGlobal())
	if err != nil {
		log.Fatal(err)
	}
	dataOnly, err := gsketch.Open(base, gsketch.WithSample(dataSample))
	if err != nil {
		log.Fatal(err)
	}
	workloadAware, err := gsketch.Open(base, gsketch.WithSample(dataSample), gsketch.WithWorkloadSample(workload))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, eng := range []*gsketch.Engine{global, dataOnly, workloadAware} {
		defer eng.Close()
		if err := eng.Ingest(ctx, edges...); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\naccuracy on %d analyst queries (Zipf α=%.1f, %d-byte budget):\n",
		len(queries), alpha, budget)
	report := func(name string, eng *gsketch.Engine) {
		acc := query.EvaluateEdgeQueries(eng.Estimator(), exact, queries, query.DefaultG0)
		fmt.Printf("  %-22s avg relative error %8.3f   effective queries %5d/%d\n",
			name, acc.AvgRelErr, acc.Effective, acc.Total)
	}
	report("GlobalSketch", global)
	report("gSketch (data only)", dataOnly)
	report("gSketch (data+workload)", workloadAware)

	// Spot-check a heavy attacker pair.
	var src, dst uint64
	var f int64
	exact.RangeEdges(func(s, d uint64, freq int64) bool {
		if freq > f {
			src, dst, f = s, d, freq
		}
		return true
	})
	fmt.Printf("\nheaviest attack pair (%d -> %d): true %d, gSketch %d, within bound e·N_i/w_i = %.0f\n",
		src, dst, f, workloadAware.Query(src, dst).Estimate, workloadAware.Sketch().ErrorBound(src))
}
