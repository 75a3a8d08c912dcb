package main

import (
	"fmt"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// inputs is everything a workload hands the program, generated from the
// workload seed alone. The program sees only edges and queries; truth
// stays on the benchmark side.
type inputs struct {
	// edges is one pass of the stream; frames cuts it into wire frames.
	edges  []gsketch.Edge
	frames [][]gsketch.Edge
	// volume is the summed weight of one pass.
	volume int64

	// sample is the partitioning data sample; workload the query-workload
	// sample (nil in the data-only scenario).
	sample   []gsketch.Edge
	workload []gsketch.Edge

	// queries is the timed query list with its one-pass truth.
	queries []gsketch.EdgeQuery
	truth   []int64
	// accQueries is the fixed accuracy query set with its one-pass truth.
	accQueries []gsketch.EdgeQuery
	accTruth   []int64

	// phases cuts the stream into workload phases (the carousel's, or equal
	// slices of the R-MAT stream for the traced chain replay).
	phases [][]gsketch.Edge
	// phaseQueries are the per-phase query pools of chain-mixed;
	// phaseCounts holds, per queried edge, its count in each phase.
	phaseQueries [][]gsketch.EdgeQuery
	phaseCounts  map[[2]uint64][]int64

	// subgraphs are BFS 10-edge subgraph queries for the library-only
	// AnswerBatch layer row.
	subgraphs []gsketch.Query

	// Sizes recorded in the result.
	distinctEdges int
}

// makeInputs generates a workload's inputs from its seed.
func makeInputs(workload string, seed uint64, sz sizes) (*inputs, error) {
	switch workload {
	case wlIngestWire, wlQueryWire:
		return rmatInputs(workload, seed, sz)
	case wlChainMixed:
		return carouselInputs(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// rmatInputs builds the skewed R-MAT stream (GTGraph defaults plus burst
// overlay) of ingest-wire and query-wire. ingest-wire answers a uniform
// query set (paper scenario 1); query-wire draws Zipf(1.5) queries over the
// distinct edges and a workload sample with the same popularity ranking
// (scenario 2).
func rmatInputs(workload string, seed uint64, sz sizes) (*inputs, error) {
	edges, err := graphgen.DefaultRMAT(sz.RMATScale, sz.RMATEdges, seed).Generate()
	if err != nil {
		return nil, err
	}
	in := &inputs{edges: edges}
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	in.volume = exact.Total()
	in.distinctEdges = exact.DistinctEdges()
	in.sample = reservoir(edges, sz.DataSample, seed^0x5a5a)
	in.frames = cut(edges, sz.Frame)

	if workload == wlIngestWire {
		in.accQueries = query.UniformEdgeQueries(exact, sz.AccQueries, seed+1)
		in.queries = in.accQueries
	} else {
		perm := seed + 2
		in.workload = query.ZipfWorkloadSample(exact, sz.WorkloadSample, zipfAlpha, perm, seed+3)
		in.queries = query.ZipfEdgeQueries(exact, sz.ZipfQueries, zipfAlpha, perm, seed+4)
		// The accuracy set is the queried edge population, each edge once:
		// under Zipf(1.5) a handful of edges carry most draws, and scoring
		// draws would score those few edges.
		in.accQueries = distinctQueries(in.queries, sz.AccQueries)
	}
	in.truth = truthOf(exact, in.queries)
	in.accTruth = truthOf(exact, in.accQueries)
	in.phases = cut(edges, (len(edges)+3)/4)
	in.subgraphs = subgraphs(exact, seed+5, 256)
	return in, nil
}

// carouselInputs builds chain-mixed's rotating-popularity stream: every
// phase promotes a disjoint hot set of sources, so every phase boundary is
// a workload pivot worth a repartition.
func carouselInputs(seed uint64, sz sizes) (*inputs, error) {
	car := graphgen.CarouselConfig{
		Vertices:      sz.CarouselVertices,
		Destinations:  sz.CarouselDests,
		Phases:        sz.CarouselPhases,
		EdgesPerPhase: sz.PhaseEdges,
		Alpha:         sz.CarouselAlpha,
		Seed:          seed,
	}
	edges, err := graphgen.ZipfCarouselStream(car)
	if err != nil {
		return nil, err
	}
	in := &inputs{edges: edges, volume: int64(len(edges))}
	in.phases = cut(edges, sz.PhaseEdges)
	in.frames = cut(edges, sz.Frame)
	in.sample = reservoir(in.phases[0], sz.DataSample, seed^0x5a5a)

	in.phaseCounts = make(map[[2]uint64][]int64)
	for p := range in.phases {
		raw := car.PhaseQueries(p, sz.PhaseQueries, seed+uint64(100+p))
		qs := make([]gsketch.EdgeQuery, len(raw))
		for i, e := range raw {
			qs[i] = gsketch.EdgeQuery{Src: e.Src, Dst: e.Dst}
			in.phaseCounts[[2]uint64{e.Src, e.Dst}] = make([]int64, len(in.phases))
		}
		in.phaseQueries = append(in.phaseQueries, qs)
	}
	exact := stream.NewExactCounter()
	for p, ph := range in.phases {
		for _, e := range ph {
			exact.Observe(e)
			if c, ok := in.phaseCounts[[2]uint64{e.Src, e.Dst}]; ok {
				c[p] += weight(e)
			}
		}
	}
	in.distinctEdges = exact.DistinctEdges()
	// The accuracy set is the pools of the phases ingested before the
	// accuracy point; its truth is their counts.
	for _, qs := range in.phaseQueries[:min(chainAccuracyAt+1, len(in.phaseQueries))] {
		in.accQueries = append(in.accQueries, qs...)
	}
	in.accTruth = truthOf(exact, in.accQueries)
	in.queries, in.truth = in.accQueries, in.accTruth
	in.subgraphs = subgraphs(exact, seed+5, 256)
	return in, nil
}

func weight(e gsketch.Edge) int64 {
	if e.Weight <= 0 {
		return 1
	}
	return e.Weight
}

// cut slices edges into consecutive chunks of at most n.
func cut(edges []gsketch.Edge, n int) [][]gsketch.Edge {
	var out [][]gsketch.Edge
	for lo := 0; lo < len(edges); lo += n {
		hi := lo + n
		if hi > len(edges) {
			hi = len(edges)
		}
		out = append(out, edges[lo:hi:hi])
	}
	return out
}

func reservoir(edges []gsketch.Edge, n int, seed uint64) []gsketch.Edge {
	r := stream.NewReservoir(n, seed)
	for _, e := range edges {
		r.Observe(e)
	}
	return append([]gsketch.Edge(nil), r.Sample()...)
}

func truthOf(exact *stream.ExactCounter, qs []gsketch.EdgeQuery) []int64 {
	t := make([]int64, len(qs))
	for i, q := range qs {
		t[i] = exact.EdgeFrequency(q.Src, q.Dst)
	}
	return t
}

func subgraphs(exact *stream.ExactCounter, seed uint64, n int) []gsketch.Query {
	sg := query.BFSSubgraphQueries(exact, query.SubgraphConfig{Count: n, EdgesPer: 10, Agg: query.Sum, Seed: seed})
	out := make([]gsketch.Query, len(sg))
	for i, q := range sg {
		out[i] = q
	}
	return out
}

// distinctQueries returns the first n distinct queries of qs, in order.
func distinctQueries(qs []gsketch.EdgeQuery, n int) []gsketch.EdgeQuery {
	seen := make(map[gsketch.EdgeQuery]bool)
	var out []gsketch.EdgeQuery
	for _, q := range qs {
		if len(out) == n {
			break
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}
