// Package query implements the paper's query model (§3.1) and evaluation
// methodology (§6.2): the sealed Query sum type (edge queries, aggregate
// subgraph queries with a pluggable aggregate Γ and vertex aggregate (node)
// queries — the types themselves live in internal/core so an edge query IS
// the unit of the batched read path, with no conversion layer), all
// resolved through the batched estimator read path by a single Answer entry
// point; plus generators for uniform query sets, Zipf-skewed workload
// samples and BFS-grown subgraph queries, and the two accuracy metrics —
// average relative error (Eq. 12–13) and number of effective queries
// (Eq. 14).
package query

import (
	"fmt"
	"math"

	"github.com/graphstream/gsketch/internal/core"
)

// Query is the sealed sum of the supported query kinds: EdgeQuery,
// SubgraphQuery and NodeQuery. Every kind decomposes into constituent edge
// queries and is resolved by Answer (or AnswerBatch) in one batched
// estimator pass.
type Query = core.Query

// EdgeQuery asks for the accumulated frequency of one directed edge. It is
// the same type as the batched read path's unit — a []EdgeQuery feeds
// Estimator.EstimateBatch directly, with no conversion copy.
type EdgeQuery = core.EdgeQuery

// Aggregate is the Γ(·) of an aggregate subgraph query.
type Aggregate = core.Aggregate

// Supported aggregates. SUM is the paper's experimental default.
const (
	Sum     = core.Sum
	Min     = core.Min
	Max     = core.Max
	Average = core.Average
	Count   = core.Count
)

// SubgraphQuery asks for the aggregate frequency behaviour of the
// constituent edges of a subgraph (a bag of edges, per §3.1).
type SubgraphQuery = core.SubgraphQuery

// NodeQuery asks for the aggregate frequency behaviour of one source
// vertex's edges toward an explicit destination set.
type NodeQuery = core.NodeQuery

// Response is a resolved Query: the aggregate value plus the per-edge
// batched results it folded and the combined accuracy guarantee.
type Response struct {
	// Value is the query answer: the point estimate for an EdgeQuery, the
	// Γ-fold for subgraph and node queries.
	Value float64
	// Results are the per-constituent-edge batched answers, in
	// decomposition order (a single element for an EdgeQuery). The slice
	// may alias a batch shared with other Responses from AnswerBatch.
	Results []core.Result
	// ErrorBound is the additive error bound on Value, combined across
	// constituents per the aggregate: summed for SUM, averaged for
	// AVERAGE, the worst constituent bound for MIN/MAX, 0 for COUNT.
	ErrorBound float64
	// Confidence lower-bounds the probability that Value is within
	// ErrorBound, via a union bound over the constituents' δ.
	Confidence float64
	// StreamTotal is the estimator's stream-volume snapshot for the batch
	// that answered this query.
	StreamTotal int64
}

// appendConstituents flattens a query onto dst as routed edge queries.
func appendConstituents(dst []core.EdgeQuery, q Query) []core.EdgeQuery {
	switch q := q.(type) {
	case EdgeQuery:
		return append(dst, q)
	case SubgraphQuery:
		return append(dst, q.Edges...)
	case NodeQuery:
		for _, d := range q.Out {
			dst = append(dst, core.EdgeQuery{Src: q.Node, Dst: d})
		}
		return dst
	default:
		// Unreachable: Query is sealed to the core package's types.
		panic(fmt.Sprintf("query: unknown query kind %T", q))
	}
}

// fold combines one query's constituent results into its Response.
func fold(q Query, res []core.Result) Response {
	r := Response{Results: res}
	if len(res) == 0 {
		return r
	}
	r.StreamTotal = res[0].StreamTotal

	if _, ok := q.(EdgeQuery); ok {
		r.Value = float64(res[0].Estimate)
		r.ErrorBound = res[0].ErrorBound
		r.Confidence = res[0].Confidence
		return r
	}
	var agg Aggregate
	switch q := q.(type) {
	case SubgraphQuery:
		agg = q.Agg
	case NodeQuery:
		agg = q.Agg
	}
	vals := make([]float64, len(res))
	for i, c := range res {
		vals[i] = float64(c.Estimate)
	}
	r.Value = agg.Apply(vals)
	r.ErrorBound = combineBounds(agg, res)
	r.Confidence = unionConfidence(res)
	return r
}

// combineBounds folds the per-constituent additive bounds per aggregate:
// additive errors add under SUM, average under AVERAGE, and an extremum is
// off by at most the worst constituent bound under MIN/MAX. COUNT is exact.
func combineBounds(agg Aggregate, res []core.Result) float64 {
	switch agg {
	case Sum, Average:
		s := 0.0
		for _, c := range res {
			s += c.ErrorBound
		}
		if agg == Average {
			s /= float64(len(res))
		}
		return s
	case Min, Max:
		m := 0.0
		for _, c := range res {
			if c.ErrorBound > m {
				m = c.ErrorBound
			}
		}
		return m
	case Count:
		return 0
	default:
		panic(fmt.Sprintf("query: unknown aggregate %d", int(agg)))
	}
}

// unionConfidence lower-bounds the joint guarantee 1 - Σ δ_i (union bound
// over constituent failure probabilities), floored at 0.
func unionConfidence(res []core.Result) float64 {
	deltas := 0.0
	for _, c := range res {
		deltas += 1 - c.Confidence
	}
	if deltas >= 1 {
		return 0
	}
	return 1 - deltas
}

// AccumulateResults folds one more generation's batch answers into acc,
// position-wise. It is the sound cross-generation combination the adaptive
// chain relies on: a stream split across k sketch generations has per-edge
// frequency equal to the sum of per-generation frequencies, so
//
//   - point estimates sum (each generation's CountMin never underestimates
//     its own segment, so the sum never underestimates the whole stream);
//   - the additive ε·N_i bounds add — the combined estimate is off by at
//     most the sum of the per-generation overcounts;
//   - confidence combines by a union bound over the per-generation failure
//     probabilities: 1 - Σ δ_g, floored at 0;
//   - stream-total snapshots sum to the chain-wide volume.
//
// Provenance (Partition, Outlier) stays acc's — by convention the live
// head generation answers first, so combined results carry the routing of
// the partitioning currently serving.
func AccumulateResults(acc, gen []core.Result) {
	if len(gen) != len(acc) {
		panic(fmt.Sprintf("query: generation answered %d results, want %d", len(gen), len(acc)))
	}
	for i := range acc {
		g := gen[i]
		acc[i].Estimate += g.Estimate
		acc[i].ErrorBound += g.ErrorBound
		deltas := (1 - acc[i].Confidence) + (1 - g.Confidence)
		if deltas >= 1 {
			acc[i].Confidence = 0
		} else {
			acc[i].Confidence = 1 - deltas
		}
		acc[i].StreamTotal += g.StreamTotal
	}
}

// AccumulateResultsWeighted is AccumulateResults with an age-decay weight w
// in (0, 1] applied to the incoming generation's contribution: estimates
// and error bounds scale by w before folding, so ancient stream segments
// stop dominating combined answers while the soundness shape is preserved
// (a w-scaled overestimate with a w-scaled additive bound still brackets
// the w-scaled true segment frequency). Confidence still combines by the
// union bound — decay does not improve a generation's failure probability —
// and StreamTotal stays the unweighted sum, reporting real stream volume
// rather than decayed volume. w outside (0, 1] is clamped; w == 1 is
// exactly AccumulateResults.
func AccumulateResultsWeighted(acc, gen []core.Result, w float64) {
	if w >= 1 {
		AccumulateResults(acc, gen)
		return
	}
	if len(gen) != len(acc) {
		panic(fmt.Sprintf("query: generation answered %d results, want %d", len(gen), len(acc)))
	}
	if w < 0 {
		w = 0
	}
	for i := range acc {
		g := gen[i]
		acc[i].Estimate += int64(math.Round(w * float64(g.Estimate)))
		acc[i].ErrorBound += w * g.ErrorBound
		deltas := (1 - acc[i].Confidence) + (1 - g.Confidence)
		if deltas >= 1 {
			acc[i].Confidence = 0
		} else {
			acc[i].Confidence = 1 - deltas
		}
		acc[i].StreamTotal += g.StreamTotal
	}
}

// Answer resolves any Query against an estimator in one batched pass: the
// query is decomposed into constituent edge queries, the estimator answers
// them all with a single EstimateBatch call, and the aggregate plus the
// combined (ε, δ) guarantee are folded from the per-edge Results.
func Answer(est core.Estimator, q Query) Response {
	return fold(q, est.EstimateBatch(appendConstituents(nil, q)))
}

// AnswerBatch resolves a batch of heterogeneous queries with ONE
// EstimateBatch call: every query's constituents are flattened into a
// single routed pass and each Response folds its own slice of the shared
// results. Responses are returned in input order.
func AnswerBatch(est core.Estimator, qs []Query) []Response {
	if len(qs) == 0 {
		return nil
	}
	offs := make([]int, len(qs)+1)
	var flat []core.EdgeQuery
	for i, q := range qs {
		flat = appendConstituents(flat, q)
		offs[i+1] = len(flat)
	}
	res := est.EstimateBatch(flat)
	out := make([]Response, len(qs))
	for i, q := range qs {
		out[i] = fold(q, res[offs[i]:offs[i+1]])
	}
	return out
}

// ExactSubgraph resolves a subgraph query against exact frequencies
// provided by lookup.
func ExactSubgraph(lookup func(src, dst uint64) int64, q SubgraphQuery) float64 {
	vals := make([]float64, len(q.Edges))
	for i, e := range q.Edges {
		vals[i] = float64(lookup(e.Src, e.Dst))
	}
	return q.Agg.Apply(vals)
}

// RelativeError is e_r(q) = f̃(q)/f(q) - 1 (Eq. 12 / Eq. 15). A zero true
// value with a nonzero estimate yields +Inf; zero/zero yields 0.
func RelativeError(estimate, truth float64) float64 {
	if truth == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return estimate/truth - 1
}
