package query

import (
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

func TestAggregates(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	cases := []struct {
		agg  Aggregate
		want float64
	}{
		{Sum, 10}, {Min, 1}, {Max, 4}, {Average, 2.5}, {Count, 4},
	}
	for _, c := range cases {
		if got := c.agg.Apply(vals); got != c.want {
			t.Errorf("%v(%v) = %v, want %v", c.agg, vals, got, c.want)
		}
	}
	for _, a := range []Aggregate{Sum, Min, Max, Average, Count} {
		if got := a.Apply(nil); got != 0 {
			t.Errorf("%v(nil) = %v, want 0", a, got)
		}
		if a.String() == "" {
			t.Errorf("aggregate %d has no name", int(a))
		}
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(15, 10); got != 0.5 {
		t.Errorf("relerr(15,10) = %v, want 0.5", got)
	}
	if got := RelativeError(10, 10); got != 0 {
		t.Errorf("relerr(10,10) = %v, want 0", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("relerr(0,0) = %v, want 0", got)
	}
	if got := RelativeError(5, 0); !math.IsInf(got, 1) {
		t.Errorf("relerr(5,0) = %v, want +Inf", got)
	}
}

// exactEstimator answers queries from an exact counter (zero error).
type exactEstimator struct{ c *stream.ExactCounter }

func (e exactEstimator) Update(edge stream.Edge)            { e.c.Observe(edge) }
func (e exactEstimator) UpdateBatch(edges []stream.Edge)    { e.c.ObserveAll(edges) }
func (e exactEstimator) EstimateEdge(src, dst uint64) int64 { return e.c.EdgeFrequency(src, dst) }
func (e exactEstimator) Count() int64                       { return e.c.Total() }
func (e exactEstimator) MemoryBytes() int                   { return 0 }

func (e exactEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	out := make([]core.Result, len(qs))
	for i, q := range qs {
		out[i] = core.Result{
			Estimate:    e.c.EdgeFrequency(q.Src, q.Dst),
			Partition:   core.NoPartition,
			Confidence:  1,
			StreamTotal: e.c.Total(),
		}
	}
	return out
}

var _ core.Estimator = exactEstimator{}

func TestAnswerSubgraphOverExact(t *testing.T) {
	c := stream.NewExactCounter()
	c.Observe(stream.Edge{Src: 1, Dst: 2, Weight: 10})
	c.Observe(stream.Edge{Src: 2, Dst: 3, Weight: 20})
	est := exactEstimator{c}
	q := SubgraphQuery{
		Edges: []EdgeQuery{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		Agg:   Sum,
	}
	if got := Answer(est, q).Value; got != 30 {
		t.Errorf("subgraph SUM = %v, want 30", got)
	}
	q.Agg = Min
	if got := Answer(est, q).Value; got != 10 {
		t.Errorf("subgraph MIN = %v, want 10", got)
	}
	if got := ExactSubgraph(c.EdgeFrequency, q); got != 10 {
		t.Errorf("exact subgraph MIN = %v, want 10", got)
	}
}

func TestEvaluateEdgeQueriesExactEstimator(t *testing.T) {
	c := stream.NewExactCounter()
	for i := uint64(0); i < 100; i++ {
		c.Observe(stream.Edge{Src: i % 10, Dst: i, Weight: int64(i%5) + 1})
	}
	est := exactEstimator{c}
	queries := UniformEdgeQueries(c, 500, 1)
	acc := EvaluateEdgeQueries(est, c, queries, DefaultG0)
	if acc.AvgRelErr != 0 {
		t.Errorf("exact estimator ARE = %v, want 0", acc.AvgRelErr)
	}
	if acc.Effective != acc.Total || acc.Total != 500 {
		t.Errorf("effective = %d of %d, want all", acc.Effective, acc.Total)
	}
	if acc.Skipped != 0 {
		t.Errorf("skipped = %d", acc.Skipped)
	}
}

func TestEvaluateSkipsZeroTruth(t *testing.T) {
	c := stream.NewExactCounter()
	c.Observe(stream.Edge{Src: 1, Dst: 2, Weight: 5})
	est := exactEstimator{c}
	queries := []EdgeQuery{{Src: 1, Dst: 2}, {Src: 9, Dst: 9}}
	acc := EvaluateEdgeQueries(est, c, queries, DefaultG0)
	if acc.Total != 1 || acc.Skipped != 1 {
		t.Errorf("total=%d skipped=%d, want 1/1", acc.Total, acc.Skipped)
	}
}

// biasedEstimator overestimates everything by a fixed factor.
type biasedEstimator struct {
	c      *stream.ExactCounter
	factor int64
}

func (e biasedEstimator) Update(stream.Edge)             {}
func (e biasedEstimator) UpdateBatch([]stream.Edge)      {}
func (e biasedEstimator) EstimateEdge(s, d uint64) int64 { return e.c.EdgeFrequency(s, d) * e.factor }
func (e biasedEstimator) Count() int64                   { return e.c.Total() }
func (e biasedEstimator) MemoryBytes() int               { return 0 }

func (e biasedEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	out := make([]core.Result, len(qs))
	for i, q := range qs {
		out[i] = core.Result{Estimate: e.EstimateEdge(q.Src, q.Dst), Partition: core.NoPartition}
	}
	return out
}

func TestEvaluateMetricsArithmetic(t *testing.T) {
	c := stream.NewExactCounter()
	c.Observe(stream.Edge{Src: 1, Dst: 2, Weight: 10})
	c.Observe(stream.Edge{Src: 3, Dst: 4, Weight: 10})
	est := biasedEstimator{c, 3} // relative error = 2 everywhere
	queries := []EdgeQuery{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	acc := EvaluateEdgeQueries(est, c, queries, DefaultG0)
	if acc.AvgRelErr != 2 {
		t.Errorf("ARE = %v, want 2", acc.AvgRelErr)
	}
	if acc.Effective != 2 { // 2 ≤ G0=5
		t.Errorf("effective = %d, want 2", acc.Effective)
	}
	if acc.MaxRelErr != 2 {
		t.Errorf("max = %v, want 2", acc.MaxRelErr)
	}
	strict := EvaluateEdgeQueries(est, c, queries, 1)
	if strict.Effective != 0 {
		t.Errorf("effective with G0=1 = %d, want 0", strict.Effective)
	}
}

func TestEvaluateSubgraphQueries(t *testing.T) {
	c := stream.NewExactCounter()
	for i := uint64(0); i < 50; i++ {
		c.Observe(stream.Edge{Src: i % 5, Dst: i + 10, Weight: 2})
	}
	est := exactEstimator{c}
	queries := BFSSubgraphQueries(c, SubgraphConfig{Count: 20, EdgesPer: 5, Agg: Sum, Seed: 3})
	if len(queries) != 20 {
		t.Fatalf("generated %d subgraph queries, want 20", len(queries))
	}
	acc := EvaluateSubgraphQueries(est, c, queries, DefaultG0)
	if acc.AvgRelErr != 0 || acc.Effective != acc.Total {
		t.Errorf("exact estimator subgraph accuracy: %+v", acc)
	}
}

func TestEvaluateFiltered(t *testing.T) {
	c := stream.NewExactCounter()
	c.Observe(stream.Edge{Src: 1, Dst: 2, Weight: 10})
	c.Observe(stream.Edge{Src: 3, Dst: 4, Weight: 10})
	est := exactEstimator{c}
	queries := []EdgeQuery{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	acc := EvaluateEdgeQueriesFiltered(est, c, queries, DefaultG0, func(q EdgeQuery) bool {
		return q.Src == 1
	})
	if acc.Total != 1 {
		t.Errorf("filtered total = %d, want 1", acc.Total)
	}
}
