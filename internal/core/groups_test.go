package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// The batch paths group each batch by shard with per-shard state that is
// reset only over the shards the previous batch touched. These tests drive
// batch sequences built to expose stale state — disjoint shard sets in
// consecutive batches, outlier-only and empty batches, batches outgrowing
// the previous buffers — against the per-edge paths.

// buildGroupsTestSketch builds a sketch with well over maxLockStripes
// shards, so several partitions share each lock stripe.
func buildGroupsTestSketch(t testing.TB, conservative bool) *GSketch {
	t.Helper()
	sample := batchTestStream(4000, 100)
	g, err := BuildGSketch(Config{TotalWidth: 4096, MinWidth: 16, Seed: 5, Conservative: conservative}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() <= 2*maxLockStripes {
		t.Fatalf("test sketch has %d shards, want > %d", g.NumShards(), 2*maxLockStripes)
	}
	return g
}

// outlierEdges draws edges whose sources are absent from the sample.
func outlierEdges(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{Src: 1_000_000 + rng.Uint64()%5000, Dst: rng.Uint64() % 8000, Weight: int64(rng.Uint64() % 3)}
	}
	return edges
}

// byShardParity splits edges by whether their source routes to an even or
// an odd shard, so alternating the halves makes consecutive batches touch
// disjoint shard sets.
func byShardParity(g *GSketch, edges []stream.Edge) (even, odd []stream.Edge) {
	for _, e := range edges {
		if g.Route(e.Src)%2 == 0 {
			even = append(even, e)
		} else {
			odd = append(odd, e)
		}
	}
	return even, odd
}

// groupsCases returns the batch sequences under test, built against the
// routing of g (every test sketch shares it).
func groupsCases(g *GSketch) map[string][][]stream.Edge {
	even, odd := byShardParity(g, batchTestStream(8000, 61))
	var disjoint [][]stream.Edge
	for i := 0; i < 8; i++ {
		disjoint = append(disjoint, even[i*400:(i+1)*400], odd[i*400:(i+1)*400])
	}
	zero := batchTestStream(3000, 63)
	for i := range zero {
		zero[i].Weight = 0
	}
	mixed := batchTestStream(6000, 65)
	return map[string][][]stream.Edge{
		"disjoint-shard-sets": disjoint,
		"outlier-only": {
			mixed[:500], outlierEdges(700, 67), mixed[500:900], outlierEdges(1, 69),
		},
		"zero-weight": {zero[:1000], zero[1000:1001], zero[1001:]},
		"empty":       {mixed[:300], nil, {}, mixed[300:600], nil},
		"growing":     {mixed[:3], mixed[3:20], mixed[20:5020], mixed[5020:5030], mixed[5030:]},
	}
}

// manyThenFew returns a query chunk spread over many shards and one
// confined to a handful, in that order.
func manyThenFew(g *GSketch) (many, few []EdgeQuery) {
	for _, e := range batchTestStream(2000, 71) {
		q := EdgeQuery{Src: e.Src, Dst: e.Dst}
		many = append(many, q)
		if g.Route(e.Src) < 3 {
			few = append(few, q)
		}
	}
	for _, e := range outlierEdges(5, 73) {
		few = append(few, EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	return many, few
}

func sameRouteCounts(a, b RouteCounts) bool {
	if a.Outlier != b.Outlier || a.Total != b.Total || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for i := range a.Partitions {
		if a.Partitions[i] != b.Partitions[i] {
			return false
		}
	}
	return true
}

// checkAgainstSequential compares a batch-fed sketch with one fed the same
// edges through per-edge Update: serialized counters, write route hits,
// then read route hits and answers of a many-shard chunk followed by a
// few-shard chunk through EstimateBatch against EstimateEdge.
func checkAgainstSequential(t *testing.T, seq, bat *GSketch, estimateBatch func([]EdgeQuery) []Result) {
	t.Helper()
	if seq.Count() != bat.Count() {
		t.Fatalf("Count %d (sequential) vs %d (batch)", seq.Count(), bat.Count())
	}
	if !bytes.Equal(serializeGSketch(t, seq), serializeGSketch(t, bat)) {
		t.Fatal("batch counters are not byte-identical to sequential Update")
	}
	if s, b := seq.WriteRouteCounts(), bat.WriteRouteCounts(); !sameRouteCounts(s, b) {
		t.Fatalf("write route hits: %+v (per edge) vs %+v (batch)", s, b)
	}
	many, few := manyThenFew(seq)
	for _, chunk := range [][]EdgeQuery{many, few} {
		got := estimateBatch(chunk)
		for i, q := range chunk {
			if want := seq.EstimateEdge(q.Src, q.Dst); got[i].Estimate != want {
				t.Fatalf("query %d (%d→%d): EstimateBatch %d, EstimateEdge %d", i, q.Src, q.Dst, got[i].Estimate, want)
			}
		}
	}
	if s, b := seq.ReadRouteCounts(), bat.ReadRouteCounts(); !sameRouteCounts(s, b) {
		t.Fatalf("read route hits: %+v (per query) vs %+v (batch)", s, b)
	}
}

// feedSequential builds a test sketch and feeds it every batch's edges
// through per-edge Update.
func feedSequential(t *testing.T, conservative bool, batches [][]stream.Edge) *GSketch {
	t.Helper()
	seq := buildGroupsTestSketch(t, conservative)
	for _, b := range batches {
		for _, e := range b {
			seq.Update(e)
		}
	}
	return seq
}

func TestBatchGroupingMatchesSequential(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		for name, batches := range groupsCases(buildGroupsTestSketch(t, false)) {
			t.Run(fmt.Sprintf("%s/conservative=%v", name, conservative), func(t *testing.T) {
				t.Run("GSketch", func(t *testing.T) {
					g := buildGroupsTestSketch(t, conservative)
					for _, b := range batches {
						g.UpdateBatch(b)
					}
					checkAgainstSequential(t, feedSequential(t, conservative, batches), g, g.EstimateBatch)
				})
				t.Run("Concurrent", func(t *testing.T) {
					g := buildGroupsTestSketch(t, conservative)
					c := NewConcurrent(g)
					for _, b := range batches {
						c.UpdateBatch(b)
					}
					checkAgainstSequential(t, feedSequential(t, conservative, batches), g, c.EstimateBatch)
				})
			})
		}
	}
}

// TestConcurrentBatchGroupingSeveralWriters feeds every case's batches
// through Concurrent.UpdateBatch from several goroutines at once. Plain
// CountMin counters do not depend on cross-batch order, so the result must
// still be byte-identical to sequential Update; run it under -race.
func TestConcurrentBatchGroupingSeveralWriters(t *testing.T) {
	const writers = 4
	for name, batches := range groupsCases(buildGroupsTestSketch(t, false)) {
		t.Run(name, func(t *testing.T) {
			g := buildGroupsTestSketch(t, false)
			c := NewConcurrent(g)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each writer replays the whole sequence on its own
					// share of every batch, so the writers' batches hit
					// overlapping stripes.
					for _, b := range batches {
						lo, hi := len(b)*w/writers, len(b)*(w+1)/writers
						c.UpdateBatch(b[lo:hi])
					}
				}(w)
			}
			wg.Wait()
			checkAgainstSequential(t, feedSequential(t, false, batches), g, c.EstimateBatch)
		})
	}
}

// TestUpdateBatchSteadyStateAllocs gates the sharded write paths at zero
// allocations per steady-state batch. The race detector makes sync.Pool
// drop items at random, so Concurrent is only gated in non-race builds.
func TestUpdateBatchSteadyStateAllocs(t *testing.T) {
	edges := batchTestStream(4096, 75)
	batch := func(i int) []stream.Edge { lo := (i % 4) * 1024; return edges[lo : lo+1024] }

	g := buildGroupsTestSketch(t, false)
	g.UpdateBatch(batch(0))
	i := 0
	if n := testing.AllocsPerRun(20, func() { i++; g.UpdateBatch(batch(i)) }); n != 0 {
		t.Errorf("GSketch.UpdateBatch allocates %.1f times per batch, want 0", n)
	}

	c := NewConcurrent(buildGroupsTestSketch(t, false))
	c.UpdateBatch(batch(0))
	n := testing.AllocsPerRun(20, func() { i++; c.UpdateBatch(batch(i)) })
	if raceEnabled {
		t.Logf("race build: Concurrent.UpdateBatch %.1f allocs per batch (not gated)", n)
		return
	}
	if n != 0 {
		t.Errorf("Concurrent.UpdateBatch allocates %.1f times per batch, want 0", n)
	}
}

// TestGroupsLayoutStripeMajor checks the layout contract the stripe walks
// rely on: touched shards come grouped by lock stripe, each group starts
// where the previous one ended, and the groups cover the batch.
func TestGroupsLayoutStripeMajor(t *testing.T) {
	g := buildGroupsTestSketch(t, false)
	edges := batchTestStream(3000, 77)
	sc := newScatter(g.NumShards())
	for _, stripes := range []int{1, 7, maxLockStripes} {
		sc.route(g, edges, stripes)
		next := int32(0)
		for i, s := range sc.touched {
			if i > 0 && int(s)%stripes < int(sc.touched[i-1])%stripes {
				t.Fatalf("stripes=%d: touched shard %d (stripe %d) after stripe %d", stripes, s, int(s)%stripes, int(sc.touched[i-1])%stripes)
			}
			lo, hi := sc.group(s)
			if lo != next || hi <= lo {
				t.Fatalf("stripes=%d: shard %d group [%d,%d), want start %d", stripes, s, lo, hi, next)
			}
			next = hi
		}
		if int(next) != len(edges) {
			t.Fatalf("stripes=%d: groups cover %d of %d positions", stripes, next, len(edges))
		}
	}
}
