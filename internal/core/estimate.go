package core

import (
	"math"

	"github.com/graphstream/gsketch/internal/stream"
)

// EdgeQuery identifies one directed edge whose accumulated frequency is
// requested. It is the unit of the batched read path: a slice of them is
// answered in one routed pass by Estimator.EstimateBatch.
type EdgeQuery struct {
	Src, Dst uint64
}

// NoPartition is the Result.Partition value of answers that did not come
// from a localized partition: outlier-sketch answers and estimators without
// a partitioning (GlobalSketch).
const NoPartition = -1

// Result is one batched query answer: the point estimate plus the
// provenance and accuracy guarantee of the sketch that produced it. It
// surfaces per answer what Theorem 1 / §3.2 of the paper prove per
// localized sketch — an additive (ε, δ) guarantee whose ε·N_i term shrinks
// with the answering partition's local stream volume, not the global one.
type Result struct {
	// Estimate is the point estimate f̃ of the queried edge's frequency.
	Estimate int64
	// Partition is the index of the localized sketch that answered, or
	// NoPartition when the outlier sketch (or an unpartitioned estimator)
	// answered.
	Partition int
	// Outlier reports that the outlier sketch answered (the source vertex
	// was absent from the partitioning sample).
	Outlier bool
	// ErrorBound is the additive CountMin bound e·N_i/w_i of the answering
	// sketch: with probability Confidence, the true frequency lies in
	// [Estimate - ErrorBound, Estimate] (CountMin never underestimates).
	ErrorBound float64
	// Confidence is 1-δ = 1-e^{-d} for the shared sketch depth d.
	Confidence float64
	// StreamTotal is a snapshot of the total stream volume N folded into
	// the estimator when the batch was answered.
	StreamTotal int64
}

// confidence returns the per-query guarantee probability 1-e^{-d} of a
// depth-d sketch.
func confidence(depth int) float64 { return 1 - math.Exp(-float64(depth)) }

// shardMeta is the per-shard slice of Result that is constant across one
// gathered group: provenance and the ε·N_i bound.
type shardMeta struct {
	partition int
	outlier   bool
	bound     float64
}

// gather is the read path's routed query chunk: the shared grouping plus
// the estimates, which land in vals at the grouped keys' offsets, and the
// per-shard Result metadata in meta. All buffers are reused across chunks
// so steady-state batch querying allocates only the caller-visible
// []Result. Results are assembled by a sequential sweep over the chunk's
// positions, each reading its estimate through its grouped slot —
// streaming 48-byte stores beat read-for-ownership misses on a strided
// scatter.
type gather struct {
	groups
	vals []int64 // estimates aligned with grouped
	meta []shardMeta
}

func newGather(shards int) *gather {
	return &gather{groups: newGroups(shards), meta: make([]shardMeta, shards)}
}

// route groups a query chunk by answering shard, stripe-major for the
// given lock-stripe count (1 when the caller takes no locks). Only the
// immutable router is read, so route is safe concurrently with
// shard-local counter writes.
func (gt *gather) route(g *GSketch, qs []EdgeQuery, stripes int) {
	gt.reset(len(qs))
	for i, q := range qs {
		gt.add(g, i, q.Src, q.Dst)
	}
	gt.layout(stripes)
	if cap(gt.vals) < len(qs) {
		gt.vals = make([]int64, len(qs))
	}
	gt.vals = gt.vals[:len(qs)]
	gt.recordHits(g.readHits)
}

// gatherShard answers one touched shard's group in a single pass over its
// synopsis and records the group's shared Result metadata — answering
// partition and ε·N_i bound, read in the same critical section as the
// counters so the pair is one consistent snapshot. The caller owns
// synchronization; the assemble pass that fans results back out runs
// lock-free afterwards.
func (gt *gather) gatherShard(g *GSketch, s int32) {
	lo, hi := gt.group(s)
	shard := int(s)
	syn := g.shardSynopsis(shard)
	syn.EstimateBatch(gt.grouped[lo:hi], gt.vals[lo:hi])

	part, outlier, width := shard, false, 0
	if g.outlier != nil && shard == len(g.parts) {
		part, outlier, width = NoPartition, true, g.outlierWidth
	} else {
		width = g.leaves[shard].Width
	}
	gt.meta[shard] = shardMeta{
		partition: part,
		outlier:   outlier,
		bound:     errorBound(syn.Count(), width),
	}
}

// assemble fans the gathered estimates back out to input order with one
// sequential sweep: position i's metadata comes from its shard, its
// estimate from its grouped slot. out must be the chunk's slice of the
// caller-visible results.
func (gt *gather) assemble(out []Result, conf float64, streamTotal int64) {
	vals, pos := gt.vals, gt.pos
	for i, sh := range gt.shardOf {
		m := &gt.meta[sh]
		out[i] = Result{
			Estimate:    vals[pos[i]],
			Partition:   m.partition,
			Outlier:     m.outlier,
			ErrorBound:  m.bound,
			Confidence:  conf,
			StreamTotal: streamTotal,
		}
	}
}

// estimateChunk bounds the slice of a query batch that is routed and
// gathered at once, so the gather scratch (keys, positions, values) stays
// cache-resident alongside the counters being probed instead of growing
// with the caller's batch and evicting them — the read-side analogue of
// populateChunk.
const estimateChunk = 2048

// EstimateBatch answers a batch of edge queries via route-then-gather: the
// batch is grouped by answering partition (one pass over the flat router),
// then each touched partition's counters are probed once for its whole
// group. Results are returned in input order and carry the answering
// partition, its ε·N_i error bound at confidence 1-e^{-d}, and a snapshot
// of the stream total. Estimates are identical to per-edge EstimateEdge.
func (g *GSketch) EstimateBatch(qs []EdgeQuery) []Result {
	out := make([]Result, len(qs))
	if len(qs) == 0 {
		return out
	}
	gt := g.qscratch
	if gt == nil {
		gt = newGather(g.NumShards())
		g.qscratch = gt
	}
	total := g.total.Load()
	conf := confidence(g.cfg.Depth)
	for lo := 0; lo < len(qs); lo += estimateChunk {
		hi := lo + estimateChunk
		if hi > len(qs) {
			hi = len(qs)
		}
		gt.route(g, qs[lo:hi], 1)
		for _, shard := range gt.touched {
			gt.gatherShard(g, shard)
		}
		gt.assemble(out[lo:hi], conf, total)
	}
	return out
}

// EstimateBatch answers a batch of edge queries against the single global
// sketch: edge keys are materialized once and the base synopsis is probed
// in one pass. Every Result carries the global e·N/w bound of Equation (1)
// and NoPartition provenance. Unlike the write path, the key and value
// buffers are per call, not reused fields: Concurrent's generic fallback
// serves EstimateBatch under a read lock, so the read path must not
// mutate shared state.
func (g *GlobalSketch) EstimateBatch(qs []EdgeQuery) []Result {
	out := make([]Result, len(qs))
	if len(qs) == 0 {
		return out
	}
	keys := make([]uint64, len(qs))
	vals := make([]int64, len(qs))
	for i, q := range qs {
		keys[i] = stream.EdgeKey(q.Src, q.Dst)
	}
	g.syn.EstimateBatch(keys, vals)

	bound := errorBound(g.total, g.width)
	conf := confidence(g.depth)
	for i := range out {
		out[i] = Result{
			Estimate:    vals[i],
			Partition:   NoPartition,
			ErrorBound:  bound,
			Confidence:  conf,
			StreamTotal: g.total,
		}
	}
	return out
}

// EstimateBatch answers a batch of edge queries under the wrapper's
// synchronization. On the sharded path the batch is routed and grouped
// lock-free, then the touched partitions are gathered stripe by stripe with
// one read-lock acquisition per stripe per batch — so a batch observes each
// partition's counters and local volume N_i in one consistent snapshot, and
// readers on disjoint stripes proceed in parallel with writers elsewhere.
func (c *Concurrent) EstimateBatch(qs []EdgeQuery) []Result {
	if c.g == nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.est.EstimateBatch(qs)
	}
	out := make([]Result, len(qs))
	if len(qs) == 0 {
		return out
	}
	gt := c.qpool.Get().(*gather)
	total := c.g.Count()
	conf := confidence(c.g.cfg.Depth)
	for lo := 0; lo < len(qs); lo += estimateChunk {
		hi := lo + estimateChunk
		if hi > len(qs) {
			hi = len(qs)
		}
		gt.route(c.g, qs[lo:hi], len(c.stripes))
		// Walk the stripe-major touched shards, mirroring UpdateBatch: each
		// stripe lock is read-acquired at most once per chunk and covers
		// every touched partition it guards, so lock traffic is bounded by
		// stripes × ⌈batch/estimateChunk⌉ instead of one acquisition per
		// query. Each group's counters and local volume N_i are read in one
		// critical section; the assemble fan-out below runs lock-free over
		// the gathered private buffers.
		held := -1
		for _, shard := range gt.touched {
			if st := c.stripeOf(int(shard)); st != held {
				if held >= 0 {
					c.stripes[held].RUnlock()
				}
				held = st
				c.stripes[held].RLock()
			}
			gt.gatherShard(c.g, shard)
		}
		if held >= 0 {
			c.stripes[held].RUnlock()
		}
		gt.assemble(out[lo:hi], conf, total)
	}
	c.qpool.Put(gt)
	return out
}
