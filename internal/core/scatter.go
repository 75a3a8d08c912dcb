package core

import (
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// groups is one batch routed to shards and regrouped shard-major by a
// stable counting sort — the layout both batch paths build on: the write
// path's scatter applies each group with one synopsis UpdateBatch, the
// read path's gather probes it with one EstimateBatch. Every per-shard
// step (count reset, offset layout, route-hit accounting, the lock-stripe
// walk) runs over the shards the batch touched, so a batch costs
// O(batch + lock stripes) however many partitions the sketch has. The
// buffers are reused across batches, so steady-state batches do not
// allocate.
type groups struct {
	shardOf []int32               // destination shard per batch position
	keys    []uint64              // edge key per batch position (input order)
	pos     []int32               // grouped slot per batch position
	grouped []uint64              // edge keys regrouped shard-major
	start   []int32               // per-shard group offset; valid for touched shards
	count   []int32               // per-shard group length; zero for untouched shards
	touched []int32               // shards with count > 0, stripe-major after layout
	spare   []int32               // scratch for ordering touched by stripe
	stripe  [maxLockStripes]int32 // per-stripe offsets (layout scratch)
}

func newGroups(shards int) groups {
	return groups{
		start:   make([]int32, shards),
		count:   make([]int32, shards),
		touched: make([]int32, 0, shards),
		spare:   make([]int32, shards),
	}
}

// reset clears the previous batch's groups, touching only the shards it
// hit, and sizes the per-position buffers for an n-position batch.
func (gr *groups) reset(n int) {
	for _, s := range gr.touched {
		gr.count[s] = 0
	}
	gr.touched = gr.touched[:0]
	if cap(gr.shardOf) < n {
		gr.shardOf = make([]int32, n)
		gr.keys = make([]uint64, n)
		gr.pos = make([]int32, n)
		gr.grouped = make([]uint64, n)
	}
	gr.shardOf = gr.shardOf[:n]
	gr.keys = gr.keys[:n]
	gr.pos = gr.pos[:n]
	gr.grouped = gr.grouped[:n]
}

// add routes batch position i. Only the immutable router is read, so
// routing is safe concurrently with shard-local counter writes.
func (gr *groups) add(g *GSketch, i int, src, dst uint64) {
	// One Mix64 of the source serves both the routing probe and the
	// edge-key derivation.
	mixed := hashutil.Mix64(src)
	shard := g.routeMixed(mixed, src)
	gr.shardOf[i] = int32(shard)
	gr.keys[i] = hashutil.EdgeKeyMixed(mixed, dst)
	if gr.count[shard] == 0 {
		gr.touched = append(gr.touched, int32(shard))
	}
	gr.count[shard]++
}

// layout orders the touched shards stripe-major (shard mod stripes, first
// hit first within a stripe; stripes ≤ maxLockStripes) so a stripe walk
// takes each lock once, lays the groups out in that order, and places
// every key at its slot. The placement walks positions backwards, filling
// each group from its end, so a group keeps stream order — which
// conservative update depends on.
func (gr *groups) layout(stripes int) {
	if stripes > 1 && len(gr.touched) > 1 {
		per := gr.stripe[:stripes]
		clear(per)
		for _, s := range gr.touched {
			per[int(s)%stripes]++
		}
		off := int32(0)
		for i, c := range per {
			per[i] = off
			off += c
		}
		for _, s := range gr.touched {
			st := int(s) % stripes
			gr.spare[per[st]] = s
			per[st]++
		}
		gr.touched, gr.spare = gr.spare[:len(gr.touched)], gr.touched[:cap(gr.touched)]
	}
	end := int32(0)
	for _, s := range gr.touched {
		end += gr.count[s]
		gr.start[s] = end
	}
	for i := len(gr.shardOf) - 1; i >= 0; i-- {
		s := gr.shardOf[i]
		p := gr.start[s] - 1
		gr.start[s] = p
		gr.pos[i] = p
		gr.grouped[p] = gr.keys[i]
	}
}

// group returns shard s's slot range in the grouped layout.
func (gr *groups) group(s int32) (lo, hi int32) {
	return gr.start[s], gr.start[s] + gr.count[s]
}

// recordHits folds the batch's per-shard group sizes into a direction's
// route counters, one atomic add per touched shard.
func (gr *groups) recordHits(hits []atomic.Int64) {
	for _, s := range gr.touched {
		addShardHits(hits, int(s), int64(gr.count[s]))
	}
}

// scatter is the write path's routed batch: the shared grouping plus the
// edge weights in the same shard-major layout.
type scatter struct {
	groups
	weights []int64
}

func newScatter(shards int) *scatter {
	return &scatter{groups: newGroups(shards)}
}

// route groups a batch by destination shard, stripe-major for the given
// lock-stripe count (1 when the caller takes no locks), and returns the
// batch's total stream volume. Only the immutable router is read, so
// route is safe concurrently with shard-local counter writes.
func (sc *scatter) route(g *GSketch, edges []stream.Edge, stripes int) int64 {
	sc.reset(len(edges))
	for i, e := range edges {
		sc.add(g, i, e.Src, e.Dst)
	}
	sc.layout(stripes)
	if cap(sc.weights) < len(edges) {
		sc.weights = make([]int64, len(edges))
	}
	sc.weights = sc.weights[:len(edges)]
	var total int64
	for i, e := range edges {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		total += w
		sc.weights[sc.pos[i]] = w
	}
	// The route stats are the drift signal of adaptive repartitioning.
	sc.recordHits(g.writeHits)
	return total
}

// applyShard folds one touched shard's group into its synopsis. The
// caller owns synchronization and the total-volume accounting.
func (sc *scatter) applyShard(g *GSketch, s int32) {
	lo, hi := sc.group(s)
	g.shardSynopsis(int(s)).UpdateBatch(sc.grouped[lo:hi], sc.weights[lo:hi])
}
