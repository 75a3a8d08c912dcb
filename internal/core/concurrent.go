package core

import (
	"fmt"
	"io"
	"sync"

	"github.com/graphstream/gsketch/internal/stream"
)

// Concurrent wraps an Estimator for shared use by multiple writers and
// readers.
//
// When the wrapped estimator is a *GSketch, synchronization is sharded:
// the vertex→partition router is immutable after construction, so each
// partition (plus the outlier sketch) is an independent update domain. The
// domains are guarded by up to maxLockStripes RWMutexes, with partition p
// mapped to stripe p mod stripes — a partitioning can produce thousands of
// tiny leaves, and striping keeps the per-batch lock traffic bounded (one
// acquisition per touched stripe) while writers on different stripes still
// proceed in parallel. A batch is routed and grouped lock-free; each
// stripe's lock is held only while its partitions absorb their groups. The
// stream-volume total is atomic inside GSketch.
//
// Any other estimator falls back to a single RWMutex around the whole
// structure, the seed behaviour.
type Concurrent struct {
	est Estimator

	// Sharded fast path (nil g means generic path).
	g       *GSketch
	stripes []sync.RWMutex
	pool    sync.Pool // *scatter, one per in-flight write batch
	qpool   sync.Pool // *gather, one per in-flight query batch

	// Generic fallback path.
	mu sync.RWMutex
}

// maxLockStripes bounds the lock array of the sharded path. Far above any
// realistic worker count, far below pathological partition counts.
const maxLockStripes = 64

// NewConcurrent wraps est. The wrapper owns synchronization; callers must
// not use est directly afterwards.
func NewConcurrent(est Estimator) *Concurrent {
	c := &Concurrent{est: est}
	if g, ok := est.(*GSketch); ok {
		c.g = g
		n := g.NumShards()
		if n > maxLockStripes {
			n = maxLockStripes
		}
		c.stripes = make([]sync.RWMutex, n)
		c.pool.New = func() any { return newScatter(g.NumShards()) }
		c.qpool.New = func() any { return newGather(g.NumShards()) }
	}
	return c
}

// stripeOf maps a shard to its lock stripe.
func (c *Concurrent) stripeOf(shard int) int { return shard % len(c.stripes) }

// Update folds one edge arrival, locking only the destination shard on the
// sharded path.
func (c *Concurrent) Update(e stream.Edge) {
	if c.g == nil {
		c.mu.Lock()
		c.est.Update(e)
		c.mu.Unlock()
		return
	}
	w := e.Weight
	if w == 0 {
		w = 1
	}
	shard := c.g.Route(e.Src)
	addShardHits(c.g.writeHits, shard, 1)
	key := stream.EdgeKey(e.Src, e.Dst)
	st := c.stripeOf(shard)
	c.stripes[st].Lock()
	c.g.shardSynopsis(shard).Update(key, w)
	c.stripes[st].Unlock()
	c.g.addTotal(w)
}

// UpdateBatch folds a batch of edge arrivals. On the sharded path the batch
// is routed and grouped by destination shard without any lock (the router
// is immutable), then each shard's group is applied under that shard's
// lock — so concurrent batches serialize only where they actually collide.
func (c *Concurrent) UpdateBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	if c.g == nil {
		c.mu.Lock()
		c.est.UpdateBatch(edges)
		c.mu.Unlock()
		return
	}
	sc := c.pool.Get().(*scatter)
	total := sc.route(c.g, edges, len(c.stripes))
	// The touched shards come stripe-major, so each stripe lock is taken
	// at most once per batch and covers every touched partition it guards.
	held := -1
	for _, s := range sc.touched {
		if st := c.stripeOf(int(s)); st != held {
			if held >= 0 {
				c.stripes[held].Unlock()
			}
			held = st
			c.stripes[held].Lock()
		}
		sc.applyShard(c.g, s)
	}
	if held >= 0 {
		c.stripes[held].Unlock()
	}
	c.pool.Put(sc)
	c.g.addTotal(total)
}

// EstimateEdge answers an edge query, read-locking only the shard the
// source vertex routes to.
func (c *Concurrent) EstimateEdge(src, dst uint64) int64 {
	if c.g == nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.est.EstimateEdge(src, dst)
	}
	shard := c.g.Route(src)
	addShardHits(c.g.readHits, shard, 1)
	key := stream.EdgeKey(src, dst)
	st := c.stripeOf(shard)
	c.stripes[st].RLock()
	v := c.g.shardSynopsis(shard).Estimate(key)
	c.stripes[st].RUnlock()
	return v
}

// Count returns the stream volume folded in so far.
func (c *Concurrent) Count() int64 {
	if c.g == nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.est.Count()
	}
	return c.g.Count()
}

// MemoryBytes reports the wrapped estimator's footprint.
func (c *Concurrent) MemoryBytes() int {
	if c.g == nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.est.MemoryBytes()
	}
	// Shard synopses may size dynamically (e.g. the map-backed Exact), so read
	// each one under its stripe lock.
	total := 0
	for shard := 0; shard < c.g.NumShards(); shard++ {
		st := c.stripeOf(shard)
		c.stripes[st].RLock()
		total += c.g.shardSynopsis(shard).MemoryBytes()
		c.stripes[st].RUnlock()
	}
	return total
}

// NumShards reports the number of independent writer domains (1 on the
// generic single-lock path).
func (c *Concurrent) NumShards() int {
	if c.g == nil {
		return 1
	}
	return c.g.NumShards()
}

// WriteTo serializes the wrapped estimator while holding a consistent read
// lock: on the sharded path every stripe's read lock is acquired for the
// whole serialization, so no partition counter can move mid-snapshot and a
// restored sketch answers byte-identically to the live one at snapshot
// time. Readers proceed concurrently; writers block for the duration.
//
// The stream total is folded in by writers after their counters land
// (outside the stripe locks), so a snapshot racing active writers can carry
// a total that lags the counters by the in-flight batches. Quiesce writers
// first (e.g. Ingestor.Flush) when the exact counters↔total correspondence
// matters; either way the snapshot itself is internally valid.
//
// Only gSketch-backed wrappers serialize, matching GSketch.WriteTo.
func (c *Concurrent) WriteTo(w io.Writer) (int64, error) {
	if c.g == nil {
		wt, ok := c.est.(io.WriterTo)
		if !ok {
			return 0, fmt.Errorf("core: wrapped %T does not serialize", c.est)
		}
		c.mu.RLock()
		defer c.mu.RUnlock()
		return wt.WriteTo(w)
	}
	for i := range c.stripes {
		c.stripes[i].RLock()
	}
	defer func() {
		for i := range c.stripes {
			c.stripes[i].RUnlock()
		}
	}()
	return c.g.WriteTo(w)
}

// Unwrap returns the wrapped estimator. Callers must hold no concurrent
// operations while using it directly.
func (c *Concurrent) Unwrap() Estimator { return c.est }

var _ Estimator = (*Concurrent)(nil)
