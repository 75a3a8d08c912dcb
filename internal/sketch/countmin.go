package sketch

import (
	"fmt"
	"math/bits"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// CountMin is the CountMin sketch of Cormode & Muthukrishnan: a depth×width
// grid of counters with one pairwise-independent hash per row. Estimates are
// the minimum over the key's d cells, never below the true count (for
// non-negative updates) and, with probability at least 1-e^{-d}, at most
// the true count + e*N/width.
//
// The zero value is unusable; construct with NewCountMin or
// NewCountMinFromMemory. CountMin is not safe for concurrent mutation.
type CountMin struct {
	width        int
	depth        int
	seed         uint64
	conservative bool

	hashes []hashutil.PairwiseHash
	rows   []rowHash // flattened hash coefficients for the batch loops (immutable)
	cells  []uint32  // row-major: cells[row*width + col]
	total  int64
}

// NewCountMin builds a CountMin sketch with explicit dimensions. The seed
// fixes the hash family; two sketches built with equal (width, depth, seed)
// are mergeable.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("%w: width=%d depth=%d", ErrInvalidParams, width, depth)
	}
	cm := &CountMin{
		width:  width,
		depth:  depth,
		seed:   seed,
		hashes: hashutil.NewPairwiseFamily(depth, width, seed),
		cells:  make([]uint32, width*depth),
	}
	// Flattened hash coefficients for the batch loops, built eagerly:
	// EstimateBatch runs under read locks from multiple goroutines, so it
	// must not initialize shared state lazily.
	cm.rows = make([]rowHash, depth)
	for r, h := range cm.hashes {
		cm.rows[r].a, cm.rows[r].b = h.Params()
	}
	return cm, nil
}

// NewCountMinWithError builds a sketch from accuracy targets via
// DimsFromError.
func NewCountMinWithError(epsilon, delta float64, seed uint64) (*CountMin, error) {
	w, d, err := DimsFromError(epsilon, delta)
	if err != nil {
		return nil, err
	}
	return NewCountMin(w, d, seed)
}

// NewCountMinFromMemory builds the widest sketch of the given depth that
// fits in a byte budget.
func NewCountMinFromMemory(bytes, depth int, seed uint64) (*CountMin, error) {
	w, err := WidthFromMemory(bytes, depth)
	if err != nil {
		return nil, err
	}
	return NewCountMin(w, depth, seed)
}

// SetConservative toggles conservative update: each increment raises only
// the cells that would otherwise fall below the new lower bound, tightening
// overestimation at no accuracy cost. Must be set before the first Update
// to keep estimates coherent.
func (cm *CountMin) SetConservative(on bool) { cm.conservative = on }

// Conservative reports whether conservative update is enabled. Conservative
// sketches are not counter-mergeable (per-key lower bounds are not
// additive), so merge planners check this before committing to a cell-wise
// fold.
func (cm *CountMin) Conservative() bool { return cm.conservative }

// Width returns the number of counters per row.
func (cm *CountMin) Width() int { return cm.width }

// Depth returns the number of rows (independent hash functions).
func (cm *CountMin) Depth() int { return cm.depth }

// Seed returns the hash-family seed.
func (cm *CountMin) Seed() uint64 { return cm.seed }

// Update adds count occurrences of key. Negative counts are rejected by
// panic: the CountMin estimate guarantee only holds in the cash-register
// (non-negative) model, which is the model of the paper.
func (cm *CountMin) Update(key uint64, count int64) {
	if count < 0 {
		panic("sketch: negative update in cash-register model")
	}
	if count == 0 {
		return
	}
	cm.total += count
	if cm.conservative {
		cm.updateConservative(hashutil.Mod61(key), count)
		return
	}
	for r := 0; r < cm.depth; r++ {
		i := r*cm.width + cm.hashes[r].Hash(key)
		cm.cells[i] = addSat32(cm.cells[i], count)
	}
}

// UpdateBatch applies the batch in slice order, producing counters
// byte-identical to the equivalent sequence of Update calls. It runs
// key-major like EstimateBatch: each key is reduced modulo the hash prime
// once and shared across the d row hashes, and the row hash is inlined
// from the flattened (a, b) coefficients instead of d PairwiseHash.Hash
// calls per key. Saturating addition of non-negative counts commutes, and
// conservative update visits keys in slice order, so both modes land on
// the counters of sequential Update.
func (cm *CountMin) UpdateBatch(keys []uint64, counts []int64) {
	if len(keys) != len(counts) {
		panic("sketch: UpdateBatch slice length mismatch")
	}
	var total int64
	for _, count := range counts {
		if count < 0 {
			panic("sketch: negative update in cash-register model")
		}
		total += count
	}
	cm.total += total
	if cm.conservative {
		for i, key := range keys {
			if counts[i] != 0 {
				cm.updateConservative(hashutil.Mod61(key), counts[i])
			}
		}
		return
	}
	rows := cm.rows
	width, cells := cm.width, cm.cells
	w64 := uint64(width)
	for i, key := range keys {
		count := counts[i]
		if count == 0 {
			continue
		}
		xr := hashutil.Mod61(key)
		base := 0
		for _, p := range rows {
			j := base + p.col(xr, w64)
			cells[j] = addSat32(cells[j], count)
			base += width
		}
	}
}

// updateConservative raises the key's cells to its new lower bound
// min(cells) + count, leaving cells already above it alone. xr is the key
// reduced modulo the hash prime. The d cell indices are recomputed in the
// second pass rather than kept in a per-key slice, so the conservative
// path does not allocate.
func (cm *CountMin) updateConservative(xr uint64, count int64) {
	width, cells := cm.width, cm.cells
	w64 := uint64(width)
	min := int64(maxCell)
	base := 0
	for _, p := range cm.rows {
		if v := int64(cells[base+p.col(xr, w64)]); v < min {
			min = v
		}
		base += width
	}
	target := min + count
	if target > maxCell {
		target = maxCell
	}
	base = 0
	for _, p := range cm.rows {
		j := base + p.col(xr, w64)
		if int64(cells[j]) < target {
			cells[j] = uint32(target)
		}
		base += width
	}
}

// Estimate returns min over rows of the key's cell, the classic CountMin
// point estimate.
func (cm *CountMin) Estimate(key uint64) int64 {
	min := uint32(maxCell)
	for r := 0; r < cm.depth; r++ {
		v := cm.cells[r*cm.width+cm.hashes[r].Hash(key)]
		if v < min {
			min = v
		}
	}
	return int64(min)
}

// EstimateBatch answers a batch of point queries key-major with the field
// loads hoisted out of the loop and the running minimum kept in a register
// — the read path gains nothing from row-major order (there is no
// row-segment write locality to exploit) and loses the register-resident
// min to per-row out[i] traffic. Each key is reduced modulo the hash prime
// once and shared across the d row hashes, and the row hash is inlined
// from the flattened coefficients (see rowHash). The values equal per-key
// Estimate exactly (min over the same d cells).
func (cm *CountMin) EstimateBatch(keys []uint64, out []int64) {
	if len(keys) != len(out) {
		panic("sketch: EstimateBatch slice length mismatch")
	}
	rows := cm.rows
	width, cells := cm.width, cm.cells
	w64 := uint64(width)
	for i, key := range keys {
		xr := hashutil.Mod61(key)
		min := uint32(maxCell)
		base := 0
		for _, p := range rows {
			if c := cells[base+p.col(xr, w64)]; c < min {
				min = c
			}
			base += width
		}
		out[i] = int64(min)
	}
}

// rowHash is one row's hash coefficients, flattened out of PairwiseHash
// for the batch loops. Built once in NewCountMin and immutable afterwards,
// so concurrent readers share it freely.
type rowHash struct {
	a, b uint64
}

// col maps a key already reduced modulo 2^61-1 onto the row's columns
// [0, width), landing on the same column as PairwiseHash.Hash. a·xr =
// hi·2^64 + lo folds to (a·xr >> 61) + (a·xr & p) because 2^61 ≡ 1; with
// a, xr < 2^61 both terms and b are below 2^61, so one final Mod61 gives
// the canonical residue of a·xr + b. The single reduction keeps col under
// the inlining budget (PairwiseHash.Hash is past it, and a call per row
// per key was the largest cost of both batch loops); the Lemire
// multiply-shift onto the width is Hash's own.
func (p rowHash) col(xr, w64 uint64) int {
	hi, lo := bits.Mul64(p.a, xr)
	v := hashutil.Mod61((hi<<3 | lo>>61) + lo&hashutil.MersennePrime61 + p.b)
	vhi, vlo := bits.Mul64(v, w64)
	return int(vhi<<3 | vlo>>61)
}

// Count returns the total stream volume added to this sketch.
func (cm *CountMin) Count() int64 { return cm.total }

// MemoryBytes reports the counter storage footprint.
func (cm *CountMin) MemoryBytes() int { return len(cm.cells) * CellSize }

// Reset zeroes all counters.
func (cm *CountMin) Reset() {
	for i := range cm.cells {
		cm.cells[i] = 0
	}
	cm.total = 0
}

// Merge adds other's counters into cm. Both sketches must have identical
// dimensions and seed (hence identical hash families); conservative-update
// sketches cannot be merged because per-key lower bounds are not additive.
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth || cm.seed != other.seed {
		return fmt.Errorf("%w: merge of incompatible sketches (%dx%d seed %d vs %dx%d seed %d)",
			ErrInvalidParams, cm.depth, cm.width, cm.seed, other.depth, other.width, other.seed)
	}
	if cm.conservative || other.conservative {
		return fmt.Errorf("%w: conservative-update sketches are not mergeable", ErrInvalidParams)
	}
	for i, v := range other.cells {
		cm.cells[i] = addSat32(cm.cells[i], int64(v))
	}
	cm.total += other.total
	return nil
}

// Clone returns a deep copy of the sketch.
func (cm *CountMin) Clone() *CountMin {
	cp := *cm
	cp.cells = make([]uint32, len(cm.cells))
	copy(cp.cells, cm.cells)
	cp.hashes = make([]hashutil.PairwiseHash, len(cm.hashes))
	copy(cp.hashes, cm.hashes)
	return &cp
}

var _ Synopsis = (*CountMin)(nil)
