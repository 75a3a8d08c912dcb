// Package sketch implements the frequency synopses that gsketch builds on:
// the CountMin sketch (Cormode & Muthukrishnan) with an optional
// conservative-update variant, the CountSketch (median estimator, the
// ablation benches' alternative base synopsis), and an exact map-backed
// counter that tests plug into the partitioned estimator as a ground-truth
// oracle.
//
// All synopses summarize a stream of (key, count) increments over 64-bit
// keys and answer point frequency estimates. They share the Synopsis
// interface so the partitioned estimator in internal/core can run over any
// of them.
package sketch

import (
	"errors"
	"fmt"
	"math"
)

// Synopsis is a frequency summary of a stream of non-negative increments.
type Synopsis interface {
	// Update adds count occurrences of key. count must be non-negative.
	Update(key uint64, count int64)
	// UpdateBatch applies counts[i] occurrences of keys[i] for every i, in
	// slice order, exactly as the equivalent sequence of Update calls would.
	// The two slices must have equal length. Implementations amortize
	// per-call dispatch and bounds checks across the batch.
	UpdateBatch(keys []uint64, counts []int64)
	// Estimate returns the estimated accumulated count of key.
	Estimate(key uint64) int64
	// EstimateBatch writes Estimate(keys[i]) into out[i] for every i. The
	// two slices must have equal length. Implementations amortize dispatch,
	// scratch allocation and (where the layout allows) row traversal across
	// the batch; results are identical to per-key Estimate calls.
	EstimateBatch(keys []uint64, out []int64)
	// Count returns the total of all increments applied (the stream volume
	// N routed to this synopsis).
	Count() int64
	// MemoryBytes reports the memory footprint of the counter storage.
	MemoryBytes() int
	// Reset clears the synopsis to its empty state.
	Reset()
}

// CellSize is the size in bytes of one sketch counter cell. All byte-budget
// arithmetic in this module uses this constant, mirroring the 32-bit
// counters of the paper-era C++ implementations.
const CellSize = 4

// maxCell is the saturation point of a 32-bit counter cell.
const maxCell = math.MaxUint32

// ErrInvalidParams reports an unusable sketch configuration.
var ErrInvalidParams = errors.New("sketch: invalid parameters")

// DimsFromError returns the CountMin dimensions guaranteeing, with
// probability at least 1-delta, that estimates exceed the true frequency by
// at most epsilon*N: w = ceil(e/epsilon), d = ceil(ln(1/delta)).
func DimsFromError(epsilon, delta float64) (width, depth int, err error) {
	if !(epsilon > 0 && epsilon < 1) || !(delta > 0 && delta < 1) {
		return 0, 0, fmt.Errorf("%w: epsilon=%v delta=%v (need 0<eps<1, 0<delta<1)", ErrInvalidParams, epsilon, delta)
	}
	width = int(math.Ceil(math.E / epsilon))
	depth = int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return width, depth, nil
}

// WidthFromMemory returns the widest row count that fits a byte budget at
// the given depth: floor(bytes / (depth*CellSize)).
func WidthFromMemory(bytes, depth int) (int, error) {
	if bytes <= 0 || depth <= 0 {
		return 0, fmt.Errorf("%w: bytes=%d depth=%d", ErrInvalidParams, bytes, depth)
	}
	w := bytes / (depth * CellSize)
	if w < 1 {
		return 0, fmt.Errorf("%w: budget of %d bytes cannot fit depth %d", ErrInvalidParams, bytes, depth)
	}
	return w, nil
}

func addSat32(cell uint32, count int64) uint32 {
	sum := uint64(cell) + uint64(count)
	if sum > maxCell {
		return maxCell
	}
	return uint32(sum)
}
