package sketch

import (
	"bytes"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// batchStream builds a deterministic skewed (key, count) stream.
func batchStream(n int, seed uint64) ([]uint64, []int64) {
	rng := hashutil.NewRNG(seed)
	keys := make([]uint64, n)
	counts := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 4096
		counts[i] = int64(rng.Uint64()%5) + 1
		if i%97 == 0 {
			counts[i] = 0 // exercise the zero-count skip
		}
	}
	return keys, counts
}

// assertEquivalent feeds the same stream through seq (per-key Update) and
// bat (one UpdateBatch) and requires identical totals and estimates.
func assertEquivalent(t *testing.T, name string, seq, bat Synopsis, keys []uint64, counts []int64) {
	t.Helper()
	for i := range keys {
		seq.Update(keys[i], counts[i])
	}
	bat.UpdateBatch(keys, counts)
	if seq.Count() != bat.Count() {
		t.Fatalf("%s: Count %d (sequential) vs %d (batch)", name, seq.Count(), bat.Count())
	}
	for k := uint64(0); k < 4096; k++ {
		if s, b := seq.Estimate(k), bat.Estimate(k); s != b {
			t.Fatalf("%s: Estimate(%d) = %d (sequential) vs %d (batch)", name, k, s, b)
		}
	}
}

func TestCountMinUpdateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 11)
	seq, _ := NewCountMin(512, 5, 3)
	bat, _ := NewCountMin(512, 5, 3)
	assertEquivalent(t, "countmin", seq, bat, keys, counts)

	// Byte-identical counters, not just identical estimates.
	var sb, bb bytes.Buffer
	if _, err := seq.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := bat.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
		t.Fatal("countmin: batch counters are not byte-identical to sequential")
	}
}

func TestCountMinConservativeUpdateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 13)
	seq, _ := NewCountMin(512, 5, 3)
	seq.SetConservative(true)
	bat, _ := NewCountMin(512, 5, 3)
	bat.SetConservative(true)
	assertEquivalent(t, "countmin-conservative", seq, bat, keys, counts)
}

func TestCountSketchUpdateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 17)
	seq, _ := NewCountSketch(512, 5, 3)
	bat, _ := NewCountSketch(512, 5, 3)
	assertEquivalent(t, "countsketch", seq, bat, keys, counts)
}

func TestExactUpdateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 23)
	assertEquivalent(t, "exact", NewExact(), NewExact(), keys, counts)
}

func TestUpdateBatchLengthMismatchPanics(t *testing.T) {
	cm, _ := NewCountMin(16, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched UpdateBatch slices did not panic")
		}
	}()
	cm.UpdateBatch([]uint64{1, 2}, []int64{1})
}

func TestCountMinUpdateBatchNegativePanics(t *testing.T) {
	cm, _ := NewCountMin(16, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative batch count did not panic")
		}
	}()
	cm.UpdateBatch([]uint64{1}, []int64{-1})
}

// TestRowHashMatchesPairwiseHash pins the inlined batch-loop row hash to
// PairwiseHash.Hash, the per-key Update path's hash, over random and
// boundary keys and widths on both sides of a power of two.
func TestRowHashMatchesPairwiseHash(t *testing.T) {
	rng := hashutil.NewRNG(41)
	keys := []uint64{0, 1, hashutil.MersennePrime61 - 1, hashutil.MersennePrime61, hashutil.MersennePrime61 + 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 5000; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, width := range []int{1, 7, 64, 1000, 1 << 16, 104857} {
		cm, err := NewCountMin(width, 5, uint64(width))
		if err != nil {
			t.Fatal(err)
		}
		for r, h := range cm.hashes {
			for _, k := range keys {
				if got, want := cm.rows[r].col(hashutil.Mod61(k), uint64(width)), h.Hash(k); got != want {
					t.Fatalf("width %d row %d key %#x: col %d, Hash %d", width, r, k, got, want)
				}
			}
		}
	}
}

// TestCountMinUpdateBatchAllocs gates both CountMin batch modes at zero
// allocations: conservative update once allocated its d row indices per
// key.
func TestCountMinUpdateBatchAllocs(t *testing.T) {
	keys, counts := batchStream(1024, 43)
	for _, conservative := range []bool{false, true} {
		cm, _ := NewCountMin(512, 5, 3)
		cm.SetConservative(conservative)
		if n := testing.AllocsPerRun(20, func() { cm.UpdateBatch(keys, counts) }); n != 0 {
			t.Errorf("conservative=%v: UpdateBatch allocates %.1f times per batch, want 0", conservative, n)
		}
	}
}
