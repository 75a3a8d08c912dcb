package sketch

import (
	"testing"
)

// assertGatherEquivalent populates a synopsis and requires EstimateBatch to
// return exactly the values of per-key Estimate over a probe set that mixes
// present and absent keys.
func assertGatherEquivalent(t *testing.T, name string, s Synopsis, keys []uint64, counts []int64) {
	t.Helper()
	s.UpdateBatch(keys, counts)

	probes := make([]uint64, 0, 6000)
	for k := uint64(0); k < 6000; k++ {
		probes = append(probes, k) // keys above 4096 are absent from the stream
	}
	got := make([]int64, len(probes))
	s.EstimateBatch(probes, got)
	for i, k := range probes {
		if want := s.Estimate(k); got[i] != want {
			t.Fatalf("%s: EstimateBatch[%d] = %d, Estimate(%d) = %d", name, i, got[i], k, want)
		}
	}
}

func TestCountMinEstimateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 31)
	cm, _ := NewCountMin(512, 5, 3)
	assertGatherEquivalent(t, "countmin", cm, keys, counts)
}

func TestCountMinConservativeEstimateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 37)
	cm, _ := NewCountMin(512, 5, 3)
	cm.SetConservative(true)
	assertGatherEquivalent(t, "countmin-conservative", cm, keys, counts)
}

func TestCountMinEstimateBatchEvenDepth(t *testing.T) {
	keys, counts := batchStream(10_000, 41)
	cm, _ := NewCountMin(512, 4, 3)
	assertGatherEquivalent(t, "countmin-even-depth", cm, keys, counts)
}

func TestCountSketchEstimateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 43)
	cs, _ := NewCountSketch(512, 5, 3)
	assertGatherEquivalent(t, "countsketch", cs, keys, counts)
}

func TestCountSketchEstimateBatchEvenDepth(t *testing.T) {
	keys, counts := batchStream(10_000, 47)
	cs, _ := NewCountSketch(512, 4, 3)
	assertGatherEquivalent(t, "countsketch-even-depth", cs, keys, counts)
}

func TestExactEstimateBatchEquivalence(t *testing.T) {
	keys, counts := batchStream(20_000, 59)
	assertGatherEquivalent(t, "exact", NewExact(), keys, counts)
}

func TestEstimateBatchEmpty(t *testing.T) {
	cm, _ := NewCountMin(16, 2, 1)
	cm.EstimateBatch(nil, nil) // must not panic
}

func TestEstimateBatchLengthMismatchPanics(t *testing.T) {
	cm, _ := NewCountMin(16, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched EstimateBatch slices did not panic")
		}
	}()
	cm.EstimateBatch([]uint64{1, 2}, []int64{0})
}
