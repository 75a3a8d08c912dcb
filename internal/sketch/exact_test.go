package sketch

import "testing"

func TestExactCounterSynopsis(t *testing.T) {
	e := NewExact()
	e.Update(1, 5)
	e.Update(1, 3)
	e.Update(2, 1)
	if e.Estimate(1) != 8 || e.Estimate(2) != 1 || e.Estimate(3) != 0 {
		t.Error("exact estimates wrong")
	}
	if e.Count() != 9 || e.Distinct() != 2 {
		t.Errorf("count=%d distinct=%d", e.Count(), e.Distinct())
	}
	seen := 0
	e.Range(func(k uint64, v int64) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("range visited %d keys", seen)
	}
	// Early-stop contract.
	seen = 0
	e.Range(func(k uint64, v int64) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("range ignored early stop, visited %d", seen)
	}
	e.Reset()
	if e.Count() != 0 || e.Distinct() != 0 {
		t.Error("reset did not clear")
	}
}

// TestExactZeroCountIsNoop: a zero-count update neither adds volume nor
// registers a distinct key, on the scalar and the batch path alike.
func TestExactZeroCountIsNoop(t *testing.T) {
	e := NewExact()
	e.Update(5, 0)
	e.UpdateBatch([]uint64{6, 7}, []int64{0, 0})
	if e.Count() != 0 || e.Distinct() != 0 || e.MemoryBytes() != 0 {
		t.Fatalf("after zero updates: count=%d distinct=%d mem=%d", e.Count(), e.Distinct(), e.MemoryBytes())
	}
}

// TestExactRejectsBadInput: negative counts (the model is cash-register)
// and mismatched batch slices panic rather than corrupt the oracle.
func TestExactRejectsBadInput(t *testing.T) {
	for name, f := range map[string]func(e *Exact){
		"negative update":       func(e *Exact) { e.Update(1, -1) },
		"negative batch update": func(e *Exact) { e.UpdateBatch([]uint64{1}, []int64{-1}) },
		"update length":         func(e *Exact) { e.UpdateBatch([]uint64{1, 2}, []int64{1}) },
		"estimate length":       func(e *Exact) { e.EstimateBatch([]uint64{1, 2}, make([]int64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(NewExact())
		}()
	}
}
