package experiments

import (
	"testing"

	"github.com/graphstream/gsketch/internal/query"
)

// TestFig4Fig5Golden pins the exact accuracy numbers behind Figures 4 (ARE)
// and 5 (effective queries) on the Small profile: every dataset, every
// memory size, both estimators. The sweep is deterministic end to end
// (seeded generators, samplers, hashes and query sets), so any refactor
// that changes an answer anywhere in build → populate → estimate shows up
// here as a changed figure, not as a vaguer "still better than Global".
func TestFig4Fig5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	type point struct {
		dataset string
		bytes   int
		global  query.Accuracy
		gsketch query.Accuracy
	}
	want := []point{
		{"DBLP", 8192, query.Accuracy{AvgRelErr: 159.17118503362852, Effective: 100, Total: 2000, MaxRelErr: 601}, query.Accuracy{AvgRelErr: 91.86729562481638, Effective: 29, Total: 2000, MaxRelErr: 306}},
		{"DBLP", 16384, query.Accuracy{AvgRelErr: 57.71048988967403, Effective: 240, Total: 2000, MaxRelErr: 335}, query.Accuracy{AvgRelErr: 41.354887861483256, Effective: 216, Total: 2000, MaxRelErr: 151}},
		{"DBLP", 32768, query.Accuracy{AvgRelErr: 18.701693766572888, Effective: 502, Total: 2000, MaxRelErr: 152}, query.Accuracy{AvgRelErr: 18.457104508300805, Effective: 461, Total: 2000, MaxRelErr: 65}},
		{"IPAttack", 8192, query.Accuracy{AvgRelErr: 86.22621210115246, Effective: 22, Total: 2000, MaxRelErr: 716}, query.Accuracy{AvgRelErr: 60.342024360017994, Effective: 42, Total: 2000, MaxRelErr: 1586}},
		{"IPAttack", 16384, query.Accuracy{AvgRelErr: 35.98962417317229, Effective: 317, Total: 2000, MaxRelErr: 431}, query.Accuracy{AvgRelErr: 26.975814329061645, Effective: 321, Total: 2000, MaxRelErr: 883}},
		{"IPAttack", 32768, query.Accuracy{AvgRelErr: 13.712010020032224, Effective: 1084, Total: 2000, MaxRelErr: 200}, query.Accuracy{AvgRelErr: 11.32749504228289, Effective: 917, Total: 2000, MaxRelErr: 472}},
		{"GTGraph", 8192, query.Accuracy{AvgRelErr: 148.0961383424707, Effective: 60, Total: 2000, MaxRelErr: 427}, query.Accuracy{AvgRelErr: 66.78938547729057, Effective: 15, Total: 2000, MaxRelErr: 756}},
		{"GTGraph", 16384, query.Accuracy{AvgRelErr: 61.612521247585875, Effective: 325, Total: 2000, MaxRelErr: 245}, query.Accuracy{AvgRelErr: 29.369726688817536, Effective: 196, Total: 2000, MaxRelErr: 339}},
		{"GTGraph", 32768, query.Accuracy{AvgRelErr: 22.4776586658808, Effective: 688, Total: 2000, MaxRelErr: 117}, query.Accuracy{AvgRelErr: 12.460387155165058, Effective: 582, Total: 2000, MaxRelErr: 185}},
	}

	h := NewHarness(NewRegistry(Small))
	dss, err := h.Reg.All()
	if err != nil {
		t.Fatal(err)
	}
	var got []point
	for _, ds := range dss {
		// The same cached scenario-A sweep Fig4 and Fig5 render.
		pts, err := h.edgeSweep(ds, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			got = append(got, point{ds.Name, p.Bytes, p.Global, p.GSketch})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sweep produced %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
