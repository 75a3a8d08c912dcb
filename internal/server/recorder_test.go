package server

import (
	"net/http"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

// TestRecorderCapBound checks the reservoir invariant: sample size never
// exceeds capacity while seen keeps counting.
func TestRecorderCapBound(t *testing.T) {
	r := adapt.NewRecorder(64, 1, nil)
	qs := make([]core.EdgeQuery, 1000)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: uint64(i % 10), Dst: uint64(i)}
	}
	r.Record(qs)
	if got := len(r.Sample()); got != 64 {
		t.Fatalf("sample size %d, want 64", got)
	}
	if r.Seen() != 1000 {
		t.Fatalf("seen %d, want 1000", r.Seen())
	}
}

// TestWorkloadCaptureClosesTheLoop is the sample-collection loop end to
// end: queries served over HTTP land in the reservoir, GET /workload
// exports them in the text edge format, and that exact payload feeds
// back into BuildGSketch as the workload sample that flips partitioning to
// the §4.2 workload-aware objective.
func TestWorkloadCaptureClosesTheLoop(t *testing.T) {
	edges := testStream(20_000, 23)
	_, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, edges[:3000]),
			gsketch.WithWorkloadRecorder(512, 9),
		),
	})

	// Serve a skewed workload: vertex edges[0].Src is queried far more
	// often than anything else.
	var qs []core.EdgeQuery
	for i := 0; i < 900; i++ {
		qs = append(qs, core.EdgeQuery{Src: edges[0].Src, Dst: edges[i%50].Dst})
	}
	for i := 0; i < 100; i++ {
		qs = append(qs, core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	queryBatch(t, ts.URL, qs)

	// Export the live sample.
	resp, err := http.Get(ts.URL + "/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workload: status %d", resp.StatusCode)
	}
	workload, err := stream.ReadTextEdges(resp.Body)
	if err != nil {
		t.Fatalf("exported workload does not parse as an edge file: %v", err)
	}
	if len(workload) == 0 || len(workload) > 512 {
		t.Fatalf("workload sample size %d out of bounds", len(workload))
	}
	// Uniform sampling over a 9:1 skew: the hot vertex must dominate.
	hot := 0
	for _, e := range workload {
		if e.Src == edges[0].Src {
			hot++
		}
	}
	if hot*2 < len(workload) {
		t.Fatalf("hot vertex only in %d/%d sampled queries", hot, len(workload))
	}

	// Feed the recorded sample back into an offline rebuild: partitioning
	// must pick the workload-aware objective.
	g, err := core.BuildGSketch(testSketchConfig(), edges[:3000], workload)
	if err != nil {
		t.Fatalf("rebuild from recorded workload: %v", err)
	}
	if g.Order() != vstats.ByFreqPerWeight {
		t.Fatalf("rebuild ignored the workload sample (order %v)", g.Order())
	}
}

// TestWorkloadDisabled checks that an engine opened without a workload
// recorder does not mount the endpoint.
func TestWorkloadDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Engine: openTestEngine(t, buildTestGSketch(t, testStream(1000, 29))),
	})
	resp, err := http.Get(ts.URL + "/workload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("workload endpoint mounted while disabled: %d", resp.StatusCode)
	}
	// Queries still serve fine without a recorder.
	queryBatch(t, ts.URL, []core.EdgeQuery{{Src: 1, Dst: 2}})
}
