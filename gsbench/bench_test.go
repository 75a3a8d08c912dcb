package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the runner must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyParams(t *testing.T, workload string, seed uint64, trace bool) params {
	seconds := time.Second
	if workload == wlChainMixed {
		// Enough open-loop requests for a p99 at the tiny rate.
		seconds = 5 * time.Second
	}
	return params{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		sz: tinySizes, conns: min(2, runtime.NumCPU()),
		dir: t.TempDir(), traceDir: t.TempDir(),
	}
}

// runTiny executes one tiny run and returns its result and printed lines.
func runTiny(t *testing.T, p params) (result, []string) {
	t.Helper()
	var buf bytes.Buffer
	res, err := execute(p, &buf)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", p.workload, p.trace, err)
	}
	var lines []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if !res.Correct {
		for _, l := range lines {
			if strings.HasPrefix(l, "# FAILED") {
				t.Log(l)
			}
		}
		t.Fatalf("%s trace=%v: run not correct (%d of %d failed)", p.workload, p.trace, res.Failed, res.Attempted)
	}
	return res, lines
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(s.EndToEnd), len(endToEndNames))
	}
	for i, m := range s.EndToEnd {
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, runner %q", i, m.Name, endToEndNames[i])
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), runner %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, runner %v", names, workloads)
	}
}

// TestTinyRunsPrintEveryMetric runs every workload, untraced and traced, at
// tiny sizes: each completes correctly and prints every named metric with
// the unit BENCHMARK.json gives it, and the last line is the result.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	units := map[string]string{}
	for _, m := range s.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if raceDetector && w == wlChainMixed && !trace {
				// Several times slower under the race detector, the run
				// misses its open-loop schedule and sample counts; it
				// still runs, so the detector sees its goroutines.
				if _, err := execute(tinyParams(t, w, 7, trace), io.Discard); err != nil {
					t.Fatal(err)
				}
				continue
			}
			res, lines := runTiny(t, tinyParams(t, w, 7, trace))
			want := endToEndNames
			if trace {
				want = perLayerNames
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			printed := strings.Join(lines, "\n")
			for _, n := range want {
				m, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, n)
					continue
				}
				if m.Unit != units[n] {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json %q", w, trace, n, m.Unit, units[n])
				}
				if !strings.Contains(printed, n) {
					t.Errorf("%s trace=%v: %s not printed", w, trace, n)
				}
			}
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w, trace, err)
			}
			if last.Attempted < 1 || !last.Correct {
				t.Errorf("%s trace=%v: last line %+v", w, trace, last)
			}
		}
	}
}

// TestSpanTreesWellFormed checks a traced run's written spans: parents
// enclose their children, and the validator rejects broken trees.
func TestSpanTreesWellFormed(t *testing.T) {
	p := tinyParams(t, wlIngestWire, 3, true)
	runTiny(t, p)
	f, err := os.Open(filepath.Join(p.traceDir, "trace-ingest-wire.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	if err := validateSpans(spans); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range spans {
		if s.Parent >= 0 {
			children++
		}
	}
	if children == 0 {
		t.Fatal("no nested spans")
	}

	good := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "op", Start: 10, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "a", Start: 20, End: 40},
		{ID: 2, Parent: 0, Req: 1, Name: "b", Start: 40, End: 90},
	}
	if err := validateSpans(good); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(good); self[0] != 20 || self[1] != 20 || self[2] != 50 {
		t.Fatalf("self times %v, want [20 20 50]", self)
	}
	for name, bad := range map[string][]span{
		"child outlives parent": {good[0], {ID: 1, Parent: 0, Req: 1, Start: 20, End: 120}},
		"child starts early":    {good[0], {ID: 1, Parent: 0, Req: 1, Start: 5, End: 50}},
		"other request":         {good[0], {ID: 1, Parent: 0, Req: 2, Start: 20, End: 50}},
		"ends before start":     {{ID: 0, Parent: -1, Start: 10, End: 5}},
	} {
		if validateSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSeedReproducesAccuracy: the same seed gives the same accuracy
// figures wherever the answer set is deterministic. ingest-wire serves
// whole passes (the state is passes × one pass, and CountMin is linear) and
// query-wire serves a snapshot, so both are exact. chain-mixed is not: its
// rebuilds partition from a reservoir filled in pipeline-worker order.
func TestSeedReproducesAccuracy(t *testing.T) {
	for _, w := range []string{wlIngestWire, wlQueryWire} {
		a, _ := runTiny(t, tinyParams(t, w, 11, false))
		b, _ := runTiny(t, tinyParams(t, w, 11, false))
		for _, n := range []string{"avg_rel_error", "effective_query_ratio"} {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s %v then %v", w, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
		c, _ := runTiny(t, tinyParams(t, w, 12, false))
		if c.Metrics["avg_rel_error"] == a.Metrics["avg_rel_error"] {
			t.Errorf("%s: seeds 11 and 12 gave the same avg_rel_error", w)
		}
	}
}

// TestRunFailsOnBadArguments: an unknown workload exits nonzero without a
// result line.
func TestRunFailsOnBadArguments(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &buf); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("printed %q", buf.String())
	}
}
