// Command gsbench is the repository's benchmark: it runs one named
// workload from a seed against the serving stack (an Engine behind
// server.New on loopback listeners, driven from this process) and prints
// every metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash gsbench/run.sh --workload ingest-wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// replays the workload's generated inputs through each module's public
// calls, records spans around them, and prints the per-layer metrics. A
// failed correctness check makes "correct" false and the exit code 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("gsbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer replay")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	p := params{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		sz:       fullSizes,
		conns:    min(2, runtime.NumCPU()),
	}
	if !known(p.workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gsbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	dir, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p.dir = dir
	p.traceDir = filepath.Join(".bench_build", "traces")

	res, err := execute(p, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// scratchRoot is where runs keep snapshots and tier files: .bench_build
// under the working directory.
func scratchRoot() string {
	d := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return os.TempDir()
	}
	return d
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute generates the inputs, runs the workload (or its traced replay)
// and prints the report. An error means the run could not be carried out;
// a failed check comes back as Correct=false.
func execute(p params, stdout io.Writer) (result, error) {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	t0 := time.Now()
	in, err := makeInputs(p.workload, p.seed, p.sz)
	if err != nil {
		return result{}, err
	}
	genS := time.Since(t0).Seconds()
	runtime.GC()

	r := newReport()
	o := &oracle{}
	steal0 := stealSeconds()
	var names []string
	if p.trace {
		err = runTraced(p, in, r, o)
		names = perLayerNames
	} else {
		err = runWorkload(p, in, r, o)
		finishMetrics(r, o)
		names = endToEndNames
	}
	if err != nil {
		o.fail("run aborted: %v", err)
	}

	out := result{Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		o.check(ok, "metric %s was not measured", n)
		if ok {
			out.Metrics[n] = m
		}
	}
	r.details["answers_below_truth"] = o.below
	// CPU time the hypervisor took from this machine during the run: a
	// noisy neighbour shows here before it shows as a regression.
	r.details["host_steal_s"] = stealSeconds() - steal0
	fmt.Fprintf(w, "# gsbench workload=%s seed=%d seconds=%d trace=%v\n", p.workload, p.seed, int(p.seconds.Seconds()), p.trace)
	header := map[string]any{
		"host":   fingerprint(p),
		"config": referenceSummary(p),
		"inputs": map[string]any{
			"edges_per_pass": len(in.edges), "volume_per_pass": in.volume, "distinct_edges": in.distinctEdges,
			"frames_per_pass": len(in.frames), "queries": len(in.queries), "accuracy_queries": len(in.accQueries),
			"phases": len(in.phases), "data_sample": len(in.sample), "workload_sample": len(in.workload),
			"generate_s": genS,
		},
		"details": r.details,
	}
	if blob, err := json.Marshal(header); err == nil {
		fmt.Fprintf(w, "# %s\n", blob)
	}
	for _, prob := range o.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", prob)
	}

	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	moves := map[string]string{}
	for _, l := range perLayer {
		moves[l.name] = l.moves
	}
	for _, n := range sorted {
		m, ok := out.Metrics[n]
		if !ok {
			continue
		}
		row := fmt.Sprintf("%-44s %16.6g %-10s", n, m.Value, m.Unit)
		if c, ok := r.counts[n]; ok {
			row += fmt.Sprintf(" n=%d", c)
		}
		if mv := moves[n]; mv != "" {
			row += "  → " + mv
		}
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
	out.Attempted = max(o.attempted, 1)
	out.Failed = o.failed
	out.Correct = o.failed == 0
	blob, err := json.Marshal(out)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(w, "%s\n", blob)
	return out, nil
}

// fingerprint describes the host and build a result came from.
func fingerprint(p params) map[string]any {
	return map[string]any{
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"source_hash":  sourceHash(),
		"seed":         p.seed,
		"workload":     p.workload,
		"conns":        p.conns,
		"ingest_conns": ingestConns,
	}
}

// referenceSummary records the shared reference configuration.
func referenceSummary(p params) map[string]any {
	c := referenceConfig()
	return map[string]any{
		"total_bytes": c.TotalBytes, "depth": "default", "sketch_seed": c.Seed,
		"ingest": "defaults", "closed_loop_clients": p.conns, "closed_loop_ingest_clients": ingestConns, "sizes": p.sz,
		"layer_sum_slack": layerSumSlack,
	}
}

// stealSeconds reads the machine's cumulative steal time (0 when
// unavailable), assuming the usual 100 ticks per second.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out commit when the checkout is a git work tree
// (HEAD plus a loose or packed ref), else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources of the checkout, which identifies
// the code measured when no commit is available.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
