package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	gsketch "github.com/graphstream/gsketch"
)

// runIngestWire is the write-heavy workload: the R-MAT stream over wire
// ingest frames into a data-sample engine (paper scenario 1), with 30% of
// the time on wire query batches of a uniform query set.
func runIngestWire(p params, in *inputs, r *report, o *oracle) error {
	build := func(int) (*served, error) {
		eng, err := gsketch.Open(referenceConfig(),
			gsketch.WithSample(in.sample),
			gsketch.WithIngest(referenceIngest()))
		if err != nil {
			return nil, err
		}
		return serve(eng, false)
	}
	return runWindows(p, in, r, o, build, 0, 1-p.sz.QueryShare)
}

// runQueryWire is the read-heavy workload. The engine is built from data
// and workload samples (paper scenario 2), loaded with one pass over the
// wire and saved to a snapshot; set-up restores it. The timed phase spends
// 70% of its time on wire query batches drawn from a Zipf(1.5) query
// workload and the rest on more ingest passes.
func runQueryWire(p params, in *inputs, r *report, o *oracle) error {
	eng, err := gsketch.Open(referenceConfig(),
		gsketch.WithSample(in.sample),
		gsketch.WithWorkloadSample(in.workload),
		gsketch.WithIngest(referenceIngest()))
	if err != nil {
		return err
	}
	load, err := serve(eng, false)
	if err != nil {
		return err
	}
	run, err := closedLoopIngest(load.wireAddr, in.frames, ingestConns, 0, o)
	if err != nil {
		load.close()
		return err
	}
	checkVolume(eng, run.passes*in.volume, o)
	snap := filepath.Join(p.dir, "query-wire.snap")
	if _, err := eng.SaveSnapshot(snap); err != nil {
		load.close()
		return err
	}
	if err := load.close(); err != nil {
		return err
	}
	build := func(int) (*served, error) {
		eng, err := gsketch.Open(referenceConfig(),
			gsketch.WithRestoreFile(snap),
			gsketch.WithIngest(referenceIngest()))
		if err != nil {
			return nil, err
		}
		return serve(eng, false)
	}
	return runWindows(p, in, r, o, build, run.passes, p.sz.QueryShare)
}

// runWindows sets up the served engine with build, then runs the timed
// phase of an R-MAT workload as windows spread over the whole run, each an
// ingest stretch (whole passes, ingestShare of the window) followed by a
// query stretch checked against the passes flushed so far. passes is the
// stream already in the engine. Set-up is timed before and after the timed
// phase; the accuracy pass comes last.
func runWindows(p params, in *inputs, r *report, o *oracle, build func(int) (*served, error), passes int64, ingestShare float64) error {
	sv, setups, err := setupTimes(p.sz.Setups/2+1, build)
	if err != nil {
		return err
	}
	defer sv.close()
	checkVolume(sv.eng, passes*in.volume, o)

	var ing, qry windowed
	var frames, retries int64
	idur := time.Duration(float64(p.seconds) * ingestShare / windows)
	qdur := time.Duration(float64(p.seconds) * (1 - ingestShare) / windows)
	for w := 0; w < windows; w++ {
		run, err := closedLoopIngest(sv.wireAddr, in.frames, ingestConns, idur, o)
		if err != nil {
			return err
		}
		passes += run.passes
		frames += run.frames
		retries += run.retries
		ing.add(run.edges, run.elapsed, run.lat)
		qrun, err := closedLoopQuery(sv.wireAddr, in.queries, in.truth, passes, p.sz.QueryBatch, p.conns, qdur, o)
		if err != nil {
			return err
		}
		qry.add(qrun.queries, qrun.elapsed, qrun.lat)
	}
	ing.record(r, "ingest_edges_per_s", "edges/s", "ingest_frame")
	qry.record(r, "query_per_s", "queries/s", "query_batch")
	r.details["ingest_passes"] = passes
	r.details["ingest_retries_per_frame"] = float64(retries) / float64(max(frames, 1))
	checkVolume(sv.eng, passes*in.volume, o)
	recordMemory(r, sv.eng)
	if err := moreSetups(p.sz.Setups/2, build, &setups); err != nil {
		return err
	}
	r.setN("setup_s", median(setups), "s", len(setups))

	acc, err := accuracyPass(sv.wireAddr, in.accQueries, p.sz.QueryBatch,
		func(i int) (int64, int64, bool) {
			// The state is passes × one pass, so the truth is too;
			// CountMin is linear, so relative errors do not depend on
			// the pass count.
			t := passes * in.accTruth[i]
			return t, t, true
		}, o)
	if err != nil {
		return err
	}
	recordAccuracy(r, acc, o)
	return nil
}

// checkVolume is the served-volume oracle: the engine holds exactly the
// volume the generator produced for the passes sent.
func checkVolume(eng *gsketch.Engine, want int64, o *oracle) {
	got := eng.Stats().StreamTotal
	o.check(got == want, "served stream volume %d, generated %d", got, want)
}

// recordMemory reads the sketch footprint at the run's fixed point.
func recordMemory(r *report, eng *gsketch.Engine) {
	r.set("sketch_resident_mb", float64(eng.Stats().MemoryBytes)/(1<<20), "MiB")
}

// finishMetrics fills ok_op_ratio from the oracle.
func finishMetrics(r *report, o *oracle) {
	ratio := 1.0
	if o.attempted > 0 {
		ratio = 1 - float64(o.failed)/float64(o.attempted)
	}
	r.setN("ok_op_ratio", math.Max(ratio, 0), "ratio", int(o.attempted))
	r.details["failed_op_ratio"] = 1 - ratio
}

func runWorkload(p params, in *inputs, r *report, o *oracle) error {
	switch p.workload {
	case wlIngestWire:
		return runIngestWire(p, in, r, o)
	case wlQueryWire:
		return runQueryWire(p, in, r, o)
	case wlChainMixed:
		return runChainMixed(p, in, r, o)
	}
	return fmt.Errorf("unknown workload %q", p.workload)
}
