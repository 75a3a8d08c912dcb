package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/wire"
)

// chainState is what the ingest side of chain-mixed publishes after every
// rotation: phase instances [lo, hi) are complete and each still sits in
// its own unmerged generation, so every answer must reach their summed
// truth. Instances before lo were folded by compaction; a fold may
// re-ingest from a sample, so they bound nothing.
type chainState struct {
	lo, hi int64
	// spilled is set when the rotation left generations on disk: the next
	// query reloads them.
	spilled bool
}

// maxInFlight bounds chain-mixed's outstanding open-loop requests: at 400
// batches/s it covers a 640 ms server stall.
const maxInFlight = 256

// chainAccuracyAt is the phase instance after which chain-mixed takes its
// accuracy pass and reads its memory: the chain then holds that many
// generations, every one resident after the pass, and none folded.
const chainAccuracyAt = 2

// chainOpen builds chain-mixed's engine: an adaptive chain capped at
// ChainMaxGens generations (compaction folds the oldest two when a
// rotation would hit the cap; the background loop is parked), with all but
// TierResident frozen generations spilled to dir.
func chainOpen(in *inputs, sz sizes, seed uint64, dir string) (*gsketch.Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return gsketch.Open(referenceConfig(),
		gsketch.WithSample(in.sample),
		gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: sz.ChainSample, Seed: seed, MaxGenerations: sz.ChainMaxGens}, gsketch.AdaptConfig{}),
		gsketch.WithCompaction(gsketch.CompactionPolicy{MaxGenerations: sz.ChainMaxGens - 1, Interval: time.Hour}, nil),
		gsketch.WithTiering(dir, sz.TierResident),
		gsketch.WithIngest(referenceIngest()))
}

// runChainMixed is the mixed workload on an adaptive chain. One wire
// connection ingests the carousel stream in a closed loop, phase after
// phase; at each phase boundary the runner flushes and calls
// Engine.Repartition, so what each generation holds does not depend on
// timing. Meanwhile one HTTP client sends POST /query batches of the
// current phase's edges on an open-loop schedule, each timed from when it
// was due.
func runChainMixed(p params, in *inputs, r *report, o *oracle) error {
	build := func(i int) (*served, error) {
		eng, err := chainOpen(in, p.sz, p.seed, filepath.Join(p.dir, "tier-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		return serve(eng, true)
	}
	sv, setups, err := setupTimes(p.sz.Setups/2+1, build)
	if err != nil {
		return err
	}
	defer sv.close()

	nPhases := int64(len(in.phases))
	phaseFrames := make([][][]gsketch.Edge, nPhases)
	for i, ph := range in.phases {
		phaseFrames[i] = cut(ph, p.sz.Frame)
	}
	var state atomic.Pointer[chainState]
	state.Store(&chainState{})
	var epoch atomic.Int64 // rotations published
	var done atomic.Bool

	// Ingest side.
	var ing struct {
		lat       samples
		rates     []float64
		repart    samples
		edges     int64
		instances int64
		memory    int
		acc       accuracy
		accErr    error
		paused    time.Duration
		gens      int
		compacts  int64
		err       error
	}
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	deadline := start.Add(p.seconds)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		c, err := wire.Dial(sv.wireAddr)
		if err != nil {
			ing.err = err
			return
		}
		defer c.Close()
		for inst := int64(0); ; inst++ {
			// A phase's rate covers its frames, the flush and the
			// repartition that ends it.
			instStart, pausedBefore := time.Now(), ing.paused
			var instEdges int64
			rate := func() {
				d := time.Since(instStart) - (ing.paused - pausedBefore)
				ing.rates = append(ing.rates, float64(instEdges)/d.Seconds())
			}
			for _, f := range phaseFrames[inst%nPhases] {
				r0 := time.Now()
				_, err := c.IngestAll(f, len(f))
				ing.lat.add(time.Since(r0))
				if err != nil {
					o.fail("ingest frame: %v", err)
					ing.err = err
					return
				}
				ing.edges += int64(len(f))
				instEdges += int64(len(f))
			}
			if err := c.Flush(); err != nil {
				o.fail("flush: %v", err)
				ing.err = err
				return
			}
			ing.instances = inst + 1
			if inst == chainAccuracyAt {
				// The fixed point: no fold has happened yet, so the truth
				// of every answer is exact. The pause is not ingest time.
				a0 := time.Now()
				ing.acc, ing.accErr = accuracyPass(sv.wireAddr, in.accQueries, p.sz.QueryBatch, func(i int) (int64, int64, bool) {
					t := instanceTruth(in, in.accQueries[i], 0, inst+1)
					return t, t, true
				}, o)
				ing.memory = sv.eng.Stats().MemoryBytes
				ing.paused += time.Since(a0)
			}
			if time.Now().After(deadline) {
				rate()
				return
			}
			if ing.gens >= p.sz.ChainMaxGens {
				// This rotation folds the oldest single-instance generation
				// into gens[0]: stop counting on it before the fold starts.
				cur := state.Load()
				state.Store(&chainState{lo: inst + 1 - int64(p.sz.ChainMaxGens-2), hi: cur.hi, spilled: cur.spilled})
			}
			r0 := time.Now()
			if _, err := sv.eng.Repartition(); err != nil {
				o.fail("repartition: %v", err)
				ing.err = err
				return
			}
			ing.repart.add(time.Since(r0))
			rate()
			st := sv.eng.Stats()
			g := int64(st.Adapt.Generations)
			lo := int64(0)
			if st.Adapt.Compactions > 0 {
				// gens[0] is the fold product; every later frozen
				// generation holds exactly one phase instance.
				lo = inst + 1 - (g - 2)
			}
			state.Store(&chainState{lo: lo, hi: inst + 1, spilled: st.Adapt.ResidentGenerations < st.Adapt.Generations})
			epoch.Add(1)
			ing.gens, ing.compacts = st.Adapt.Generations, st.Adapt.Compactions
		}
	}()

	// Query side: open loop at HTTPRate batches per second over at most 32
	// connections. Up to maxInFlight requests may be outstanding, so a
	// stall of the server shows as latency, not as a generator that
	// stopped sending.
	client := httpClient(32)
	defer client.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / p.sz.HTTPRate)
	sem := make(chan struct{}, maxInFlight)
	var qmu sync.Mutex
	var qlat, lateness samples
	var answered, requests, afterSpill, stalls int64
	var qwg sync.WaitGroup
	lastEpoch := int64(0)
	for j := int64(0); !done.Load(); j++ {
		due := start.Add(time.Duration(j) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			stalls++ // every request slot busy: the generator is held back
			sem <- struct{}{}
		}
		lateness.add(time.Since(due))
		st := state.Load()
		if ep := epoch.Load(); ep != lastEpoch {
			lastEpoch = ep
			if st.spilled {
				afterSpill++
			}
		}
		pool := in.phaseQueries[st.hi%nPhases]
		lo := int(j*int64(p.sz.HTTPBatch)) % len(pool)
		hi := min(lo+p.sz.HTTPBatch, len(pool))
		requests++
		qwg.Add(1)
		go func(due time.Time, qs []gsketch.EdgeQuery, st *chainState) {
			defer qwg.Done()
			defer func() { <-sem }()
			ests, err := postQuery(client, sv.httpAddr, qs)
			elapsed := time.Since(due)
			if err != nil {
				o.fail("http query: %v", err)
				return
			}
			// Instances folded while the request was in flight bound
			// nothing any more.
			lo := max(st.lo, state.Load().lo)
			for i, q := range qs {
				if lb := instanceTruth(in, q, lo, st.hi); ests[i] < lb {
					o.underestimate(q.Src, q.Dst, ests[i], lb)
				}
			}
			qmu.Lock()
			qlat = append(qlat, float64(elapsed.Nanoseconds())/1e6)
			answered += int64(len(qs))
			qmu.Unlock()
		}(due, pool[lo:hi], st)
	}
	qwg.Wait()
	wg.Wait()
	qElapsed := time.Since(start)
	o.ops(int64(len(ing.lat)) + requests + ing.instances)
	if ing.err != nil {
		return ing.err
	}

	r.setN("ingest_edges_per_s", quietHigh(ing.rates), "edges/s", len(ing.rates))
	r.latency("ingest_frame", ing.lat)
	r.setN("query_per_s", float64(answered)/qElapsed.Seconds(), "queries/s", len(qlat))
	r.latency("query_batch", qlat)
	if err := moreSetups(p.sz.Setups/2, build, &setups); err != nil {
		return err
	}
	r.setN("setup_s", median(setups), "s", len(setups))
	r.set("sketch_resident_mb", float64(ing.memory)/(1<<20), "MiB")
	checkVolume(sv.eng, ing.edges, o)

	// Open-loop hygiene: the generator must keep to its schedule.
	r.details["generator_lateness_p50_ms"] = lateness.quantile(0.5)
	r.details["generator_lateness_p99_ms"] = lateness.quantile(0.99)
	r.details["generator_stalls"] = stalls
	r.details["compact.reload_request_share"] = float64(afterSpill) / float64(max(requests, 1))
	r.details["phase_instances"] = ing.instances
	r.details["rotations"] = epoch.Load()
	r.details["generations"] = ing.gens
	r.details["compactions"] = ing.compacts
	r.details["engine.repartition_p50_ms"] = ing.repart.quantile(0.5)
	r.details["http_rate_batches_per_s"] = p.sz.HTTPRate
	// Scheduling jitter on a busy host shows in the p99 and is charged to
	// the requests (they are timed from when they were due); a generator
	// that lags at the median, or ran out of request slots, has fallen
	// behind its schedule and the run is invalid.
	behind := lateness.quantile(0.5)
	o.check(behind <= interval.Seconds()*1e3 && stalls == 0,
		"open-loop generator fell behind its schedule (lateness p50 %.3f ms, interval %.3f ms, %d stalls)",
		behind, interval.Seconds()*1e3, stalls)

	if ing.instances <= chainAccuracyAt {
		return fmt.Errorf("run ended after %d phases, before the accuracy point (phase %d)", ing.instances, chainAccuracyAt)
	}
	if ing.accErr != nil {
		return ing.accErr
	}
	recordAccuracy(r, ing.acc, o)
	return nil
}

// instanceTruth sums the count of q over phase instances [lo, hi) of the
// cyclic carousel.
func instanceTruth(in *inputs, q gsketch.EdgeQuery, lo, hi int64) int64 {
	counts := in.phaseCounts[[2]uint64{q.Src, q.Dst}]
	if counts == nil {
		return 0
	}
	var t int64
	for i := lo; i < hi; i++ {
		t += counts[i%int64(len(counts))]
	}
	return t
}

// postQuery sends one JSON query batch and returns the estimates.
func postQuery(client *http.Client, addr string, qs []gsketch.EdgeQuery) ([]int64, error) {
	resp, err := client.Post("http://"+addr+"/query", "application/json", bytes.NewReader(queryJSON(qs)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return decodeEstimates(resp.Body, len(qs))
}

// queryJSON renders a POST /query body.
func queryJSON(qs []gsketch.EdgeQuery) []byte {
	body := make([]byte, 0, 16+len(qs)*48)
	body = append(body, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"src":`...)
		body = strconv.AppendUint(body, q.Src, 10)
		body = append(body, `,"dst":`...)
		body = strconv.AppendUint(body, q.Dst, 10)
		body = append(body, '}')
	}
	return append(body, "]}"...)
}

// decodeEstimates reads the estimates of a POST /query reply answering n
// queries.
func decodeEstimates(r io.Reader, n int) ([]int64, error) {
	var out struct {
		Results []struct {
			Estimate int64 `json:"estimate"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Results) != n {
		return nil, fmt.Errorf("answered %d of %d", len(out.Results), n)
	}
	ests := make([]int64, n)
	for i, res := range out.Results {
		ests[i] = res.Estimate
	}
	return ests, nil
}
