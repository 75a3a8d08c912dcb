package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/server"
	"github.com/graphstream/gsketch/internal/wire"
)

// served is one engine behind server.New on loopback listeners.
type served struct {
	eng      *gsketch.Engine
	srv      *server.Server
	wireAddr string
	httpAddr string
	wg       sync.WaitGroup
}

// serve wraps eng in a server with a wire listener and, when withHTTP is
// set, an HTTP listener. The server owns the engine from here on.
func serve(eng *gsketch.Engine, withHTTP bool) (*served, error) {
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &served{eng: eng, srv: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.wireAddr = ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.ServeWire(ln) // http.ErrServerClosed after close
	}()
	if withHTTP {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.httpAddr = hln.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(hln)
		}()
	}
	return s, nil
}

// close shuts the server (and its engine) down and waits for the listener
// goroutines to return.
func (s *served) close() error {
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// setupTimes runs build n times, timing each, closes all but the last
// result and returns it with the set-up times in seconds.
func setupTimes(n int, build func(i int) (*served, error)) (*served, []float64, error) {
	var times []float64
	var kept *served
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := build(i)
		if err != nil {
			if kept != nil {
				kept.close()
			}
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if kept != nil {
			if err := kept.close(); err != nil {
				s.close()
				return nil, nil, err
			}
		}
		kept = s
	}
	return kept, times, nil
}

// moreSetups times n more set-ups after the timed phase, closing each, so
// setup_s samples both ends of the run.
func moreSetups(n int, build func(i int) (*served, error), times *[]float64) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := build(len(*times))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		*times = append(*times, time.Since(t0).Seconds())
		if err := s.close(); err != nil {
			return err
		}
	}
	return nil
}

// oracle tallies operations and correctness failures. An operation fails
// when it errors, is never accepted, or returns an answer below the exact
// truth; a failed global check also counts as one failed operation.
type oracle struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	below     int64
	problems  []string
}

func (o *oracle) ops(n int64) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// check records a global check: a false ok fails the run.
func (o *oracle) check(ok bool, format string, args ...any) {
	o.ops(1)
	if !ok {
		o.fail(format, args...)
	}
}

// underestimate records one answer below the exact truth.
func (o *oracle) underestimate(src, dst uint64, est, truth int64) {
	o.mu.Lock()
	o.below++
	o.mu.Unlock()
	o.fail("answer below truth: (%d,%d) estimate %d < truth %d", src, dst, est, truth)
}

// dialAll opens n wire connections, or none.
func dialAll(addr string, n int) ([]*wire.Client, error) {
	clients := make([]*wire.Client, n)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

// ingestRun is the outcome of a closed-loop ingest phase.
type ingestRun struct {
	frames  int64
	edges   int64
	passes  int64
	retries int64 // shed-retry rounds
	elapsed time.Duration
	lat     samples
}

// closedLoopIngest sends the frames of the stream over conns wire
// connections, each sending its next frame only after the previous one was
// fully accepted (shed suffixes are retried). It runs whole passes over the
// stream: once dur has elapsed, the pass in progress is completed, so the
// served volume is always passes × one-pass volume. It ends with a wire
// Flush, which the elapsed time includes.
func closedLoopIngest(addr string, frames [][]gsketch.Edge, conns int, dur time.Duration, o *oracle) (ingestRun, error) {
	nf := int64(len(frames))
	var next atomic.Int64
	var limit atomic.Int64
	limit.Store(math.MaxInt64)
	clients, err := dialAll(addr, conns)
	if err != nil {
		return ingestRun{}, err
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	lats := make([]samples, conns)
	errs := make([]error, conns)
	var retries atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for {
				i := next.Add(1) - 1
				if i >= limit.Load() {
					return
				}
				if time.Now().After(deadline) {
					// Round the stop point up to the end of the current
					// pass; every frame below it is still sent exactly once.
					end := (next.Load() + nf - 1) / nf * nf
					limit.CompareAndSwap(math.MaxInt64, end)
					if i >= limit.Load() {
						return
					}
				}
				f := frames[i%nf]
				r0 := time.Now()
				n, err := c.IngestAll(f, len(f))
				lats[w].add(time.Since(r0))
				retries.Add(n)
				if err != nil {
					errs[w] = fmt.Errorf("ingest frame %d: %w", i, err)
					o.fail("ingest frame %d: %v", i, err)
					// Stop every sender: the pass can no longer complete.
					limit.Store(0)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return ingestRun{}, err
	}
	if err := clients[0].Flush(); err != nil {
		o.fail("flush: %v", err)
		return ingestRun{}, err
	}
	run := ingestRun{elapsed: time.Since(t0)}
	sent := limit.Load()
	run.frames = sent
	run.passes = sent / nf
	run.retries = retries.Load()
	for _, f := range frames {
		run.edges += int64(len(f))
	}
	run.edges *= run.passes
	for w := range lats {
		run.lat = append(run.lat, lats[w]...)
	}
	o.ops(run.frames + 1)
	return run, nil
}

// queryRun is the outcome of a closed-loop query phase.
type queryRun struct {
	batches int64
	queries int64
	elapsed time.Duration
	lat     samples
}

// closedLoopQuery answers batches of qs over conns wire connections for
// dur, each connection sending its next batch when the previous reply
// arrived. Every answer is checked against mult × truth: the sketch never
// underestimates.
func closedLoopQuery(addr string, qs []gsketch.EdgeQuery, truth []int64, mult int64, batch, conns int, dur time.Duration, o *oracle) (queryRun, error) {
	nb := int64((len(qs) + batch - 1) / batch)
	var next atomic.Int64
	lats := make([]samples, conns)
	counts := make([]int64, conns)
	errs := make([]error, conns)
	clients, err := dialAll(addr, conns)
	if err != nil {
		return queryRun{}, err
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *wire.Client) {
			defer wg.Done()
			defer c.Close()
			var res []gsketch.Result
			for time.Now().Before(deadline) {
				b := (next.Add(1) - 1) % nb
				lo := int(b) * batch
				hi := min(lo+batch, len(qs))
				r0 := time.Now()
				var err error
				res, err = c.Query(res[:0], qs[lo:hi])
				lats[w].add(time.Since(r0))
				counts[w] += int64(hi - lo)
				if err == nil && len(res) != hi-lo {
					err = fmt.Errorf("answered %d of %d", len(res), hi-lo)
				}
				if err != nil {
					errs[w] = fmt.Errorf("query batch %d: %w", b, err)
					o.fail("query batch %d: %v", b, err)
					return
				}
				for i, r := range res {
					if t := mult * truth[lo+i]; r.Estimate < t {
						o.underestimate(qs[lo+i].Src, qs[lo+i].Dst, r.Estimate, t)
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	run := queryRun{elapsed: time.Since(t0)}
	for w := range lats {
		run.lat = append(run.lat, lats[w]...)
		run.queries += counts[w]
	}
	run.batches = int64(len(run.lat))
	o.ops(run.batches)
	return run, errors.Join(errs...)
}

// accuracy is the paper's §6.2 pair plus the bound check, over one pass of
// a fixed query set.
type accuracy struct {
	avgRelErr      float64
	effective      float64 // share of queries with relative error ≤ G0
	evaluated      int
	boundViolation float64 // share of queries whose overestimate exceeds the bound
	confidence     float64 // the weakest advertised confidence seen
}

// truthFunc returns, for query i, its full truth, a lower bound every
// sound answer must reach, and whether the full truth is exact enough for
// the error-bound check.
type truthFunc func(i int) (full, lowerBound int64, exact bool)

// accuracyPass answers qs once over one wire connection, checks every
// answer against its lower bound and scores it against its full truth.
func accuracyPass(addr string, qs []gsketch.EdgeQuery, batch int, truth truthFunc, o *oracle) (accuracy, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return accuracy{}, err
	}
	defer c.Close()
	acc := accuracy{confidence: 1}
	var sum float64
	var violations, bounded int
	var res []gsketch.Result
	for lo := 0; lo < len(qs); lo += batch {
		hi := min(lo+batch, len(qs))
		res, err = c.Query(res[:0], qs[lo:hi])
		o.ops(1)
		if err != nil {
			o.fail("accuracy batch at %d: %v", lo, err)
			return acc, err
		}
		for j, r := range res {
			i := lo + j
			t, lb, exact := truth(i)
			if r.Estimate < lb {
				o.underestimate(qs[i].Src, qs[i].Dst, r.Estimate, lb)
			}
			if exact {
				bounded++
				if float64(r.Estimate-t) > r.ErrorBound {
					violations++
				}
				acc.confidence = math.Min(acc.confidence, r.Confidence)
			}
			if t == 0 {
				continue
			}
			er := query.RelativeError(float64(r.Estimate), float64(t))
			sum += er
			if er <= query.DefaultG0 {
				acc.effective++
			}
			acc.evaluated++
		}
	}
	if acc.evaluated > 0 {
		acc.avgRelErr = sum / float64(acc.evaluated)
		acc.effective /= float64(acc.evaluated)
	}
	if bounded > 0 {
		acc.boundViolation = float64(violations) / float64(bounded)
	}
	return acc, nil
}

// recordAccuracy puts an accuracy pass into the report and checks the
// bound-violation rate against the advertised 1 - confidence.
func recordAccuracy(r *report, acc accuracy, o *oracle) {
	r.setN("avg_rel_error", acc.avgRelErr, "ratio", acc.evaluated)
	r.setN("effective_query_ratio", acc.effective, "ratio", acc.evaluated)
	r.details["bound_violation_ratio"] = acc.boundViolation
	o.check(acc.boundViolation <= 1-acc.confidence,
		"bound violation ratio %.5f exceeds 1-confidence %.5f", acc.boundViolation, 1-acc.confidence)
}

// windows is how many windows a timed phase is split into. Throughput and
// latency figures are the better quartile over the windows (quietLow,
// quietHigh), so a burst of noise from outside the run moves the windows
// it covers, not the figure.
const windows = 10

// windowed collects one timed phase window by window.
type windowed struct {
	rates      []float64
	p50s, p99s []float64
	all        samples
}

func (w *windowed) add(ops int64, elapsed time.Duration, lat samples) {
	w.rates = append(w.rates, float64(ops)/elapsed.Seconds())
	w.p50s = append(w.p50s, lat.quantile(0.5))
	if len(lat) >= minP99Samples {
		w.p99s = append(w.p99s, lat.quantile(0.99))
	}
	w.all = append(w.all, lat...)
}

// record reports the better-quartile window rate and latencies. A p99
// comes from the windows when every window supports one, else from chunks
// of minP99Samples samples in window order, and is left out below
// minP99Samples.
func (w *windowed) record(r *report, rateName, unit, latPrefix string) {
	n := len(w.all)
	r.setN(rateName, quietHigh(w.rates), unit, n)
	r.setN(latPrefix+"_p50_ms", quietLow(w.p50s), "ms", n)
	switch {
	case len(w.p99s) == len(w.rates):
		r.setN(latPrefix+"_p99_ms", quietLow(w.p99s), "ms", n)
	case n >= minP99Samples:
		r.setN(latPrefix+"_p99_ms", chunked(w.all, n/minP99Samples, 0.99), "ms", n)
	}
	r.details[rateName+"_windows"] = w.rates
	r.details[latPrefix+"_p99_windows_ms"] = w.p99s
}

// httpClient is the one HTTP client of chain-mixed.
func httpClient(maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns}}
}
