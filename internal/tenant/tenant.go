package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/atomicfile"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Registry errors. All are matched with errors.Is.
var (
	// ErrNotFound reports an operation against a tenant that does not
	// exist (never created, or deleted).
	ErrNotFound = errors.New("tenant: not found")
	// ErrBadName reports a tenant name outside [A-Za-z0-9_-]{1,64}.
	ErrBadName = errors.New("tenant: invalid name (want [A-Za-z0-9_-]{1,64})")
	// ErrClosed reports an operation against a closed registry.
	ErrClosed = errors.New("tenant: registry is closed")
	// ErrRateLimited reports an ingest cut short by the tenant's edge-rate
	// token bucket. Like gsketch.ErrIngestQueueFull it carries
	// accepted-prefix semantics: the edges before the cut were taken.
	ErrRateLimited = errors.New("tenant: edge rate limit exceeded")
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ValidName reports whether name is a legal tenant name. The charset is
// deliberately path- and label-safe: names become snapshot directories
// and Prometheus label values verbatim.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Overrides are the per-tenant knobs an admin can set at create time
// (PUT /t/{tenant} body) — each zero value inherits the registry-wide
// default. Rate and burst apply immediately; queue depth, sketch bytes
// and seed shape the engine and take effect at the next (re)open.
type Overrides struct {
	// MaxEdgesPerSec caps the tenant's ingest rate via a token bucket
	// (negative = unlimited, overriding a registry-wide default).
	MaxEdgesPerSec float64 `json:"max_edges_per_sec,omitempty"`
	// Burst is the token bucket capacity (default: one second of rate).
	Burst int `json:"burst,omitempty"`
	// QueueDepth overrides the ingest pipeline queue bound.
	QueueDepth int `json:"queue_depth,omitempty"`
	// SketchBytes overrides the sketch memory budget.
	SketchBytes int `json:"sketch_bytes,omitempty"`
	// Seed overrides the sketch hash seed.
	Seed uint64 `json:"seed,omitempty"`
}

// Quotas are the registry-wide per-tenant defaults, overridable per
// tenant through Overrides.
type Quotas struct {
	// MaxEdgesPerSec caps each tenant's ingest rate (0 = unlimited).
	MaxEdgesPerSec float64
	// Burst is the token bucket capacity (default: one second of rate).
	Burst int
}

// DefaultSample is the bootstrap sample for tenants created without a
// registry-wide Config.Sample. Every tenant engine must snapshot (the
// evict→reopen lifecycle depends on it) and only partitioned sketches
// serialize, so a minimal one-edge sample stands in for the global
// baseline: it yields a single-partition sketch with the same CountMin
// guarantees, just no workload-aware routing.
func DefaultSample() []stream.Edge {
	return []stream.Edge{{Src: 0, Dst: 0, Weight: 1}}
}

// Config parameterizes a Registry.
type Config struct {
	// Dir is the registry root: the manifest plus one snapshot directory
	// per tenant live under it. Required.
	Dir string
	// MaxResident caps the number of tenants with a live engine; the
	// least-recently-used tenant is snapshotted to disk and closed to
	// make room (0 = unlimited).
	MaxResident int
	// Sketch is the sketch configuration every tenant engine is built
	// from (Overrides.SketchBytes/Seed refine it per tenant).
	Sketch gsketch.Config
	// Sample bootstraps each fresh tenant's partitioned sketch; with no
	// sample, tenants fall back to DefaultSample (single partition).
	Sample []stream.Edge
	// Ingest parameterizes each tenant's batch pipeline (zero value =
	// ingest package defaults; Overrides.QueueDepth refines it).
	Ingest gsketch.IngestConfig
	// Quotas are the per-tenant defaults.
	Quotas Quotas
	// Now overrides the clock, for tests.
	Now func() time.Time
	// OnReopen/OnEvict observe lifecycle latencies (engine open-on-access
	// and snapshot-to-disk eviction) — the hooks serving histograms and
	// benchmarks hang off. Called with the registry lock held; keep them
	// cheap.
	OnReopen func(time.Duration)
	OnEvict  func(time.Duration)
}

// tenant is one registered tenant. eng is nil while the tenant is
// evicted (or never yet opened); ov and eng are guarded by mu, and all
// lifecycle transitions additionally hold the registry lock.
type tenant struct {
	name string

	mu      sync.RWMutex
	eng     *gsketch.Engine
	ov      Overrides
	deleted bool

	lastUse atomic.Int64 // unix nanos of the last data-path access

	// Token bucket state, guarded by tbMu (taken only while holding
	// mu.RLock, so ov reads inside are stable).
	tbMu       sync.Mutex
	tokens     float64
	lastRefill time.Time

	edges       atomic.Int64 // edges accepted
	queries     atomic.Int64 // queries answered
	rateLimited atomic.Int64 // ingests cut short by the token bucket
}

// Registry is a lifecycle-managed set of named engines: create/delete
// administration, per-tenant quotas, and an LRU cap that snapshots cold
// tenants to disk and transparently reopens them on access. All methods
// are safe for concurrent use.
type Registry struct {
	cfg Config
	now func() time.Time

	mu       sync.Mutex // serializes lifecycle: create/delete/evict/reopen/close
	tenants  map[string]*tenant
	resident int
	closed   bool

	evictions atomic.Int64
	reopens   atomic.Int64
}

// New opens (or resumes) a registry rooted at cfg.Dir. An existing
// manifest is loaded: its tenants exist immediately but stay cold until
// first access.
func New(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, errors.New("tenant: Config.Dir is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	r := &Registry{cfg: cfg, now: cfg.Now, tenants: make(map[string]*tenant)}
	m, err := readManifest(r.manifestPath())
	if err != nil {
		return nil, err
	}
	for name, ov := range m.Tenants {
		if !ValidName(name) {
			return nil, fmt.Errorf("%w: %q in manifest", ErrBadName, name)
		}
		r.tenants[name] = r.newTenant(name, ov)
	}
	return r, nil
}

func (r *Registry) newTenant(name string, ov Overrides) *tenant {
	t := &tenant{name: name, ov: ov, lastRefill: r.now()}
	t.tokens = float64(r.burst(ov))
	t.lastUse.Store(r.now().UnixNano())
	return t
}

// rate resolves a tenant's effective edge rate: the override, or the
// registry default; <= 0 means unlimited.
func (r *Registry) rate(ov Overrides) float64 {
	if ov.MaxEdgesPerSec != 0 {
		return ov.MaxEdgesPerSec
	}
	return r.cfg.Quotas.MaxEdgesPerSec
}

func (r *Registry) burst(ov Overrides) int {
	if ov.Burst > 0 {
		return ov.Burst
	}
	if r.cfg.Quotas.Burst > 0 {
		return r.cfg.Quotas.Burst
	}
	// Default: one second of the effective rate.
	if rate := r.rate(ov); rate > 0 {
		return int(rate)
	}
	return 0
}

func (r *Registry) manifestPath() string { return filepath.Join(r.cfg.Dir, "manifest.json") }

// SnapshotFile is the snapshot location of the named tenant.
func (r *Registry) SnapshotFile(name string) string {
	return filepath.Join(r.cfg.Dir, name, "gsketch.snap")
}

// manifest is the on-disk tenant catalog, written atomically on every
// create/delete so a restart resumes the same tenant set.
type manifest struct {
	Schema  int                  `json:"schema"`
	Tenants map[string]Overrides `json:"tenants"`
}

func readManifest(path string) (manifest, error) {
	m := manifest{Schema: 1, Tenants: map[string]Overrides{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("tenant: manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("tenant: manifest: %w", err)
	}
	if m.Schema != 1 {
		return m, fmt.Errorf("tenant: manifest schema %d unsupported", m.Schema)
	}
	if m.Tenants == nil {
		m.Tenants = map[string]Overrides{}
	}
	return m, nil
}

// writeManifestLocked persists the tenant catalog atomically. Caller
// holds r.mu.
func (r *Registry) writeManifestLocked() error {
	m := manifest{Schema: 1, Tenants: make(map[string]Overrides, len(r.tenants))}
	for name, t := range r.tenants {
		m.Tenants[name] = t.ov
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(r.manifestPath(), 0o600, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// Create registers a tenant (idempotently: re-creating an existing one
// updates its overrides instead) and persists the manifest. The engine
// is not built here — tenants open lazily on first access.
func (r *Registry) Create(name string, ov Overrides) (created bool, err error) {
	if !ValidName(name) {
		return false, ErrBadName
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, ErrClosed
	}
	if t := r.tenants[name]; t != nil {
		t.mu.Lock()
		t.ov = ov
		t.mu.Unlock()
		return false, r.writeManifestLocked()
	}
	if err := os.MkdirAll(filepath.Join(r.cfg.Dir, name), 0o755); err != nil {
		return false, fmt.Errorf("tenant: %w", err)
	}
	r.tenants[name] = r.newTenant(name, ov)
	return true, r.writeManifestLocked()
}

// Delete drops a tenant: its engine (if resident) is closed without a
// final snapshot, its snapshot directory is removed, and the manifest
// is rewritten. In-flight requests holding the tenant's handle fail
// with ErrNotFound from then on.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	t := r.tenants[name]
	if t == nil {
		return ErrNotFound
	}
	t.mu.Lock()
	t.deleted = true
	eng := t.eng
	t.eng = nil
	t.mu.Unlock()
	if eng != nil {
		_ = eng.Close()
		r.resident--
	}
	delete(r.tenants, name)
	if err := os.RemoveAll(filepath.Join(r.cfg.Dir, name)); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	return r.writeManifestLocked()
}

// Tenant returns a Backend-shaped handle on the named tenant, or
// ErrNotFound. The handle stays valid across evictions (access reopens
// the engine transparently) and fails with ErrNotFound after a delete.
func (r *Registry) Tenant(name string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	t := r.tenants[name]
	if t == nil {
		return nil, ErrNotFound
	}
	return &Handle{r: r, t: t}, nil
}

// Info is one tenant's administrative view.
type Info struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	// StreamTotal/QueueDepth are live engine gauges, zero while evicted
	// (the state is on disk, not gone).
	StreamTotal int64 `json:"stream_total"`
	QueueDepth  int   `json:"queue_depth"`
	// EdgesAccepted/Queries/RateLimited are cumulative since the registry
	// opened (they survive evictions, not restarts).
	EdgesAccepted int64     `json:"edges_accepted"`
	Queries       int64     `json:"queries"`
	RateLimited   int64     `json:"rate_limited"`
	LastUse       time.Time `json:"last_use"`
	Overrides     Overrides `json:"overrides"`
}

func (r *Registry) infoLocked(t *tenant) Info {
	in := Info{
		Name:          t.name,
		Resident:      t.eng != nil,
		EdgesAccepted: t.edges.Load(),
		Queries:       t.queries.Load(),
		RateLimited:   t.rateLimited.Load(),
		LastUse:       time.Unix(0, t.lastUse.Load()),
		Overrides:     t.ov,
	}
	if t.eng != nil {
		in.StreamTotal = t.eng.Estimator().Count()
		if is := t.eng.IngestStats(); is != nil {
			in.QueueDepth = is.QueueDepth
		}
	}
	return in
}

// Get returns one tenant's Info, or ErrNotFound.
func (r *Registry) Get(name string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[name]
	if t == nil {
		return Info{}, ErrNotFound
	}
	return r.infoLocked(t), nil
}

// List returns every tenant's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, r.infoLocked(t))
	}
	sortInfos(out)
	return out
}

func sortInfos(in []Info) {
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].Name < in[j-1].Name; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
}

// Stats is the registry-level gauge snapshot.
type Stats struct {
	Tenants   int   `json:"tenants"`
	Resident  int   `json:"resident"`
	Evictions int64 `json:"evictions"`
	Reopens   int64 `json:"reopens"`
}

// AddObservers chains lifecycle observers onto the registry after
// construction — the server attaches its latency histograms here
// without owning the Config. Like the Config hooks, the observers run
// with the registry lock held; keep them cheap.
func (r *Registry) AddObservers(onReopen, onEvict func(time.Duration)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if onReopen != nil {
		if prev := r.cfg.OnReopen; prev != nil {
			r.cfg.OnReopen = func(d time.Duration) { prev(d); onReopen(d) }
		} else {
			r.cfg.OnReopen = onReopen
		}
	}
	if onEvict != nil {
		if prev := r.cfg.OnEvict; prev != nil {
			r.cfg.OnEvict = func(d time.Duration) { prev(d); onEvict(d) }
		} else {
			r.cfg.OnEvict = onEvict
		}
	}
}

// RegistryStats reports the registry-level gauges.
func (r *Registry) RegistryStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Tenants:   len(r.tenants),
		Resident:  r.resident,
		Evictions: r.evictions.Load(),
		Reopens:   r.reopens.Load(),
	}
}

// Close snapshots every resident tenant to its directory and closes the
// engines. Later data-path access fails with ErrClosed.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var firstErr error
	for _, t := range r.tenants {
		t.mu.Lock()
		if t.eng != nil {
			if _, err := t.eng.SaveSnapshot(""); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := t.eng.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			t.eng = nil
			r.resident--
		}
		t.mu.Unlock()
	}
	return firstErr
}

// openEngine builds the named tenant's engine: restored from its
// snapshot when one exists (the evict→reopen path), bootstrapped fresh
// otherwise. Caller holds r.mu.
func (r *Registry) openEngine(t *tenant) (*gsketch.Engine, error) {
	cfg := r.cfg.Sketch
	if t.ov.SketchBytes > 0 {
		cfg.TotalBytes = t.ov.SketchBytes
		cfg.TotalWidth = 0
	}
	if t.ov.Seed != 0 {
		cfg.Seed = t.ov.Seed
	}
	ing := r.cfg.Ingest
	if t.ov.QueueDepth > 0 {
		ing.QueueDepth = t.ov.QueueDepth
	}
	snap := r.SnapshotFile(t.name)
	opts := []gsketch.Option{
		gsketch.WithIngest(ing),
		gsketch.WithSnapshotFile(snap),
	}
	switch _, err := os.Stat(snap); {
	case err == nil:
		opts = append(opts, gsketch.WithRestoreFile(snap))
	case len(r.cfg.Sample) > 0:
		opts = append(opts, gsketch.WithSample(r.cfg.Sample))
	default:
		opts = append(opts, gsketch.WithSample(DefaultSample()))
	}
	eng, err := gsketch.Open(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", t.name, err)
	}
	return eng, nil
}

// reopen makes t resident: evicts LRU tenants past the cap, then opens
// t's engine. It is the slow path of every data-path access to a cold
// tenant; r.mu serializes it against all other lifecycle changes.
func (r *Registry) reopen(t *tenant) error {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	// t.eng and t.deleted only change under r.mu, which we hold.
	if t.deleted {
		return ErrNotFound
	}
	if t.eng != nil {
		return nil // lost the race to another reopener; fine
	}
	if err := r.makeRoomLocked(); err != nil {
		return err
	}
	eng, err := r.openEngine(t)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.eng = eng
	t.mu.Unlock()
	r.resident++
	r.reopens.Add(1)
	if r.cfg.OnReopen != nil {
		r.cfg.OnReopen(r.now().Sub(start))
	}
	return nil
}

// makeRoomLocked evicts least-recently-used resident tenants until the
// cap admits one more. Caller holds r.mu.
func (r *Registry) makeRoomLocked() error {
	max := r.cfg.MaxResident
	if max <= 0 {
		return nil
	}
	for r.resident >= max {
		var victim *tenant
		for _, t := range r.tenants {
			if t.eng == nil {
				continue
			}
			if victim == nil || t.lastUse.Load() < victim.lastUse.Load() {
				victim = t
			}
		}
		if victim == nil {
			return nil // resident count and map disagree; do not loop forever
		}
		if err := r.evictLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// evictLocked snapshots a resident tenant to its directory and closes
// the engine. The tenant's write lock is held across the save, so no
// request can observe a half-closed engine. Caller holds r.mu.
func (r *Registry) evictLocked(t *tenant) error {
	start := r.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.eng == nil {
		return nil
	}
	if _, err := t.eng.SaveSnapshot(""); err != nil {
		// Keep the tenant resident: losing its state to free memory is
		// the wrong trade.
		return fmt.Errorf("tenant %s: evict snapshot: %w", t.name, err)
	}
	err := t.eng.Close()
	t.eng = nil
	r.resident--
	r.evictions.Add(1)
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(r.now().Sub(start))
	}
	if err != nil {
		return fmt.Errorf("tenant %s: evict close: %w", t.name, err)
	}
	return nil
}

// take grants up to n edge tokens from the tenant's bucket, refilling
// by elapsed time first. Called with t.mu read-held (ov is stable).
func (t *tenant) take(r *Registry, n int) int {
	rate := r.rate(t.ov)
	if rate <= 0 {
		return n
	}
	burst := float64(r.burst(t.ov))
	now := r.now()
	t.tbMu.Lock()
	defer t.tbMu.Unlock()
	if elapsed := now.Sub(t.lastRefill).Seconds(); elapsed > 0 {
		t.tokens = minF(burst, t.tokens+elapsed*rate)
	}
	t.lastRefill = now
	grant := n
	if g := int(t.tokens); g < grant {
		grant = g
	}
	t.tokens -= float64(grant)
	return grant
}

// refund returns tokens the engine shed after the bucket granted them,
// so engine backpressure does not double-charge the quota.
func (t *tenant) refund(r *Registry, n int) {
	if n <= 0 {
		return
	}
	burst := float64(r.burst(t.ov))
	t.tbMu.Lock()
	t.tokens = minF(burst, t.tokens+float64(n))
	t.tbMu.Unlock()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Handle is one tenant's serving surface — it implements the server's
// Backend interface, so every endpoint and wire frame the server maps
// onto a Backend works per-tenant unchanged. Operations on an evicted
// tenant transparently reopen it (evicting an LRU peer if the registry
// is at its resident cap).
type Handle struct {
	r *Registry
	t *tenant
}

// Name returns the tenant's name.
func (h *Handle) Name() string { return h.t.name }

// withEngine runs fn against the tenant's live engine, reopening it
// first if evicted. The tenant read lock is held across fn, so an
// eviction (which takes the write lock) cannot close the engine under
// a request.
func (h *Handle) withEngine(fn func(*gsketch.Engine) error) error {
	t := h.t
	for {
		t.mu.RLock()
		if t.deleted {
			t.mu.RUnlock()
			return ErrNotFound
		}
		if t.eng != nil {
			t.lastUse.Store(h.r.now().UnixNano())
			err := fn(t.eng)
			t.mu.RUnlock()
			return err
		}
		t.mu.RUnlock()
		if err := h.r.reopen(t); err != nil {
			return err
		}
	}
}

// TryIngest offers edges without blocking, charging the tenant's token
// bucket first: the granted prefix goes to the engine, engine-shed
// tokens are refunded, and a bucket cut surfaces as ErrRateLimited with
// the accepted prefix (the engine's own queue-full keeps its
// gsketch.ErrIngestQueueFull identity).
func (h *Handle) TryIngest(edges []stream.Edge) (int, error) {
	var accepted int
	err := h.withEngine(func(eng *gsketch.Engine) error {
		granted := h.t.take(h.r, len(edges))
		var err error
		accepted, err = eng.TryIngest(edges[:granted])
		if accepted < granted {
			h.t.refund(h.r, granted-accepted)
		}
		h.t.edges.Add(int64(accepted))
		if err != nil {
			return err
		}
		if granted < len(edges) {
			h.t.rateLimited.Add(1)
			return ErrRateLimited
		}
		return nil
	})
	return accepted, err
}

// QueryBatch answers edge queries against the tenant's engine.
func (h *Handle) QueryBatch(qs []core.EdgeQuery) ([]core.Result, error) {
	var rs []core.Result
	err := h.withEngine(func(eng *gsketch.Engine) error {
		rs = eng.QueryBatch(qs)
		h.t.queries.Add(int64(len(qs)))
		return nil
	})
	return rs, err
}

// Drain waits, bounded by ctx, until the tenant's accepted edges are
// applied.
func (h *Handle) Drain(ctx context.Context) error {
	return h.withEngine(func(eng *gsketch.Engine) error { return eng.Drain(ctx) })
}

// SaveSnapshot persists the tenant's sketch (path empty = its
// registry-assigned snapshot file).
func (h *Handle) SaveSnapshot(path string) (int64, error) {
	var n int64
	err := h.withEngine(func(eng *gsketch.Engine) error {
		var err error
		n, err = eng.SaveSnapshot(path)
		return err
	})
	return n, err
}

// RestoreSnapshot swaps the tenant's state in from disk.
func (h *Handle) RestoreSnapshot(path string) error {
	return h.withEngine(func(eng *gsketch.Engine) error { return eng.RestoreSnapshot(path) })
}

// SnapshotPath is the tenant's snapshot file under the registry tree.
func (h *Handle) SnapshotPath() string { return h.r.SnapshotFile(h.t.name) }

// Generations counts the tenant's sketch generations (reopening it if
// evicted).
func (h *Handle) Generations() int {
	gens := 1
	_ = h.withEngine(func(eng *gsketch.Engine) error {
		gens = eng.Generations()
		return nil
	})
	return gens
}

// Health reports the tenant's liveness gauges (reopening it if
// evicted — a health probe is an access like any other).
func (h *Handle) Health() (streamTotal int64, queueDepth, generations int) {
	generations = 1
	_ = h.withEngine(func(eng *gsketch.Engine) error {
		streamTotal = eng.Estimator().Count()
		if is := eng.IngestStats(); is != nil {
			queueDepth = is.QueueDepth
		}
		generations = eng.Generations()
		return nil
	})
	return streamTotal, queueDepth, generations
}

// Close is a no-op: tenant lifecycle belongs to the Registry (the
// server shuts the registry down, not individual handles).
func (h *Handle) Close() error { return nil }
