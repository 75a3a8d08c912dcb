package main

import (
	"time"

	gsketch "github.com/graphstream/gsketch"
)

// Workload names, as BENCHMARK.json and later changes refer to them.
const (
	wlIngestWire = "ingest-wire"
	wlQueryWire  = "query-wire"
	wlChainMixed = "chain-mixed"
)

var workloads = []string{wlIngestWire, wlQueryWire, wlChainMixed}

// sketchSeed is the hash seed of the reference sketch. It is fixed: the
// workload seed changes the inputs, never the sketch.
const sketchSeed = 0x6a09e667

// referenceConfig is the one sketch configuration every workload serves:
// a 2 MiB counter budget at the default depth. The budget is small next to
// the streams (about 235k distinct edges per R-MAT pass), so the
// partitioning tree splits into thousands of localized sketches; at 8 MiB
// it would stop at the root and leave routing idle.
func referenceConfig() gsketch.Config {
	return gsketch.Config{TotalBytes: 2 << 20, Seed: sketchSeed}
}

// referenceIngest is the pipeline configuration of every served engine
// (the package defaults: GOMAXPROCS workers, 1024-edge batches).
func referenceIngest() gsketch.IngestConfig { return gsketch.IngestConfig{} }

// ingestConns is the closed-loop wire connection count of the ingest
// stretches of ingest-wire and query-wire (chain-mixed ingests over one
// connection by design). One sender leaves the second CPU of a small host
// to the pipeline workers: with two, the senders race for the same queue
// slots and a frame's shed-retry rounds depend on the scheduler, which
// makes the frame latency tail follow the host rather than the program.
// Query stretches use params.conns.
const ingestConns = 1

// zipfAlpha is the query-popularity skew of query-wire (paper §6.4).
const zipfAlpha = 1.5

// layerSumSlack bounds the unattributed share of a request's round trip:
// the layer calls the traced run replays beneath a request (encode,
// loopback transport, decode, engine call, reply) must cover at least
// 1-layerSumSlack of the real round trip, and may exceed it by at most
// layerSumSlack. On a 2-CPU host a wire ingest frame leaves about 0.7 of
// its round trip to the server's stage hand-offs, which no layer call
// covers; the slack sits above that, so a new uncovered cost shows.
const layerSumSlack = 0.85

// sizes fixes the input sizes and client shape of a run. fullSizes is what
// the command runs; tinySizes keeps the package tests fast.
type sizes struct {
	// R-MAT stream of ingest-wire and query-wire.
	RMATScale int
	RMATEdges int
	// DataSample is the reservoir size of the partitioning data sample.
	DataSample int
	// Frame is the edge count of one wire ingest frame.
	Frame int
	// QueryBatch is the query count of one wire query batch.
	QueryBatch int
	// AccQueries is the size of the fixed accuracy query set.
	AccQueries int
	// WorkloadSample and ZipfQueries size query-wire's workload sample and
	// its timed query list.
	WorkloadSample int
	ZipfQueries    int

	// Carousel stream of chain-mixed.
	CarouselVertices int
	CarouselDests    int
	CarouselPhases   int
	PhaseEdges       int
	CarouselAlpha    float64
	PhaseQueries     int
	// ChainSample is the chain's data-reservoir size; ChainMaxGens the
	// generation cap (compaction folds at it); TierResident the frozen
	// generations kept in RAM.
	ChainSample  int
	ChainMaxGens int
	TierResident int
	// HTTPBatch queries per POST /query; HTTPRate batches per second of the
	// open-loop schedule.
	HTTPBatch int
	HTTPRate  float64

	// Setups is how many times set-up is repeated, half before and half
	// after the timed phase (setup_s is the median).
	Setups int
	// QueryShare is the share of each window of an R-MAT workload that goes
	// to its secondary side: queries on ingest-wire, ingest on query-wire.
	QueryShare float64
}

var fullSizes = sizes{
	RMATScale:      18,
	RMATEdges:      2_000_000,
	DataSample:     100_000,
	Frame:          4096,
	QueryBatch:     64,
	AccQueries:     65_536,
	WorkloadSample: 50_000,
	ZipfQueries:    262_144,

	CarouselVertices: 1 << 16,
	CarouselDests:    256,
	CarouselPhases:   8,
	PhaseEdges:       100_000,
	CarouselAlpha:    1.1,
	PhaseQueries:     8192,
	ChainSample:      16_384,
	ChainMaxGens:     4,
	TierResident:     1,
	HTTPBatch:        32,
	HTTPRate:         400,

	Setups:     14,
	QueryShare: 0.3,
}

var tinySizes = sizes{
	RMATScale:      16,
	RMATEdges:      200_000,
	DataSample:     20_000,
	Frame:          512,
	QueryBatch:     32,
	AccQueries:     2_000,
	WorkloadSample: 2_000,
	ZipfQueries:    8_192,

	CarouselVertices: 1 << 12,
	CarouselDests:    32,
	CarouselPhases:   4,
	PhaseEdges:       30_000,
	CarouselAlpha:    1.1,
	PhaseQueries:     512,
	ChainSample:      1024,
	ChainMaxGens:     4,
	TierResident:     1,
	HTTPBatch:        64,
	HTTPRate:         250,

	Setups:     2,
	QueryShare: 0.3,
}

// params is one invocation of the runner.
type params struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sz       sizes
	// conns is the closed-loop query client count: min(2, NumCPU).
	conns int
	// dir is this run's scratch directory (snapshots, tier files);
	// traceDir is where a traced run writes its spans.
	dir      string
	traceDir string
}
