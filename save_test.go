package gsketch_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
)

var saveTestCfg = gsketch.Config{TotalBytes: 64 << 10, Seed: 7}

// buildPopulated returns a populated engine plus the stream that fed it.
func buildPopulated(t *testing.T) (*gsketch.Engine, []gsketch.Edge) {
	t.Helper()
	edges := synthetic(20_000)
	eng, err := gsketch.Open(saveTestCfg, gsketch.WithSample(edges[:2000]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	return eng, edges
}

// TestSaveLoadRoundTripThroughFacade: Save an engine, Open a new one from
// the snapshot, and require QueryBatch to answer byte-identically —
// estimates, partitions, bounds, confidences and stream totals all equal.
func TestSaveLoadRoundTripThroughFacade(t *testing.T) {
	eng, edges := buildPopulated(t)

	var buf bytes.Buffer
	n, err := eng.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}

	restored, err := gsketch.Open(saveTestCfg, gsketch.WithRestore(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	qs := make([]gsketch.EdgeQuery, 0, 1000)
	for i := 0; i < 1000; i++ {
		qs = append(qs, gsketch.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	// One absent edge so the outlier path round-trips too.
	qs = append(qs, gsketch.EdgeQuery{Src: 1 << 60, Dst: 2})

	want := eng.QueryBatch(qs)
	got := restored.QueryBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v != live %+v", i, got[i], want[i])
		}
	}

	// A second Save of the restored engine must reproduce the same bytes —
	// the serialization is canonical.
	var buf2 bytes.Buffer
	if _, err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-stable")
	}
}

// TestChainRoundTripThroughFacade: a chain repartitioned mid-stream saves
// whole and reopens as an adaptive engine with identical answers; a plain
// pre-chain snapshot reopens as a one-generation chain.
func TestChainRoundTripThroughFacade(t *testing.T) {
	edges := synthetic(20_000)
	g, err := core.BuildGSketch(saveTestCfg, edges[:2000], nil)
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := g.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	chain := adapt.NewChain(g, gsketch.ChainConfig{SampleSize: 1024, Seed: 3})
	core.Populate(chain, edges[:10_000])
	if _, err := adapt.Repartition(chain, gsketch.Config{TotalBytes: 64 << 10, Seed: 8}, edges[:200]); err != nil {
		t.Fatal(err)
	}
	core.Populate(chain, edges[10_000:])
	if chain.Generations() != 2 {
		t.Fatalf("generations = %d, want 2", chain.Generations())
	}

	var buf bytes.Buffer
	if _, err := chain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := gsketch.Open(saveTestCfg,
		gsketch.WithRestore(bytes.NewReader(buf.Bytes())),
		gsketch.WithAdaptive(chain.Config(), gsketch.AdaptConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Generations() != 2 {
		t.Fatalf("restored generations = %d, want 2", restored.Generations())
	}
	qs := make([]gsketch.EdgeQuery, 0, 500)
	for i := 0; i < 500; i++ {
		qs = append(qs, gsketch.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	want := chain.EstimateBatch(qs)
	got := restored.QueryBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v != live %+v", i, got[i], want[i])
		}
	}

	single, err := gsketch.Open(saveTestCfg,
		gsketch.WithRestore(bytes.NewReader(plain.Bytes())),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if single.Generations() != 1 {
		t.Fatalf("pre-chain snapshot opened as %d generations", single.Generations())
	}
}

// TestSaveRejectsUnserializableEstimator checks the typed failure instead
// of a garbage write.
func TestSaveRejectsUnserializableEstimator(t *testing.T) {
	eng, err := gsketch.Open(gsketch.Config{TotalWidth: 256, Seed: 1}, gsketch.WithGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Save(io.Discard); err == nil {
		t.Fatal("global baseline saved unexpectedly")
	}
}

// TestLoadRejectsCorruptInput drives the error paths of the deserializer:
// truncations at every prefix length and flipped bytes must fail Open
// loudly, never hand back a silently wrong engine.
func TestLoadRejectsCorruptInput(t *testing.T) {
	eng, _ := buildPopulated(t)
	var buf bytes.Buffer
	if _, err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	open := func(b []byte) error {
		e, err := gsketch.Open(saveTestCfg, gsketch.WithRestore(bytes.NewReader(b)))
		if err == nil {
			e.Close()
		}
		return err
	}

	if err := open(nil); err == nil {
		t.Fatal("empty input loaded")
	}
	// Truncations: sample prefix lengths across the blob (every byte would
	// be slow at this size).
	for cut := 1; cut < len(blob); cut += 1 + len(blob)/257 {
		if err := open(blob[:cut]); err == nil {
			t.Fatalf("truncated input (%d of %d bytes) loaded", cut, len(blob))
		}
	}
	// Header corruptions: magic and version.
	for _, off := range []int{0, 4} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0xff
		if err := open(bad); err == nil {
			t.Fatalf("corrupt byte at offset %d loaded", off)
		}
	}
	// Counter corruption must be caught by the per-sketch checksum.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if err := open(bad); err == nil {
		t.Fatal("corrupt counter payload loaded")
	}
}
