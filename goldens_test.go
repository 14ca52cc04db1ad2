package lca_test

// Cross-backend determinism goldens: one spec + seed must yield
// byte-identical answers no matter which backend answers the probes —
// implicit in-process, cold CSR from disk, a remote shard over HTTP, or a
// consistent-hashed fleet of shards. This is the property that lets a
// deployment move a graph between RAM, disk and the network without the
// served solution shifting underneath its users.

import (
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"lca"
	"lca/internal/attest"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/source"
)

// corruptReplica serves one attested replica whose neighbor answers are
// rotated one vertex forward once lying is switched on, while degrees,
// the commitment and row proofs stay honest — a Byzantine shard, not a
// broken one.
type corruptReplica struct {
	att   *source.Attested
	lying atomic.Bool
}

func (c *corruptReplica) N() int           { return c.att.N() }
func (c *corruptReplica) Degree(v int) int { return c.att.Degree(v) }

func (c *corruptReplica) Neighbor(v, i int) int {
	w := c.att.Neighbor(v, i)
	if c.lying.Load() && w >= 0 {
		return (w + 1) % c.att.N()
	}
	return w
}

func (c *corruptReplica) Adjacency(u, v int) int { return c.att.Adjacency(u, v) }

func (c *corruptReplica) Commitment() attest.Root { return c.att.Commitment() }

func (c *corruptReplica) ProveRow(v int) ([]int, []string) { return c.att.ProveRow(v) }

// answerDigest queries mis (vertex), spanner3 (edge) and coloring (label)
// point-wise over a deterministic sample and hashes the transcript. With
// prefetch, the session explores neighborhoods through the batching
// oracle — the digest must not move: prefetching changes transport, never
// answers.
func answerDigest(t *testing.T, src lca.Source, prefetch bool, extra ...lca.SessionOption) string {
	t.Helper()
	opts := append([]lca.SessionOption{lca.WithSeed(42), lca.WithPrefetch(prefetch)}, extra...)
	s := lca.NewSessionFromSource(src, opts...)
	defer s.Close()
	n := src.N()
	transcript := ""
	for i := 0; i < 60; i++ {
		v := (i * 977) % n
		in, err := s.Vertex("mis", v)
		if err != nil {
			t.Fatalf("mis(%d): %v", v, err)
		}
		label, err := s.Label("coloring", v)
		if err != nil {
			t.Fatalf("coloring(%d): %v", v, err)
		}
		transcript += fmt.Sprintf("v%d:%v c%d;", v, in, label)
		if w := src.Neighbor(v, 0); w >= 0 {
			in, err := s.Edge("spanner3", v, w)
			if err != nil {
				t.Fatalf("spanner3(%d,%d): %v", v, w, err)
			}
			transcript += fmt.Sprintf("e%d-%d:%v;", v, w, in)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(transcript)))
}

func TestCrossBackendDeterminismGoldens(t *testing.T) {
	const spec = "circulant:n=500,d=6,seed=11"
	implicit, err := lca.OpenSource(spec, 7)
	if err != nil {
		t.Fatal(err)
	}

	// The same graph saved cold: CSR written by probing the implicit
	// source (both fix the ascending adjacency order).
	csrPath := filepath.Join(t.TempDir(), "g.csr")
	f, err := os.Create(csrPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSRStream(f, implicit.N(), implicit.Degree, implicit.Neighbor); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Two HTTP shards, each wrapping its own replica of the implicit
	// source.
	shardFor := func() *httptest.Server {
		replica, err := lca.OpenSource(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(source.NewProbeHandler(replica))
		t.Cleanup(ts.Close)
		return ts
	}
	shardA, shardB := shardFor(), shardFor()

	backends := []struct {
		name string
		spec string
	}{
		{"implicit", spec},
		{"csr", "csr:" + csrPath},
		// On platforms without mmap the spec knob degrades to the cold
		// reader, so this row still pins the fallback's answers.
		{"csr-mmap", "csr:" + csrPath + "?mmap=1"},
		{"remote", "remote:" + shardA.URL},
		{"sharded-x2", "sharded:remote:" + shardA.URL + ",remote:" + shardB.URL},
		// Adaptive hedging tunes when the secondary is raced, never what
		// either replica answers; the digest must not move.
		{"sharded-x2-adaptive", "sharded:remote:" + shardA.URL + ";remote:" + shardB.URL + ";hedge=adaptive"},
		{"sharded-x2-adaptive-bounded", "sharded:remote:" + shardA.URL + ";remote:" + shardB.URL + ";hedge=adaptive;hedgefloor=2ms;hedgeceil=20ms"},
	}
	digests := map[string]string{}
	for _, b := range backends {
		for _, prefetch := range []bool{false, true} {
			name := b.name
			if prefetch {
				name += "+prefetch"
			}
			src, err := lca.OpenSource(b.spec, 7)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests[name] = answerDigest(t, src, prefetch)
		}
	}
	// Tiered goldens: the same backends routed through the session's row
	// caches (L1 arena store + shared bounded L2). Caches serve memoized
	// rows of a fixed graph, so every digest must stay on the golden — with
	// and without prefetch stacked above the tier.
	for _, b := range []struct {
		name string
		spec string
	}{
		{"implicit-tiered", spec},
		{"csr-tiered", "csr:" + csrPath},
		{"csr-mmap-tiered", "csr:" + csrPath + "?mmap=1"},
		{"sharded-x2-tiered", "sharded:remote:" + shardA.URL + ";remote:" + shardB.URL},
	} {
		for _, prefetch := range []bool{false, true} {
			name := b.name
			if prefetch {
				name += "+prefetch"
			}
			src, err := lca.OpenSource(b.spec, 7)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests[name] = answerDigest(t, src, prefetch, lca.WithRowCache(128))
		}
	}

	// Failover golden: a sharded fleet with one of its two replicas killed
	// mid-session must keep answering byte-identically to the healthy
	// cluster — replicas are interchangeable, so the survivor serves the
	// dead shard's keys. The sources are opened while both replicas are up
	// (construction validates every shard), then the replica dies.
	shardC, shardD := shardFor(), shardFor()
	deadSpec := "sharded:remote:" + shardC.URL + ";remote:" + shardD.URL + ";hedge=50ms"
	deadScalar, err := lca.OpenSource(deadSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	deadPrefetch, err := lca.OpenSource(deadSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	shardD.Close()
	digests["sharded-x2-deadshard"] = answerDigest(t, deadScalar, false)
	digests["sharded-x2-deadshard+prefetch"] = answerDigest(t, deadPrefetch, true)

	// Byzantine golden: a pinned fleet with one replica returning corrupted
	// answers must keep answering byte-identically to the healthy cluster —
	// the lying replica's answers fail proof verification, the fleet routes
	// around it, and the corruption is visible only as attest_failures.
	attestedReplica := func() *source.Attested {
		replica, err := lca.OpenSource(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		return source.NewAttested(replica)
	}
	honestAtt := attestedReplica()
	corrupt := &corruptReplica{att: attestedReplica()}
	root := honestAtt.Commitment().String()
	tsHonest := httptest.NewServer(source.NewProbeHandler(honestAtt))
	t.Cleanup(tsHonest.Close)
	tsCorrupt := httptest.NewServer(source.NewProbeHandler(corrupt))
	t.Cleanup(tsCorrupt.Close)
	byzSpec := "sharded:remote:" + tsHonest.URL + "#root=" + root + ";remote:" + tsCorrupt.URL + "#root=" + root + ";hedge=50ms"
	byzScalar, err := lca.OpenSource(byzSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	byzPrefetch, err := lca.OpenSource(byzSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	corrupt.lying.Store(true)
	digests["sharded-x2-byzantine"] = answerDigest(t, byzScalar, false)
	digests["sharded-x2-byzantine+prefetch"] = answerDigest(t, byzPrefetch, true)
	byzFails := byzScalar.(source.AttestCounter).AttestFailures() +
		byzPrefetch.(source.AttestCounter).AttestFailures()
	if byzFails == 0 {
		t.Error("byzantine goldens matched without a single attest failure: the corrupted replica was never probed")
	}

	golden := digests["implicit"]
	for name, d := range digests {
		if d != golden {
			t.Errorf("backend %s digest %s differs from implicit %s: the same spec+seed must answer byte-identically", name, d, golden)
		}
	}
}

// denseSpannerDigest queries spanner3 and spanner5 through s on a fixed
// sample of g's edges and hashes each answer together with the probes it
// cost.
func denseSpannerDigest(t *testing.T, s *lca.Session, g *graph.Graph) string {
	t.Helper()
	defer s.Close()
	h := sha256.New()
	for i := 0; i < 24; i++ {
		u := (i * 577) % g.N()
		d := g.Degree(u)
		if d == 0 {
			continue
		}
		v := g.Neighbor(u, (i*131)%d)
		for _, algo := range []string{"spanner3", "spanner5"} {
			before, err := s.ProbeStats(algo)
			if err != nil {
				t.Fatal(err)
			}
			in, err := s.Edge(algo, u, v)
			if err != nil {
				t.Fatalf("%s(%d,%d): %v", algo, u, v, err)
			}
			after, _ := s.ProbeStats(algo)
			fmt.Fprintf(h, "%s %d-%d:%v %d;", algo, u, v, in, after.Total()-before.Total())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDenseSpannerGolden pins the spanners' dense regime on a shuffled
// mmap CSR file. Every degree of Gnp(2000, 0.1) is far above sqrt(n), so
// queries leave E_low and reach the cluster scans of scanPart.scanKeep,
// whose Adjacency probes are linear scans of the unsorted rows. Answers
// and per-query probe counts must match the recorded digest and a
// Session over the same graph in memory.
func TestDenseSpannerGolden(t *testing.T) {
	const golden = "4ef26636f3077728134058336838276494caa95b1402a46801eabafb1599efd4"
	g := gen.Gnp(2000, 0.1, 17)
	path := filepath.Join(t.TempDir(), "dense.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := lca.OpenSource("csr:"+path+"?mmap=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := src.(*source.CSRMmap); ok && m.Sorted() {
		t.Fatal("Gnp wrote sorted rows; the golden must cover the unsorted scan")
	}
	mmap := denseSpannerDigest(t, lca.NewSessionFromSource(src, lca.WithSeed(42)), g)
	mem := denseSpannerDigest(t, lca.NewSession(g, lca.WithSeed(42)), g)
	if mmap != mem {
		t.Errorf("mmap CSR digest %s differs from in-memory %s", mmap, mem)
	}
	if mmap != golden {
		t.Errorf("dense spanner digest %s, want golden %s", mmap, golden)
	}
}
