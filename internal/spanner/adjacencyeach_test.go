package spanner

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/rnd"
	"lca/internal/source"
)

// siteGraph is a graph with the oracle.AdjacencyScanner op, answered by
// its own Adjacency. It numbers every probe it serves, and records which
// scan site called the op and which probe numbers a scan asked.
type siteGraph struct {
	*graph.Graph
	probes  int
	opCalls map[string]int // by scan site
	scanAt  []int          // probe numbers asked by cover or firstBucketEdge
}

func newSiteGraph(g *graph.Graph) *siteGraph {
	return &siteGraph{Graph: g, opCalls: map[string]int{}}
}

func (g *siteGraph) Degree(v int) int {
	g.probes++
	return g.Graph.Degree(v)
}

func (g *siteGraph) Neighbor(v, i int) int {
	g.probes++
	return g.Graph.Neighbor(v, i)
}

func (g *siteGraph) Adjacency(u, v int) int {
	g.probes++
	if callerIn("cover", "firstBucketEdge") != "" {
		g.scanAt = append(g.scanAt, g.probes)
	}
	return g.Graph.Adjacency(u, v)
}

func (g *siteGraph) AdjacencyEach(u int, vs, idx []int, first bool) int {
	g.opCalls[callerIn("scanKeep", "repScan", "firstBucketEdge")]++
	for k, v := range vs {
		idx[k] = g.Adjacency(u, v)
		if first && idx[k] >= 0 {
			return k + 1
		}
	}
	return len(vs)
}

// callerIn returns the first of the named spanner methods on the calling
// goroutine's stack, or "".
func callerIn(names ...string) string {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		for _, name := range names {
			if strings.HasSuffix(f.Function, "."+name) {
				return name
			}
		}
		if !more {
			return ""
		}
	}
}

// scalarView hides CSRMmap's AdjacencyEach and keeps its locality
// counters, so a chain over it probes the mapping one Adjacency at a
// time.
type scalarView struct {
	source.Source
	source.LocalityReporter
}

// edgeLCA is the part of a spanner the differential test drives.
type edgeLCA interface {
	QueryEdge(u, v int) bool
	ProbeStats() oracle.Stats
}

var eachBuilders = []struct {
	name  string
	build func(o oracle.Oracle) edgeLCA
}{
	{"spanner3", func(o oracle.Oracle) edgeLCA { return NewSpanner3(o, 5) }},
	{"spanner5", func(o oracle.Oracle) edgeLCA { return NewSpanner5(o, 5) }},
	{"super", func(o oracle.Oracle) edgeLCA { return NewSuperSpanner(o, 2, 5, Config{}) }},
}

// eachGraphs have degrees inside H_high's scanner range (mid) and inside
// the 5-spanner's band, where its bucket and representative rules run
// (dense).
func eachGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"mid":   gen.Gnp(512, 0.12, 3),
		"dense": gen.Gnp(512, 10/math.Pow(512, 0.55), 512),
	}
}

// query answers one edge and returns the answer and the probe stats it
// cost.
func query(l edgeLCA, u, v int) (bool, oracle.Stats) {
	before := l.ProbeStats()
	in := l.QueryEdge(u, v)
	return in, l.ProbeStats().Sub(before)
}

// TestSpannersAdjacencyEachDifferential: the 3-spanner, the 5-spanner and
// SuperSpanner give every query the same answer and the same Stats over
// an oracle with the AdjacencyEach op as over the plain graph, and over
// the mmap CSR source as over a view of it without the op (locality
// counts included). All three scan sites (scanKeep, repScan,
// firstBucketEdge) must have used the op.
func TestSpannersAdjacencyEachDifferential(t *testing.T) {
	sites := map[string]int{}
	for gname, g := range eachGraphs() {
		path := filepath.Join(t.TempDir(), gname+".csr")
		writeCSR(t, path, g)
		edges := g.Edges()
		for _, b := range eachBuilders {
			t.Run(gname+"/"+b.name, func(t *testing.T) {
				sg := newSiteGraph(g)
				plain, each := b.build(oracle.New(g)), b.build(sg)
				var mm, mmScalar edgeLCA
				if c, s := openMmap(t, path), openMmap(t, path); c != nil {
					mm, mmScalar = b.build(c), b.build(scalarView{s, s})
				}
				prg := rnd.NewPRG(rnd.Seed(len(edges)))
				for i := 0; i < 40; i++ {
					e := edges[prg.Intn(len(edges))]
					in, st := query(plain, e.U, e.V)
					if in2, st2 := query(each, e.U, e.V); in2 != in || st2 != st {
						t.Fatalf("(%d,%d): op %v %+v, plain %v %+v", e.U, e.V, in2, st2, in, st)
					}
					if mm == nil {
						continue
					}
					in3, st3 := query(mm, e.U, e.V)
					in4, st4 := query(mmScalar, e.U, e.V)
					if in3 != in || in4 != in || st3 != st4 || st3.Adjacency != st.Adjacency || st3.Total() != st.Total() {
						t.Fatalf("(%d,%d): mmap %v %+v, mmap scalar %v %+v, plain %v %+v", e.U, e.V, in3, st3, in4, st4, in, st)
					}
				}
				for site, n := range sg.opCalls {
					sites[site] += n
				}
			})
		}
	}
	for _, site := range []string{"scanKeep", "repScan", "firstBucketEdge"} {
		if sites[site] == 0 {
			t.Errorf("no AdjacencyEach call from %s (calls by site: %v)", site, sites)
		}
	}
	if sites[""] != 0 {
		t.Errorf("%d AdjacencyEach calls from outside the three scan sites", sites[""])
	}
}

// TestSpannersAdjacencyEachBudget: under a LimitOracle whose budget runs
// out inside a scan (at a probe that cover or firstBucketEdge asks), a
// spanner over an oracle with the op raises the same ErrBudgetExceeded at
// the same Used(), with the same Stats, as over the plain graph.
func TestSpannersAdjacencyEachBudget(t *testing.T) {
	for gname, g := range eachGraphs() {
		edges := g.Edges()
		for _, b := range eachBuilders {
			t.Run(gname+"/"+b.name, func(t *testing.T) {
				prg := rnd.NewPRG(rnd.Seed(len(edges) + 1))
				tried := 0
				for i := 0; i < 40 && tried < 5; i++ {
					e := edges[prg.Intn(len(edges))]
					probe := newSiteGraph(g)
					b.build(probe).QueryEdge(e.U, e.V)
					if len(probe.scanAt) == 0 {
						continue
					}
					tried++
					budget := uint64(probe.scanAt[len(probe.scanAt)/2] - 1)
					run := func(o oracle.Oracle) (used uint64, st oracle.Stats, r any) {
						l := oracle.NewLimit(o, budget)
						lca := b.build(l)
						func() {
							defer func() { r = recover() }()
							lca.QueryEdge(e.U, e.V)
						}()
						return l.Used(), lca.ProbeStats(), r
					}
					u1, s1, r1 := run(newSiteGraph(g))
					u2, s2, r2 := run(oracle.New(g))
					if r1 != (oracle.ErrBudgetExceeded{Budget: budget}) || r1 != r2 || u1 != u2 || s1 != s2 {
						t.Fatalf("(%d,%d) budget %d: op panic %v used %d %+v; plain panic %v used %d %+v",
							e.U, e.V, budget, r1, u1, s1, r2, u2, s2)
					}
				}
				if tried == 0 {
					t.Fatal("no sampled query scanned")
				}
			})
		}
	}
}

func writeCSR(t *testing.T, path string, g *graph.Graph) {
	t.Helper()
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
}

// openMmap maps path, or returns nil where mmap is unsupported.
func openMmap(t *testing.T, path string) *source.CSRMmap {
	t.Helper()
	c, err := source.OpenCSRMmap(path)
	if err != nil {
		t.Logf("mmap differential skipped: %v", err)
		return nil
	}
	if c.Sorted() {
		t.Fatalf("%s has sorted rows; the differential must cover the unsorted scan", path)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
