package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lca"
	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/oracle"
	"lca/internal/registry"
	"lca/internal/rnd"
)

// assemble: Session.BuildLabels("coloring") then BuildVertexSet("mis")
// with two workers on an in-memory random regular graph — the only path
// through core's parallel assembly and the shared oracle.CachingOracle.
// One pass builds both; a run repeats passes until its time is up.
const (
	asmN       = 200_000
	asmD       = 8
	asmWorkers = 2
)

// asmPass is one assembly pass.
type asmPass struct {
	labels   []int
	in       []bool
	labelsQS lca.QueryStats
	vsetQS   lca.QueryStats
	labelsNs int64
	vsetNs   int64
	totalNs  int64
	cpu      time.Duration
}

type assembleRun struct {
	graphSeed, lcaSeed rnd.Seed
}

func runAssemble(opt options) (*outcome, error) {
	base := rnd.Seed(opt.seed)
	w := assembleRun{graphSeed: base.Derive(1), lcaSeed: base.Derive(2)}
	out := &outcome{metrics: map[string]float64{}, sizes: map[string]any{"n": asmN, "degree": asmD, "workers": asmWorkers, "algorithms": []string{"coloring", "mis"}},
		procs: runtime.GOMAXPROCS(0)}
	d := time.Duration(opt.seconds * float64(time.Second))

	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	var g *graph.Graph
	var sess *lca.Session
	var setups []float64
	for k := 0; k < repeats; k++ {
		t0 := time.Now()
		var err error
		if g, err = gen.RandomRegular(asmN, asmD, w.graphSeed); err != nil {
			return nil, err
		}
		sess = lca.NewSession(g, lca.WithSeed(w.lcaSeed), lca.WithWorkers(asmWorkers))
		// Warm-up: one point query builds the session's instances.
		if _, err := sess.Label("coloring", 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if !opt.trace {
		passes, _ := w.passes(sess, d, nil)
		w.check(g, passes, out)
		// Passes are the segments: each figure is the median over passes.
		var lat []int64
		var qps, cpu []float64
		for _, p := range passes {
			lat = append(lat, p.totalNs)
			qps = append(qps, 2*asmN/(float64(p.totalNs)/1e9))
			cpu = append(cpu, us(p.cpu)/(2*asmN))
		}
		sum := summarize(lat)
		out.attempted = 2 * asmN * len(passes)
		out.metrics["throughput_qps"] = medianFloat(qps)
		out.metrics["latency_p50_us"] = us(sum.p50)
		out.metrics["latency_p99_us"] = us(sum.tail)
		out.metrics["cpu_us_per_query"] = medianFloat(cpu)
		out.metrics["probes_per_query"] = float64(passes[0].labelsQS.SumTotal+passes[0].vsetQS.SumTotal) / float64(2*asmN)
		out.metrics["setup_s"] = medianFloat(setups)
		out.note("pass latency %s (one pass = BuildLabels + BuildVertexSet over %d vertices); throughput and cpu are medians over passes", sum, asmN)
		// The session is still open; the passes' outputs, whose number
		// varies with speed, are the benchmark's and are dropped first.
		passes = nil
		out.metrics["live_heap_mb"] = liveHeapMB()
		runtime.KeepAlive(sess)
		return out, nil
	}

	half := d / 2
	u, ures := w.passes(sess, half, nil)
	rec := newRecorder()
	t, _ := w.passes(sess, half, rec)
	w.check(g, append(u, t...), out)
	out.attempted = 2 * asmN * (len(u) + len(t))
	m := out.metrics
	var labels, vsets []float64
	for _, p := range t {
		labels = append(labels, float64(p.labelsNs)/1e9)
		vsets = append(vsets, float64(p.vsetNs)/1e9)
	}
	m["core.labels_s"] = medianFloat(labels)
	m["core.vertexset_s"] = medianFloat(vsets)
	m["core.alloc_mb_per_pass"] = ures.allocMB / float64(len(u))
	m["runtime.gc_cpu_share"] = ratio(ures.gcCPU, ures.totCPU)
	m["coloring.probes_per_query"] = u[0].labelsQS.Mean()
	m["mis.probes_per_query"] = u[0].vsetQS.Mean()
	var ul, tl []int64
	for _, p := range u {
		ul = append(ul, p.totalNs)
	}
	for _, p := range t {
		tl = append(tl, p.totalNs)
	}
	m["trace.overhead_us_p50"] = us(summarize(tl).p50) - us(summarize(ul).p50)
	out.spans = rec.take()
	out.note("untraced passes %d, traced passes %d; labels %.3fs, vertex set %.3fs per pass", len(u), len(t), m["core.labels_s"], m["core.vertexset_s"])
	return out, nil
}

// asmResult is the process-level accounting of a run of passes.
type asmResult struct {
	elapsed       time.Duration
	cpu           time.Duration
	allocMB       float64
	gcCPU, totCPU float64
}

// passes runs whole passes until d has passed (at least one). With rec,
// each Build call is recorded as a span under a pass span.
func (w assembleRun) passes(sess *lca.Session, d time.Duration, rec *recorder) ([]asmPass, asmResult) {
	var res asmResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	var passes []asmPass
	for len(passes) == 0 || time.Since(start) < d {
		var p asmPass
		var opID, t0 int64
		if rec != nil {
			opID, t0 = rec.newID(), rec.now()
		}
		cpuA := processCPU()
		a := time.Now()
		labels, lqs, err := buildSpan(rec, opID, "BuildLabels", func() ([]int, lca.QueryStats, error) { return sess.BuildLabels("coloring") })
		if err != nil {
			panic(fmt.Sprintf("BuildLabels: %v", err)) // a materialized session cannot refuse
		}
		b := time.Now()
		in, vqs, err := buildSpan(rec, opID, "BuildVertexSet", func() ([]bool, lca.QueryStats, error) { return sess.BuildVertexSet("mis") })
		if err != nil {
			panic(fmt.Sprintf("BuildVertexSet: %v", err))
		}
		c := time.Now()
		p.cpu = processCPU() - cpuA
		if rec != nil {
			rec.add(span{ID: opID, Layer: layerOp, Start: t0, End: rec.now()})
		}
		p.labels, p.in, p.labelsQS, p.vsetQS = labels, in, lqs, vqs
		p.labelsNs, p.vsetNs, p.totalNs = int64(b.Sub(a)), int64(c.Sub(b)), int64(c.Sub(a))
		passes = append(passes, p)
	}
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	m1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.gcCPU, res.totCPU = m1.gcCPU-m0.gcCPU, m1.totCPU-m0.totCPU
	return passes, res
}

// buildSpan runs one Build call, recording it under parent when traced.
func buildSpan[T any](rec *recorder, parent int64, name string, build func() (T, lca.QueryStats, error)) (T, lca.QueryStats, error) {
	if rec == nil {
		return build()
	}
	start := rec.now()
	v, qs, err := build()
	rec.add(span{ID: rec.newID(), Parent: parent, Layer: layerBuild, Name: name, Start: start, End: rec.now()})
	return v, qs, err
}

// check compares every pass with a reference assembly that shares no
// code with the measured one beyond the algorithms: each worker's chunk
// answered by its own instance over a plain oracle on the in-memory
// graph, serially, with no shared cache and no core assembly. Every
// pass must also equal the first, and pass the registry's checkers.
func (w assembleRun) check(g *graph.Graph, passes []asmPass, out *outcome) {
	refLabels, lSum, err := w.refChunks(g, "coloring")
	if err != nil {
		out.problem("reference coloring: %v", err)
		return
	}
	refIn, vSum, err := w.refChunks(g, "mis")
	if err != nil {
		out.problem("reference mis: %v", err)
		return
	}
	for i, p := range passes {
		bad := 0
		for v := range p.labels {
			if int64(p.labels[v]) != refLabels[v] || b2i(p.in[v]) != refIn[v] {
				bad++
			}
		}
		if bad > 0 {
			out.failed += bad
			out.problem("pass %d: %d of %d vertices differ from the reference", i, bad, asmN)
		}
		if p.labelsQS.SumTotal != lSum || p.vsetQS.SumTotal != vSum {
			out.problem("pass %d: probes labels=%d vertexset=%d, reference %d and %d", i, p.labelsQS.SumTotal, p.vsetQS.SumTotal, lSum, vSum)
		}
	}
	labelsDesc, _ := registry.Get("coloring")
	misDesc, _ := registry.Get("mis")
	if err := labelsDesc.CheckLabels(g, passes[0].labels); err != nil {
		out.problem("CheckLabels: %v", err)
	}
	if err := misDesc.CheckVertexSet(g, passes[0].in); err != nil {
		out.problem("CheckVertexSet: %v", err)
	}
}

// refChunks answers every vertex with algo, one instance per worker
// chunk as the parallel assembly divides them, and returns the answers
// and the summed probe count.
func (w assembleRun) refChunks(g *graph.Graph, algo string) ([]int64, uint64, error) {
	d, err := registry.Get(algo)
	if err != nil {
		return nil, 0, err
	}
	p := d.WithMemoDefault(registry.Params{})
	n := g.N()
	ans := make([]int64, n)
	chunk := (n + asmWorkers - 1) / asmWorkers
	sums := make([]uint64, asmWorkers)
	errs := make([]error, asmWorkers)
	var wg sync.WaitGroup
	for k := 0; k < asmWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			inst, err := d.Build(oracle.New(g), w.lcaSeed, p)
			if err != nil {
				errs[k] = err
				return
			}
			rep := inst.(interface{ ProbeStats() oracle.Stats })
			for v := k * chunk; v < min((k+1)*chunk, n); v++ {
				switch q := inst.(type) {
				case interface{ QueryLabel(int) int }:
					ans[v] = int64(q.QueryLabel(v))
				case interface{ QueryVertex(int) bool }:
					ans[v] = b2i(q.QueryVertex(v))
				}
			}
			sums[k] = rep.ProbeStats().Total()
		}(k)
	}
	wg.Wait()
	var total uint64
	for k := range sums {
		if errs[k] != nil {
			return nil, 0, errs[k]
		}
		total += sums[k]
	}
	return ans, total, nil
}
