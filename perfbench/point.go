package main

// The point-query workloads (spanner-dense, serve-skewed, fleet-prefetch)
// share one runner: set up several times, run the measured loop, check
// every answer against a reference path off the clock, and reduce the
// samples to metrics. A traced run adds an untraced pass (U), a traced
// pass (T) and a transparency check, and reduces the spans of T to
// per-layer metrics.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up unless its shape says
// otherwise; setup_s is the median.
const setupRepeats = 3

// fixedWorkCap bounds a fixed-work run at this many times its length.
const fixedWorkCap = 3

// traceClients is the client count of a traced run's two passes: with
// one client per handler, every span nests under exactly one operation.
const traceClients = 1

// segments is how many equal parts a timed run is cut into. Throughput,
// latency and CPU per query are computed per segment and reported as the
// median over segments, so a stall of the shared host that covers less
// than half of the run moves segments that are then outvoted, not the
// figure.
const segments = 5

// query is one generated operation.
type query struct {
	kind   int8  // index into the workload's mix
	caller int8  // spanner-dense: the caller whose Session answers
	u, v   int32 // target vertex; second endpoint of an edge query
	// key identifies the target, for workload.repeat_share and for
	// checking each distinct target once.
	key  int64
	path string // served workloads: request path and query string
}

// sample is the outcome of one operation.
type sample struct {
	q          *query
	ok         bool
	err        string
	answer     int64
	probes     uint64
	trips      uint64
	remainders uint64
	pages      uint64
	local      uint64
	respBytes  int64
	timing     opTiming
	algoNs     int64 // traced served pass: the algorithms' estimated time
	// idx is the operation's position in its client's sequence.
	idx  int
	opID int64 // traced pass: the operation's span
}

// shape is a workload's load pattern: a closed loop of clients.
type shape struct {
	clients int
	// probePrefix is how many operations per client probes_per_query
	// averages over in a timed closed loop: a prefix every run answers, so
	// the figure repeats exactly for a seed.
	probePrefix int
	// ops, when positive, makes a closed loop do a fixed amount of work:
	// each client runs its list of ops operations once, and the clock only
	// cuts a run that takes fixedWorkCap times its length.
	ops int
	// setups is how many times an untraced run sets up (0 means
	// setupRepeats); cheap set-ups repeat more for a steadier median.
	setups int
}

// pointWorkload is one point-query workload.
type pointWorkload interface {
	mix() []string
	shape() shape
	// materialize builds the program's inputs with the repository's
	// generators and writers; it is timed as set-up.
	materialize() error
	// generate derives the query lists from the seed; it runs once,
	// after the first materialize, off the set-up clock.
	generate(seconds float64) error
	// lists returns the per-client query lists of the measured pass, the
	// warm-up lists, and the fixed list of the transparency check.
	lists() (measured, warm [][]query, fixed []query)
	// open starts the program over the materialized inputs; rec != nil
	// selects the instrumented build. Timed as set-up.
	open(rec *recorder) (pointEnv, error)
	// release drops generator output the measured phase must not hold.
	release()
	// reference checks samples against a path sharing no backend code
	// with the measured one.
	reference(samples []*sample) []string
	sizes() map[string]any
}

// pointEnv is the program, opened.
type pointEnv interface {
	do(client int, q *query, s *sample)
	close()
}

// algoTimer is implemented by workloads whose algorithms run inside a
// server, out of the benchmark's reach: algoNs answers q through a fresh
// local Session and returns its time outside the source, the estimate
// of the algorithms' share of the served call.
type algoTimer interface {
	algoNs(q *query) int64
}

// servedEnv is implemented by environments behind an HTTP front.
type servedEnv interface {
	pointEnv
	coalesced() uint64
	wireResponseBytes() int64
	// handlerAllocs reports allocations per request of the front
	// handler called in process, over qs.
	handlerAllocs(qs []query) float64
}

// passResult is one measured pass.
type passResult struct {
	samples []*sample
	elapsed time.Duration
	cpu     time.Duration
	// marks are the process CPU readings at the segment boundaries of a
	// timed pass (segments+1 of them).
	marks   []time.Duration
	mallocs uint64
	gcCPU   float64
	totCPU  float64
}

// runPass runs a workload's closed loop over env for d, or through its
// fixed work.
// On traced passes, post (when non-nil) runs after each operation's span
// closes.
func runPass(env pointEnv, measured [][]query, sh shape, clients int, d time.Duration, rec *recorder, post func(*sample)) passResult {
	var res passResult
	m0 := readRuntime()
	cpu0 := processCPU()
	clk := newRealClock()
	var marks func() []time.Duration
	if sh.ops == 0 {
		marks = markCPU(d)
	}
	per := make([][]sample, clients)
	for c := range per {
		per[c] = make([]sample, 0, 1024)
	}
	limit := d
	if sh.ops > 0 {
		limit = fixedWorkCap * d
	}
	timings := closedLoop(clients, limit, sh.ops, clk, func(c, i int) {
		list := measured[c%len(measured)]
		per[c] = append(per[c], sample{q: &list[i%len(list)], idx: i})
		runOp(env, c, &per[c][len(per[c])-1], rec, post)
	})
	for c := range per {
		for i := range per[c] {
			per[c][i].timing = timings[c][i]
			res.samples = append(res.samples, &per[c][i])
		}
	}
	res.elapsed = clk.now()
	res.cpu = processCPU() - cpu0
	if marks != nil {
		res.marks = marks()
	}
	m1 := readRuntime()
	res.mallocs = m1.mallocs - m0.mallocs
	res.gcCPU = m1.gcCPU - m0.gcCPU
	res.totCPU = m1.totCPU - m0.totCPU
	return res
}

// markCPU reads the process CPU time at each segment boundary of a pass
// of length d, on its own goroutine; the returned function waits for the
// last reading.
func markCPU(d time.Duration) func() []time.Duration {
	marks := make([]time.Duration, segments+1)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		marks[0] = processCPU()
		for k := 1; k <= segments; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / segments)))
			marks[k] = processCPU()
		}
	}()
	return func() []time.Duration {
		<-done
		return marks
	}
}

// segmented computes throughput, latency and CPU per query in each
// segment of a timed pass (an operation belongs to the segment it was
// sent in) and returns the medians over segments.
func segmented(p passResult, d time.Duration, out *outcome) (qps, p50, tail, cpu float64) {
	w := d / segments
	lat := make([][]int64, segments)
	for _, s := range p.samples {
		if s.ok {
			k := min(int(s.timing.sent/w), segments-1)
			lat[k] = append(lat[k], int64(s.timing.latency()))
		}
	}
	var qs, p50s, tails, cpus []float64
	for k := range lat {
		n := max(len(lat[k]), 1)
		sum := summarize(lat[k])
		qs = append(qs, float64(len(lat[k]))/w.Seconds())
		p50s = append(p50s, us(sum.p50))
		tails = append(tails, us(sum.tail))
		cpus = append(cpus, us(p.marks[k+1]-p.marks[k])/float64(n))
		out.note("segment %d: %d answered, latency %s, cpu %.1fus per query", k, len(lat[k]), sum, cpus[k])
	}
	return medianFloat(qs), medianFloat(p50s), medianFloat(tails), medianFloat(cpus)
}

// runOp runs one operation, inside an op span on traced passes.
func runOp(env pointEnv, c int, s *sample, rec *recorder, post func(*sample)) {
	if rec == nil {
		env.do(c, s.q, s)
		return
	}
	s.opID = rec.newID()
	start := rec.now()
	env.do(c, s.q, s)
	rec.add(span{ID: s.opID, Layer: layerOp, Start: start, End: rec.now()})
	if post != nil {
		post(s)
	}
}

// pointProcs is the GOMAXPROCS the point workloads run at. The served
// workloads' cost is mostly goroutine hand-offs around loopback I/O; with
// two Ps on a two-vCPU virtual machine each hand-off may wake the other
// vCPU, and the time that takes depends on the host. Over four runs of
// fleet-prefetch, throughput spread 32% between quartiles at GOMAXPROCS 2
// and 1% at 1. spanner-dense gives its own reason.
const pointProcs = 1

// runPoint runs one point-query workload at pointProcs.
func runPoint(w pointWorkload, opt options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, sizes: w.sizes()}
	sh := w.shape()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pointProcs))
	out.procs = pointProcs
	d := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		return out, tracePoint(w, opt, out)
	}
	repeats := sh.setups
	if repeats == 0 {
		repeats = setupRepeats
	}
	env, setup, err := setUp(w, opt, repeats, nil)
	if err != nil {
		return nil, err
	}
	measured, _, _ := w.lists()
	pass := runPass(env, measured, sh, sh.clients, d, nil, nil)
	countFailures(out, pass.samples)
	out.problems = append(out.problems, w.reference(pass.samples)...)

	lat := latencies(pass.samples)
	answered := countOK(pass.samples)
	m := out.metrics
	if sh.ops > 0 {
		m["throughput_qps"] = float64(answered) / pass.elapsed.Seconds()
		m["latency_p50_us"] = us(lat.p50)
		m["latency_p99_us"] = us(lat.tail)
		m["cpu_us_per_query"] = us(pass.cpu) / float64(max(answered, 1))
		out.note("latency %s; latency_p99_us is the p%d", lat, lat.tailP)
	} else {
		m["throughput_qps"], m["latency_p50_us"], m["latency_p99_us"], m["cpu_us_per_query"] = segmented(pass, d, out)
		out.note("whole-run latency %s; figures are medians over %d segments", lat, segments)
	}
	m["probes_per_query"] = probesPerQuery(pass.samples, sh)
	m["setup_s"] = setup
	out.note("answered %d of %d in %.2fs; round_trips_per_query %.3f; repeat_share %.3f",
		answered, len(pass.samples), pass.elapsed.Seconds(),
		meanOf(pass.samples, func(s *sample) float64 { return float64(s.trips) }), repeatShare(pass.samples))
	// The program is still open; the samples, whose number varies with
	// throughput, are the benchmark's and are dropped first.
	pass.samples = nil
	m["live_heap_mb"] = liveHeapMB()
	env.close()
	return out, nil
}

// setUp materializes and opens the program repeats times, keeping the
// last environment, and returns the median set-up time in seconds.
func setUp(w pointWorkload, opt options, repeats int, rec *recorder) (pointEnv, float64, error) {
	var env pointEnv
	var times []float64
	for k := 0; k < repeats; k++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		if err := w.materialize(); err != nil {
			return nil, 0, fmt.Errorf("materialize: %w", err)
		}
		took := time.Since(t0)
		if k == 0 {
			if err := w.generate(opt.seconds); err != nil {
				return nil, 0, fmt.Errorf("generate queries: %w", err)
			}
		}
		w.release()
		t1 := time.Now()
		var err error
		if env, err = w.open(rec); err != nil {
			return nil, 0, fmt.Errorf("open: %w", err)
		}
		if err := warmUp(w, env); err != nil {
			env.close()
			return nil, 0, err
		}
		took += time.Since(t1)
		times = append(times, took.Seconds())
	}
	return env, medianFloat(times), nil
}

// warmUp runs the warm-up lists, so connections are open and lazy
// set-up is done before timing.
func warmUp(w pointWorkload, env pointEnv) error {
	_, warm, _ := w.lists()
	for c, list := range warm {
		for i := range list {
			var s sample
			env.do(c, &list[i], &s)
			if !s.ok {
				return fmt.Errorf("warm-up query %q failed: %s", list[i].path, s.err)
			}
		}
	}
	return nil
}

// tracePoint is the traced run: pass U untraced and pass T traced, each
// for half the time, then the transparency check, then every answer's
// reference check, then the per-layer reduction.
func tracePoint(w pointWorkload, opt options, out *outcome) error {
	sh := w.shape()
	half := time.Duration(opt.seconds * float64(time.Second) / 2)
	plain, _, err := setUp(w, opt, 1, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := w.open(rec)
	if err == nil {
		if err = warmUp(w, traced); err != nil {
			traced.close()
		}
	}
	if err != nil {
		plain.close()
		return err
	}
	measured, _, fixed := w.lists()
	u := runPass(plain, measured, sh, traceClients, half, nil, nil)
	var coalesced uint64
	var handlerAllocs float64
	if se, ok := plain.(servedEnv); ok {
		coalesced = se.coalesced()
		handlerAllocs = se.handlerAllocs(measured[0][:min(len(measured[0]), 500)])
	}
	rec.take() // drop spans of the warm-up
	var wire0 int64
	if se, ok := traced.(servedEnv); ok {
		wire0 = se.wireResponseBytes()
	}
	var post func(*sample)
	if at, ok := w.(algoTimer); ok {
		post = func(s *sample) { s.algoNs = at.algoNs(s.q) }
	}
	t := runPass(traced, measured, sh, traceClients, half, rec, post)
	spans := rec.take()
	if se, ok := traced.(servedEnv); ok && len(t.samples) > 0 {
		out.metrics["source.wire.response_bytes_per_query"] = float64(se.wireResponseBytes()-wire0) / float64(len(t.samples))
	}
	plain.close()
	traced.close()

	transparency(w, fixed, out)

	all := append(append([]*sample(nil), u.samples...), t.samples...)
	countFailures(out, all)
	out.problems = append(out.problems, w.reference(all)...)

	m := out.metrics
	byKind(w.mix(), u.samples, m)
	m["runtime.gc_cpu_share"] = ratio(u.gcCPU, u.totCPU)
	m["workload.repeat_share"] = repeatShare(u.samples)
	m["oracle.remainder_trips_per_query"] = meanOf(u.samples, func(s *sample) float64 { return float64(s.remainders) })
	if _, ok := plain.(servedEnv); ok {
		m["serve.coalesced_share"] = float64(coalesced) / float64(max(len(u.samples), 1))
		m["serve.response_bytes_per_query"] = meanOf(u.samples, func(s *sample) float64 { return float64(s.respBytes) })
		m["serve.allocs_per_query"] = handlerAllocs
	} else {
		m["lca.session.allocs_per_query"] = float64(u.mallocs) / float64(max(len(u.samples), 1))
	}
	layerMetrics(spans, t.samples, m, out)
	uLat, tLat := latencies(u.samples), latencies(t.samples)
	m["trace.overhead_us_p50"] = us(tLat.p50) - us(uLat.p50)
	out.note("%d client: untraced pass %s; traced pass %s", traceClients, uLat, tLat)
	out.spans = spans
	return nil
}

// transparency runs the fixed list through a fresh untraced and a fresh
// traced environment, one client each, and requires the same answers,
// probe counts, round trips, page touches and local hits.
func transparency(w pointWorkload, fixed []query, out *outcome) {
	digests := [2]string{}
	var totals [2][4]uint64
	for mode := 0; mode < 2; mode++ {
		var rec *recorder
		if mode == 1 {
			rec = newRecorder()
		}
		env, err := w.open(rec)
		if err != nil {
			out.problem("transparency: open: %v", err)
			return
		}
		h := sha256.New()
		for i := range fixed {
			var s sample
			env.do(0, &fixed[i], &s)
			if !s.ok {
				out.problem("transparency: %q failed: %s", fixed[i].path, s.err)
			}
			var b [40]byte
			binary.LittleEndian.PutUint64(b[0:], uint64(s.answer))
			binary.LittleEndian.PutUint64(b[8:], s.probes)
			binary.LittleEndian.PutUint64(b[16:], s.trips)
			binary.LittleEndian.PutUint64(b[24:], s.pages)
			binary.LittleEndian.PutUint64(b[32:], s.local)
			h.Write(b[:])
			totals[mode][0] += s.probes
			totals[mode][1] += s.trips
			totals[mode][2] += s.pages
			totals[mode][3] += s.local
		}
		env.close()
		digests[mode] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	out.note("transparency over %d ops: untraced digest %s totals(probes,trips,pages,local)=%v; traced digest %s totals=%v",
		len(fixed), digests[0], totals[0], digests[1], totals[1])
	if digests[0] != digests[1] || totals[0] != totals[1] {
		out.problem("transparency: traced run differs from untraced (digests %s vs %s, totals %v vs %v)", digests[0], digests[1], totals[0], totals[1])
	}
}

// layerMetrics reduces the traced pass's spans to per-layer metrics.
// Each operation's span tree is op > [handler >] ... > source; the
// layers' self times are summed over operations and divided by the
// summed operation time for the shares.
func layerMetrics(spans []span, samples []*sample, m map[string]float64, out *outcome) {
	children := map[int64][]span{}
	opSpans := map[int64]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Layer == layerOp {
			opSpans[s.ID] = s
		}
	}
	var opNs, srcNs, srcCalls, wireSelf, serveSelf, httpNs, algoSum, sessionSelf int64
	var handlerDur, httpOver, rtt, shardDur, transfer []int64
	var trips, reqBytes int64
	var wireUnion, handlerTotal int64
	var answeredTrips uint64
	for _, smp := range samples {
		op, found := opSpans[smp.opID]
		if !found {
			continue
		}
		answeredTrips += smp.trips
		opNs += op.dur()
		algo := smp.algoNs
		var handler *span
		for _, c := range children[op.ID] {
			c := c
			switch c.Layer {
			case layerSource:
				srcNs += c.dur()
				srcCalls += c.Calls
			case layerHandler:
				handler = &c
			}
		}
		if handler == nil {
			// A Session call: the op is the Session span, and its self time
			// is the Session's and the algorithms' together.
			self := selfTime(op.interval(), intervals(children[op.ID]))
			sessionSelf += self
			algoSum += self
			continue
		}
		handlerDur = append(handlerDur, handler.dur())
		httpOver = append(httpOver, op.dur()-handler.dur())
		httpNs += op.dur() - handler.dur()
		handlerTotal += handler.dur()
		var tripIvs []interval
		for _, c := range children[handler.ID] {
			switch c.Layer {
			case layerSource:
				srcNs += c.dur()
				srcCalls += c.Calls
			case layerTrip:
				trips++
				reqBytes += c.ReqBytes
				tripIvs = append(tripIvs, c.interval())
				rtt = append(rtt, c.dur())
				var tripSrc int64
				for _, sh := range children[c.ID] {
					if sh.Layer != layerShard {
						continue
					}
					shardDur = append(shardDur, sh.dur())
					transfer = append(transfer, c.dur()-sh.dur())
					for _, g := range children[sh.ID] {
						if g.Layer == layerSource {
							srcNs += g.dur()
							srcCalls += g.Calls
							tripSrc += g.dur()
						}
					}
				}
				wireSelf += c.dur() - tripSrc
			}
		}
		wireUnion += unionWithin(tripIvs, handler.Start, handler.End)
		algoSum += algo
		serveSelf += selfTime(handler.interval(), intervals(children[handler.ID])) - algo
	}
	ops := int64(0)
	for _, s := range samples {
		if s.opID != 0 {
			ops++
		}
	}
	if ops == 0 || opNs == 0 {
		out.problem("traced pass recorded no operations")
		return
	}
	perOp := func(x int64) float64 { return float64(x) / float64(ops) }
	share := func(x int64) float64 { return float64(x) / float64(opNs) }
	m["source.calls_per_query"] = perOp(srcCalls)
	if srcCalls > 0 {
		m["source.ns_per_call"] = float64(srcNs) / float64(srcCalls)
	}
	m["source.self_share"] = share(srcNs)
	m["algorithms.self_share"] = share(algoSum)
	if sessionSelf > 0 {
		m["lca.session.self_us_per_query"] = perOp(sessionSelf) / 1e3
	}
	if len(handlerDur) > 0 {
		m["serve.handler_us_p50"] = us(summarize(handlerDur).p50)
		m["serve.self_us_per_query"] = perOp(serveSelf) / 1e3
		m["serve.self_share"] = share(serveSelf)
		m["http.overhead_us_p50"] = us(summarize(httpOver).p50)
		m["http.self_share"] = share(httpNs)
	}
	if trips > 0 {
		m["source.wire.round_trips_per_query"] = perOp(trips)
		m["source.wire.rtt_us_p50"] = us(summarize(rtt).p50)
		m["source.wire.shard_us_p50"] = us(summarize(shardDur).p50)
		m["source.wire.transfer_us_p50"] = us(summarize(transfer).p50)
		m["source.wire.request_bytes_per_query"] = perOp(reqBytes)
		m["source.wire.self_share"] = share(wireSelf)
		m["source.wire.handler_share"] = float64(wireUnion) / float64(max(handlerTotal, 1))
		if uint64(trips) != answeredTrips {
			out.problem("wire: recorded %d round trips, answers report %d", trips, answeredTrips)
		}
	}
	out.note("layer shares of operation time: source %.3f, algorithms %.3f, serve %.3f, http %.3f, wire %.3f (wire/handler %.3f)",
		share(srcNs), share(algoSum), share(serveSelf), share(httpNs), share(wireSelf), m["source.wire.handler_share"])
}

func intervals(spans []span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = s.interval()
	}
	return ivs
}

// byKind reports latency and probes per mix entry.
func byKind(mix []string, samples []*sample, m map[string]float64) {
	for k, name := range mix {
		var lat []int64
		var probes uint64
		for _, s := range samples {
			if int(s.q.kind) == k && s.ok {
				lat = append(lat, int64(s.timing.latency()))
				probes += s.probes
			}
		}
		if len(lat) == 0 {
			continue
		}
		prefix := kindMetricPrefix(name)
		m[prefix+".latency_p50_us"] = us(summarize(lat).p50)
		m[prefix+".probes_per_query"] = float64(probes) / float64(len(lat))
	}
}

// kindMetricPrefix maps an algorithm to its per-layer metric prefix.
func kindMetricPrefix(algo string) string {
	switch algo {
	case "spanner3", "spanner5":
		return "spanner." + algo
	}
	return algo
}

func countFailures(out *outcome, samples []*sample) {
	shown := 0
	for _, s := range samples {
		out.attempted++
		if !s.ok {
			out.failed++
			if shown < 5 {
				out.note("failed: %q: %s", s.q.path, s.err)
				shown++
			}
		}
	}
}

func countOK(samples []*sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

func latencies(samples []*sample) latencySummary {
	ns := make([]int64, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			ns = append(ns, int64(s.timing.latency()))
		}
	}
	return summarize(ns)
}

// probesPerQuery averages probes over the operations every run answers:
// all of them in a fixed-work loop, the first probePrefix of each client
// in a timed loop.
func probesPerQuery(samples []*sample, sh shape) float64 {
	var sum uint64
	n := 0
	for _, s := range samples {
		if sh.ops > 0 || s.idx < sh.probePrefix {
			sum += s.probes
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func meanOf(samples []*sample, f func(*sample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t float64
	for _, s := range samples {
		t += f(s)
	}
	return t / float64(len(samples))
}

// repeatShare is the share of operations whose target was already
// queried earlier in the pass.
func repeatShare(samples []*sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	distinct := map[int64]bool{}
	for _, s := range samples {
		distinct[s.q.key] = true
	}
	return 1 - float64(len(distinct))/float64(len(samples))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSnapshot struct {
	mallocs       uint64
	gcCPU, totCPU float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnapshot{mallocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totCPU: s[2].Value.Float64()}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
