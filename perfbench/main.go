// Command perfbench is the repository benchmark: it drives the library
// through its exported API on one of four workloads, or on all of them in
// turn, checks every answer against a reference path off the clock, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, timed from spans the
// benchmark records around its calls into each layer. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload spanner-dense --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// Result files (provenance, metrics, and in traced runs every span) are
// written under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run prints, on every
// workload. Each is nonzero by construction. BENCHMARK.json lists the
// same names.
var endToEnd = []metricSpec{
	{"throughput_qps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_query", "us"},
	{"probes_per_query", "count"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics every traced run prints, on every workload;
// a layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"source.calls_per_query", "count"},
	{"source.ns_per_call", "ns"},
	{"source.self_share", "ratio"},
	{"source.wire.round_trips_per_query", "count"},
	{"source.wire.rtt_us_p50", "us"},
	{"source.wire.shard_us_p50", "us"},
	{"source.wire.transfer_us_p50", "us"},
	{"source.wire.request_bytes_per_query", "B"},
	{"source.wire.response_bytes_per_query", "B"},
	{"source.wire.self_share", "ratio"},
	{"source.wire.handler_share", "ratio"},
	{"oracle.remainder_trips_per_query", "count"},
	{"mis.latency_p50_us", "us"},
	{"mis.probes_per_query", "count"},
	{"coloring.latency_p50_us", "us"},
	{"coloring.probes_per_query", "count"},
	{"spanner.spanner3.latency_p50_us", "us"},
	{"spanner.spanner3.probes_per_query", "count"},
	{"spanner.spanner5.latency_p50_us", "us"},
	{"spanner.spanner5.probes_per_query", "count"},
	{"algorithms.self_share", "ratio"},
	{"lca.session.self_us_per_query", "us"},
	{"lca.session.allocs_per_query", "count"},
	{"serve.handler_us_p50", "us"},
	{"serve.self_us_per_query", "us"},
	{"serve.self_share", "ratio"},
	{"serve.response_bytes_per_query", "B"},
	{"serve.allocs_per_query", "count"},
	{"serve.coalesced_share", "ratio"},
	{"http.overhead_us_p50", "us"},
	{"http.self_share", "ratio"},
	{"core.labels_s", "s"},
	{"core.vertexset_s", "s"},
	{"core.alloc_mb_per_pass", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"workload.repeat_share", "ratio"},
	{"trace.overhead_us_p50", "us"},
}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what one run of a workload produced.
type outcome struct {
	attempted, failed int
	// problems lists failed checks; any problem makes the run incorrect.
	problems []string
	metrics  map[string]float64
	// sizes records the workload's input sizes for provenance.
	sizes map[string]any
	// notes are human-readable lines printed before the result.
	notes []string
	// spans is the traced run's span log, written to the result directory.
	spans []span
	// procs is the GOMAXPROCS the workload ran at.
	procs int
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or "+allWorkloads)
	flag.Uint64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	opt.trace = trace == 1
	opt.outDir = filepath.Join(".bench_build", "perfbench")
	return run(opt)
}

// allWorkloads runs every workload in turn in one process; the result
// line then names each metric <workload>.<metric>.
const allWorkloads = "all"

func run(opt options) error {
	names := []string{opt.workload}
	if opt.workload == allWorkloads {
		names = workloadNames()
	} else if _, ok := workloads[opt.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s, or %s)", opt.workload, strings.Join(workloadNames(), ", "), allWorkloads)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	var total resultLine
	for _, name := range names {
		one := opt
		one.workload = name
		res, err := runOne(one)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			total = res
			break
		}
		if total.Metrics == nil {
			total = resultLine{Correct: true, Metrics: map[string]metricValue{}}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload, writes its result file and prints its
// summary.
func runOne(opt options) (resultLine, error) {
	start := time.Now()
	out, err := workloads[opt.workload](opt)
	if err != nil {
		return resultLine{}, err
	}
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	res := resultLine{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: out.metrics[m.name], Unit: m.unit}
	}
	prov := provenance(opt, out)
	if err := writeResultFile(opt, prov, res, out); err != nil {
		return resultLine{}, err
	}
	printSummary(opt, prov, res, out, specs, time.Since(start))
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printSummary(opt options, prov map[string]any, res resultLine, out *outcome, specs []metricSpec, took time.Duration) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v took=%.1fs\n", opt.workload, opt.seed, opt.seconds, opt.trace, took.Seconds())
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-40s %14.6g %s\n", "error_rate", errRate, "ratio")
	for _, m := range specs {
		fmt.Printf("  %-40s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
}

func writeResultFile(opt options, prov map[string]any, res resultLine, out *outcome) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, btoi(opt.trace))
	doc := map[string]any{
		"provenance": prov,
		"result":     res,
		"notes":      out.notes,
		"problems":   out.problems,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if len(out.spans) == 0 {
		return nil
	}
	return writeSpans(filepath.Join(opt.outDir, base+".spans.jsonl"), out.spans)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
