// Command benchgate compares two lcabench -json outputs and fails when a
// benchmark metric regresses — the CI gate that turns the uploaded
// BENCH_ci.json artifacts into an enforced perf trajectory instead of a
// graph nobody reads.
//
// Usage:
//
//	benchgate -old prev/BENCH_ci.json -new BENCH_ci.json \
//	  [-metric "mean probes,mean rt/query"] [-tolerance 0.20] [-slack 2] \
//	  [-time-metric "mean us/query"] [-time-tolerance 1.0] [-time-floor 500]
//
// Rows are matched by experiment plus their identity columns (algorithm,
// source, config, ...); a row regresses when new > old*(1+tolerance) +
// slack. The absolute slack keeps tiny-probe rows (mean 3 -> 4) from
// tripping a 20% relative gate on noise. -metric accepts a
// comma-separated list, so deterministic counters (probes, round trips)
// share one strict gate. Rows only present on one side are reported but
// never fail the gate: new benchmarks have no baseline and removed ones
// have no current value.
//
// The time gate (-time-metric, off when empty) guards wall-clock columns
// with deliberately generous settings: CI runners are noisy, so the
// default tolerance is +100%, and rows whose current value sits at or
// below the absolute floor (microseconds) never fail — a 3us row doubling
// to 6us is scheduler jitter, a 3000us row doubling is a regression.
//
// -history prints the checked-in perf trajectory instead of gating:
//
//	benchgate -history docs/bench/BENCH_*.json
//
// Each file holds one change's paired perfbench runs: per workload and
// end-to-end metric, the parent's median, the change's median and the
// unit, plus each workload's pair count and seeds, the parent commit
// and the runs' provenance. The table has one row per file and
// workload/metric, with the change/parent ratio; files are ordered by
// the number in their name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// record mirrors lcabench's JSON Lines shape.
type record struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Row        map[string]string `json:"row"`
}

// identityCols are the row columns that identify a scenario (as opposed
// to carrying measurements); the key is the experiment plus every
// identity column the row has, so each experiment's schema works
// unmodified.
var identityCols = []string{
	"algorithm", "source", "config", "construction", "class", "side", "graph",
	"kind", "model", "independence", "workload degree",
	"n", "d", "k", "q", "rounds", "samples", "budget", "block",
}

func key(rec record) string {
	parts := []string{rec.Experiment}
	for _, c := range identityCols {
		if v, ok := rec.Row[c]; ok {
			parts = append(parts, c+"="+v)
		}
	}
	return strings.Join(parts, "|")
}

func parseRecords(r io.Reader) ([]record, error) {
	var out []record
	dec := json.NewDecoder(r)
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// metricValues indexes a record list by scenario key, keeping only rows
// that carry a parseable value for the metric.
func metricValues(recs []record, metric string) map[string]float64 {
	out := map[string]float64{}
	for _, rec := range recs {
		raw, ok := rec.Row[metric]
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			continue
		}
		out[key(rec)] = v
	}
	return out
}

// gateResult is the comparison outcome for one scenario.
type gateResult struct {
	key      string
	old, new float64
	regress  bool
}

// compare evaluates every scenario present on both sides.
func compare(oldRecs, newRecs []record, metric string, tolerance, slack float64) (results []gateResult, onlyOld, onlyNew []string) {
	oldV := metricValues(oldRecs, metric)
	newV := metricValues(newRecs, metric)
	for k, nv := range newV {
		ov, ok := oldV[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		results = append(results, gateResult{
			key: k, old: ov, new: nv,
			regress: nv > ov*(1+tolerance)+slack,
		})
	}
	for k := range oldV {
		if _, ok := newV[k]; !ok {
			onlyOld = append(onlyOld, k)
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].key < results[j].key })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return results, onlyOld, onlyNew
}

// compareTime evaluates the wall-clock gate: a row regresses when its
// current value exceeds both the absolute floor (tiny rows are pure
// scheduler noise) and the relative allowance over the baseline.
func compareTime(oldRecs, newRecs []record, metric string, tolerance, floor float64) []gateResult {
	oldV := metricValues(oldRecs, metric)
	newV := metricValues(newRecs, metric)
	var results []gateResult
	for k, nv := range newV {
		ov, ok := oldV[k]
		if !ok {
			continue // unbaselined rows are the count gates' job to report
		}
		results = append(results, gateResult{
			key: k, old: ov, new: nv,
			regress: nv > floor && nv > ov*(1+tolerance),
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].key < results[j].key })
	return results
}

// benchFile is one checked-in paired perfbench result,
// docs/bench/BENCH_<n>.json.
type benchFile struct {
	Parent     string                            `json:"parent"`
	Pairs      map[string]int                    `json:"pairs"`
	Seeds      map[string][]int                  `json:"seeds"`
	Provenance map[string]any                    `json:"provenance"`
	Workloads  map[string]map[string]benchMedian `json:"workloads"`
}

// benchMedian is one workload metric's paired medians.
type benchMedian struct {
	Parent float64 `json:"parent"`
	Change float64 `json:"change"`
	Unit   string  `json:"unit"`
}

// history writes the trajectory table of the named result files: one
// row per file and workload/metric, files in the order of the number in
// their name (BENCH_9 before BENCH_16), rows sorted within a file.
func history(w io.Writer, paths []string) error {
	paths = slices.Clone(paths)
	sort.SliceStable(paths, func(i, j int) bool { return historyIndex(paths[i]) < historyIndex(paths[j]) })
	fmt.Fprintf(w, "%-16s %-16s %-18s %-6s %12s %12s %7s\n", "file", "workload", "metric", "unit", "parent", "change", "ratio")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		workloads := slices.Sorted(maps.Keys(bf.Workloads))
		for _, wl := range workloads {
			for _, metric := range slices.Sorted(maps.Keys(bf.Workloads[wl])) {
				m := bf.Workloads[wl][metric]
				ratio := "-"
				if m.Parent != 0 {
					ratio = fmt.Sprintf("%.3f", m.Change/m.Parent)
				}
				fmt.Fprintf(w, "%-16s %-16s %-18s %-6s %12.4g %12.4g %7s\n", filepath.Base(p), wl, metric, m.Unit, m.Parent, m.Change, ratio)
			}
		}
	}
	return nil
}

// historyIndex is the number in a BENCH_<n>.json file name, or -1.
func historyIndex(path string) int {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	_, num, _ := strings.Cut(name, "_")
	n, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return n
}

func main() {
	var (
		hist      = flag.Bool("history", false, "print the trajectory table of the BENCH_<n>.json files named as arguments, then exit")
		oldPath   = flag.String("old", "", "baseline lcabench -json file (required)")
		newPath   = flag.String("new", "", "current lcabench -json file (required)")
		metrics   = flag.String("metric", "mean probes", "comma-separated row columns to gate on")
		tolerance = flag.Float64("tolerance", 0.20, "relative regression allowance (0.20 = +20%)")
		slack     = flag.Float64("slack", 2, "absolute allowance added on top of the relative one")
		timeMet   = flag.String("time-metric", "", "wall-clock row column to gate on (empty disables the time gate)")
		timeTol   = flag.Float64("time-tolerance", 1.0, "relative allowance of the time gate (1.0 = +100%; CI runners are noisy)")
		timeFloor = flag.Float64("time-floor", 500, "absolute floor of the time gate: rows at or below it never fail")
	)
	flag.Parse()
	if *hist {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "benchgate: -history needs at least one result file")
			os.Exit(2)
		}
		if err := history(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	oldRecs, err := readFile(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRecs, err := readFile(*newPath)
	if err != nil {
		fatal(err)
	}
	bad, compared := 0, 0
	for _, metric := range strings.Split(*metrics, ",") {
		metric = strings.TrimSpace(metric)
		if metric == "" {
			continue
		}
		results, onlyOld, onlyNew := compare(oldRecs, newRecs, metric, *tolerance, *slack)
		compared += len(results)
		metricBad := 0
		for _, res := range results {
			if res.regress {
				metricBad++
				rel := ""
				if res.old > 0 {
					rel = fmt.Sprintf("+%.1f%%, ", 100*(res.new-res.old)/res.old)
				}
				fmt.Printf("REGRESSION %s: %s %.2f -> %.2f (%sgate %.0f%%+%.0f)\n",
					res.key, metric, res.old, res.new, rel, 100**tolerance, *slack)
			}
		}
		for _, k := range onlyNew {
			fmt.Printf("note: no %q baseline for %s (new benchmark, not gated)\n", metric, k)
		}
		for _, k := range onlyOld {
			fmt.Printf("note: baseline row %s missing %q in the current run\n", k, metric)
		}
		fmt.Printf("benchgate: %d scenarios compared on %q, %d regressions\n", len(results), metric, metricBad)
		bad += metricBad
	}
	if *timeMet != "" {
		results := compareTime(oldRecs, newRecs, *timeMet, *timeTol, *timeFloor)
		compared += len(results)
		timeBad := 0
		for _, res := range results {
			if res.regress {
				timeBad++
				rel := ""
				if res.old > 0 {
					rel = fmt.Sprintf("+%.1f%%, ", 100*(res.new-res.old)/res.old)
				}
				fmt.Printf("REGRESSION %s: %s %.2f -> %.2f (%stime gate %.0f%% above floor %.0f)\n",
					res.key, *timeMet, res.old, res.new, rel, 100**timeTol, *timeFloor)
			}
		}
		fmt.Printf("benchgate: %d scenarios compared on %q (time gate), %d regressions\n", len(results), *timeMet, timeBad)
		bad += timeBad
	}
	if compared == 0 {
		fmt.Println("benchgate: warning: nothing to compare (schema drift or empty inputs)")
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func readFile(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := parseRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
