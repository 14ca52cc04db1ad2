package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const oldJSON = `{"experiment":"REG","title":"t","row":{"algorithm":"mis","kind":"vertex","queries":"60","mean probes":"100","mean us/query":"5.0"}}
{"experiment":"REG","title":"t","row":{"algorithm":"coloring","kind":"label","queries":"60","mean probes":"50"}}
{"experiment":"SRC","title":"t","row":{"source":"ring","algorithm":"mis","n":"1000000","mean probes":"4"}}
{"experiment":"SRC","title":"t","row":{"source":"ring","algorithm":"gone","n":"1000000","mean probes":"9"}}
`

const newJSON = `{"experiment":"REG","title":"t","row":{"algorithm":"mis","kind":"vertex","queries":"60","mean probes":"150","mean us/query":"9.0"}}
{"experiment":"REG","title":"t","row":{"algorithm":"coloring","kind":"label","queries":"60","mean probes":"55"}}
{"experiment":"SRC","title":"t","row":{"source":"ring","algorithm":"mis","n":"1000000","mean probes":"5"}}
{"experiment":"NET","title":"t","row":{"config":"remote x1","algorithm":"mis","n":"1000000","mean probes":"4"}}
`

func mustParse(t *testing.T, s string) []record {
	t.Helper()
	recs, err := parseRecords(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	oldRecs := mustParse(t, oldJSON)
	newRecs := mustParse(t, newJSON)
	results, onlyOld, onlyNew := compare(oldRecs, newRecs, "mean probes", 0.20, 2)
	byKey := map[string]gateResult{}
	for _, r := range results {
		byKey[r.key] = r
	}
	if len(results) != 3 {
		t.Fatalf("compared %d scenarios, want 3", len(results))
	}
	// mis REG: 100 -> 150 is +50%, above 20%+2 — regression.
	mis := byKey["REG|algorithm=mis|kind=vertex|n=1000000"]
	for k, r := range byKey {
		if strings.Contains(k, "REG") && strings.Contains(k, "mis") {
			mis = r
		}
	}
	if !mis.regress {
		t.Fatalf("mis +50%% not flagged: %+v", mis)
	}
	// coloring: 50 -> 55 is +10%, inside tolerance.
	for k, r := range byKey {
		if strings.Contains(k, "coloring") && r.regress {
			t.Fatalf("coloring +10%% flagged as regression: %s %+v", k, r)
		}
	}
	// SRC mis: 4 -> 5 is +25% relative but inside the absolute slack.
	for k, r := range byKey {
		if strings.Contains(k, "SRC") && r.regress {
			t.Fatalf("tiny-probe row tripped the gate despite slack: %s %+v", k, r)
		}
	}
	if len(onlyNew) != 1 || !strings.Contains(onlyNew[0], "NET") {
		t.Fatalf("onlyNew = %v, want the NET row", onlyNew)
	}
	if len(onlyOld) != 1 || !strings.Contains(onlyOld[0], "gone") {
		t.Fatalf("onlyOld = %v, want the removed row", onlyOld)
	}
}

func TestCompareImprovementsPass(t *testing.T) {
	oldRecs := mustParse(t, `{"experiment":"REG","title":"t","row":{"algorithm":"mis","mean probes":"100"}}`)
	newRecs := mustParse(t, `{"experiment":"REG","title":"t","row":{"algorithm":"mis","mean probes":"60"}}`)
	results, _, _ := compare(oldRecs, newRecs, "mean probes", 0.20, 2)
	if len(results) != 1 || results[0].regress {
		t.Fatalf("improvement flagged: %+v", results)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldRecs := mustParse(t, `{"experiment":"REG","title":"t","row":{"algorithm":"x","mean probes":"0"}}`)
	newRecs := mustParse(t, `{"experiment":"REG","title":"t","row":{"algorithm":"x","mean probes":"3"}}`)
	results, _, _ := compare(oldRecs, newRecs, "mean probes", 0.20, 2)
	if len(results) != 1 || !results[0].regress {
		t.Fatalf("0 -> 3 (above slack) not flagged: %+v", results)
	}
}

func TestCompareTimeGate(t *testing.T) {
	oldRecs := mustParse(t, `{"experiment":"NET","title":"t","row":{"config":"remote x1","algorithm":"mis","mean us/query":"3000"}}
{"experiment":"NET","title":"t","row":{"config":"local","algorithm":"mis","mean us/query":"3"}}
{"experiment":"NET","title":"t","row":{"config":"sharded x2","algorithm":"mis","mean us/query":"2000"}}
`)
	newRecs := mustParse(t, `{"experiment":"NET","title":"t","row":{"config":"remote x1","algorithm":"mis","mean us/query":"9000"}}
{"experiment":"NET","title":"t","row":{"config":"local","algorithm":"mis","mean us/query":"9"}}
{"experiment":"NET","title":"t","row":{"config":"sharded x2","algorithm":"mis","mean us/query":"3500"}}
`)
	results := compareTime(oldRecs, newRecs, "mean us/query", 1.0, 500)
	if len(results) != 3 {
		t.Fatalf("compared %d scenarios, want 3", len(results))
	}
	for _, r := range results {
		switch {
		case strings.Contains(r.key, "remote x1"):
			// 3000 -> 9000 is +200%, above the +100% gate and the floor.
			if !r.regress {
				t.Fatalf("large wall-clock regression not flagged: %+v", r)
			}
		case strings.Contains(r.key, "local"):
			// 3 -> 9 triples but sits under the absolute floor: noise.
			if r.regress {
				t.Fatalf("tiny row tripped the time gate despite the floor: %+v", r)
			}
		case strings.Contains(r.key, "sharded"):
			// 2000 -> 3500 is +75%, inside the generous tolerance.
			if r.regress {
				t.Fatalf("+75%% flagged by a +100%% gate: %+v", r)
			}
		}
	}
}

func TestCompareTimeGateSkipsUnbaselined(t *testing.T) {
	newRecs := mustParse(t, `{"experiment":"NET","title":"t","row":{"config":"remote x1 prefetch","algorithm":"mis","mean us/query":"9000"}}`)
	if results := compareTime(nil, newRecs, "mean us/query", 1.0, 500); len(results) != 0 {
		t.Fatalf("unbaselined rows must not be time-gated: %+v", results)
	}
}

func TestCompareHotPathAllocGate(t *testing.T) {
	// The SRC sweep's allocs/probe column, gated at CI's +100% +2 slack:
	// the zero-alloc steady state has headroom for measurement jitter but
	// a real per-probe allocation (one alloc per probe = 1.0+) must trip.
	oldRecs := mustParse(t, `{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-mmap+lru","algorithm":"mis","n":"1000000","allocs/probe":"0.000"}}
{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-cold","algorithm":"mis","n":"1000000","allocs/probe":"0.002"}}
`)
	newRecs := mustParse(t, `{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-mmap+lru","algorithm":"mis","n":"1000000","allocs/probe":"3.100"}}
{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-cold","algorithm":"mis","n":"1000000","allocs/probe":"0.180"}}
`)
	results, _, _ := compare(oldRecs, newRecs, "allocs/probe", 1.0, 2)
	if len(results) != 2 {
		t.Fatalf("compared %d scenarios, want 2", len(results))
	}
	for _, r := range results {
		switch {
		case strings.Contains(r.key, "csr-mmap+lru"):
			// 0 -> 3.1 allocs/probe: the arena path started allocating.
			if !r.regress {
				t.Fatalf("lost zero-alloc steady state not flagged: %+v", r)
			}
		case strings.Contains(r.key, "csr-cold"):
			// 0.002 -> 0.18 stays inside the absolute slack: jitter.
			if r.regress {
				t.Fatalf("alloc jitter tripped the gate despite slack: %+v", r)
			}
		}
	}
}

func TestCompareHotPathTimeGate(t *testing.T) {
	// The SRC sweep's ns/probe column, gated at CI's +100% +100ns slack:
	// the mmap backend collapsing back to cold-read latency must trip,
	// while wall-clock noise on an already-cheap row must not.
	oldRecs := mustParse(t, `{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-mmap","algorithm":"mis","n":"1000000","ns/probe":"23.3"}}
{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-cold","algorithm":"mis","n":"1000000","ns/probe":"600.0"}}
`)
	newRecs := mustParse(t, `{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-mmap","algorithm":"mis","n":"1000000","ns/probe":"580.0"}}
{"experiment":"SRC","title":"t","row":{"source":"circulant","config":"csr-cold","algorithm":"mis","n":"1000000","ns/probe":"900.0"}}
`)
	results, _, _ := compare(oldRecs, newRecs, "ns/probe", 1.0, 100)
	if len(results) != 2 {
		t.Fatalf("compared %d scenarios, want 2", len(results))
	}
	for _, r := range results {
		switch {
		case strings.Contains(r.key, "csr-mmap"):
			// 23 -> 580: mmap probes now cost what cold reads cost.
			if !r.regress {
				t.Fatalf("mmap probe-latency collapse not flagged: %+v", r)
			}
		case strings.Contains(r.key, "csr-cold"):
			// 600 -> 900 is +50%, inside the generous +100% gate.
			if r.regress {
				t.Fatalf("+50%% tripped a +100%% gate: %+v", r)
			}
		}
	}
}

func TestCompareUnparseableMetricSkipped(t *testing.T) {
	oldRecs := mustParse(t, `{"experiment":"E1","title":"t","row":{"construction":"3-spanner","stretch<=":"3 ok","mean probes":"-"}}`)
	newRecs := mustParse(t, `{"experiment":"E1","title":"t","row":{"construction":"3-spanner","stretch<=":"3 ok","mean probes":"12"}}`)
	results, _, onlyNew := compare(oldRecs, newRecs, "mean probes", 0.20, 2)
	if len(results) != 0 {
		t.Fatalf("unparseable baseline compared anyway: %+v", results)
	}
	if len(onlyNew) != 1 {
		t.Fatalf("row with fresh parseable value should be reported as ungated, got %v", onlyNew)
	}
}

// TestHistoryTable reads a two-file trajectory: files print in the order
// of the number in their names, one row per workload/metric, with the
// change/parent ratio ("-" over a zero parent).
func TestHistoryTable(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"BENCH_16.json": `{"parent": "b", "pairs": {"fleet-prefetch": 2}, "seeds": {"fleet-prefetch": [1, 2]},
			"provenance": {"gomaxprocs": 2, "nproc": 2, "cpu_model": "x", "go_version": "go1.24.0"},
			"workloads": {"fleet-prefetch": {
				"throughput_qps": {"parent": 400, "change": 900, "unit": "1/s"},
				"latency_p99_us": {"parent": 40000, "change": 10000, "unit": "us"}}}}`,
		"BENCH_9.json": `{"parent": "a", "pairs": {"assemble": 1}, "workloads": {"assemble": {
				"setup_s": {"parent": 0, "change": 1, "unit": "s"}}}}`,
	}
	var paths []string
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	sort.Strings(paths) // lexical: BENCH_16 before BENCH_9
	var out strings.Builder
	if err := history(&out, paths); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a header and 3 rows, got:\n%s", out.String())
	}
	for i, want := range [][]string{
		{"BENCH_9.json", "assemble", "setup_s", "s", "-"},
		{"BENCH_16.json", "fleet-prefetch", "latency_p99_us", "us", "0.250"},
		{"BENCH_16.json", "fleet-prefetch", "throughput_qps", "1/s", "2.250"},
	} {
		got := strings.Fields(lines[i+1])
		if len(got) != 7 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] || got[6] != want[4] {
			t.Errorf("row %d = %q, want file %s, %s/%s in %s, ratio %s", i, lines[i+1], want[0], want[1], want[2], want[3], want[4])
		}
	}
	if err := history(&out, []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("a missing file read without error")
	}
}
