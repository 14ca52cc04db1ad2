package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 50}, {1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 50 && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%d has fewer than %d samples beyond it", tc.n, p, minBeyond)
		}
	}
}

func TestSummaryPrintsPercentileAndSampleCount(t *testing.T) {
	ns := make([]int64, 500)
	for i := range ns {
		ns[i] = int64(i+1) * int64(time.Microsecond)
	}
	s := summarize(ns)
	if s.tailP != 95 || s.n != 500 {
		t.Fatalf("summary picked p%d over n=%d, want p95 over 500", s.tailP, s.n)
	}
	if s.p50 != 250*time.Microsecond || s.tail != 475*time.Microsecond {
		t.Fatalf("p50=%v p95=%v, want 250us and 475us (nearest rank)", s.p50, s.tail)
	}
	str := s.String()
	for _, want := range []string{"p95=", "n=500"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary %q lacks %q", str, want)
		}
	}
}

// fakeClock advances only when the test's operations say so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	clk := &fakeClock{}
	timings := closedLoop(1, 10*time.Millisecond, 0, clk, func(c, i int) { clk.advance(4 * time.Millisecond) })
	if len(timings[0]) != 3 {
		t.Fatalf("closed loop sent %d operations in 10ms at 4ms each, want 3", len(timings[0]))
	}
	for i, tm := range timings[0] {
		if tm.sent != time.Duration(4*i)*time.Millisecond || tm.latency() != 4*time.Millisecond {
			t.Errorf("op %d sent %v latency %v, want %v and 4ms", i, tm.sent, tm.latency(), time.Duration(4*i)*time.Millisecond)
		}
	}
}

func TestClosedLoopFixedWorkStopsAtOpsOrCap(t *testing.T) {
	clk := &fakeClock{}
	timings := closedLoop(2, time.Second, 5, clk, func(c, i int) { clk.advance(time.Millisecond) })
	for c, ts := range timings {
		if len(ts) != 5 {
			t.Errorf("client %d ran %d operations, want its 5", c, len(ts))
		}
	}
	clk = &fakeClock{}
	timings = closedLoop(1, 10*time.Millisecond, 100, clk, func(c, i int) { clk.advance(4 * time.Millisecond) })
	if len(timings[0]) != 3 {
		t.Errorf("a fixed-work loop past its time cap ran %d operations, want 3", len(timings[0]))
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {20, 50}, // two shards answering at once: overlap counts once
		{15, 25},   // nested inside the first
		{60, 70},   // disjoint
		{90, 120},  // runs past the parent's end: clipped
		{130, 140}, // outside the parent entirely
	}
	if got := unionWithin(children, parent.start, parent.end); got != 60 {
		t.Fatalf("union = %d, want 60 ([10,50] + [60,70] + [90,100])", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
