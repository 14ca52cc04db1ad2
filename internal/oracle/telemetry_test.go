package oracle

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lca/internal/graph"
	"lca/internal/source"
)

// TestTelemetryTable pins the name table to the struct it is read from —
// one row per field, in order, under the field's JSON name — and the
// arithmetic written over it.
func TestTelemetryTable(t *testing.T) {
	rt := reflect.TypeFor[Telemetry]()
	if len(TelemetryFields) != rt.NumField() {
		t.Fatalf("%d table rows for %d fields", len(TelemetryFields), rt.NumField())
	}
	var probe Telemetry
	pv := reflect.ValueOf(&probe).Elem()
	for i, f := range TelemetryFields {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); f.Name != name {
			t.Errorf("row %d is %q, field %s is %q", i, f.Name, rt.Field(i).Name, name)
		}
		pv.Field(i).SetUint(uint64(100 + i))
		if got := f.Value(&probe); got != uint64(100+i) {
			t.Errorf("%s: Value reads %d, want field %s's %d", f.Name, got, rt.Field(i).Name, 100+i)
		}
	}

	a := Telemetry{RoundTrips: 5, Hedges: 2, L2Hits: 1}
	a.Add(Telemetry{RoundTrips: 3, L1Hits: 16, L2Hits: 4})
	if a != (Telemetry{RoundTrips: 8, Hedges: 2, L1Hits: 16, L2Hits: 5}) {
		t.Fatalf("Add = %+v", a)
	}
	d := a.Sub(Telemetry{RoundTrips: 4, L1Hits: 8, L2Hits: 5})
	if d != (Telemetry{RoundTrips: 4, Hedges: 2, L1Hits: 8}) {
		t.Fatalf("Sub = %+v", d)
	}
}

// TestCounterStatsAllocs pins the chain walk allocation-free: reading
// Counter.Stats over the hot path's full chain — budget and the row
// tier with its L2 over an mmap CSR file — allocates nothing, so
// harnesses that read it around every query add no GC work.
func TestCounterStatsAllocs(t *testing.T) {
	g := tierGraph(500, 6)
	path := filepath.Join(t.TempDir(), "g.csr")
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
	src, err := source.OpenCSRMmap(path)
	if errors.Is(err, source.ErrMmapUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c := NewCounter(NewChain(src, ChainConfig{RowCache: NewRowCache(256), ProbeBudget: 1 << 40}))
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < 50; v++ {
			c.Neighbors(v)
		}
	}
	var st Stats
	allocs := testing.AllocsPerRun(1000, func() { st = c.Stats() })
	if allocs != 0 {
		t.Fatalf("Counter.Stats allocates %v per call", allocs)
	}
	if st.PageTouches+st.LocalHits == 0 || st.L1Hits == 0 {
		t.Fatalf("the chain's telemetry never reached the counter: %+v", st.Telemetry)
	}
}
