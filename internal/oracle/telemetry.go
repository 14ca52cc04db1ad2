package oracle

// The telemetry record. Every transport and cache figure an oracle chain
// produces lives in one struct, under one name per figure. Layers that
// produce figures of their own implement Meter; pass-through wrappers
// implement Unwrap (the errors.Unwrap idiom), so one walk down a chain
// reaches every meter and ends at the source, whose producers
// (source.RoundTripCounter, FailoverCounter, AttestCounter and, through
// source.LocalityOf, LocalityReporter) are read once, there. Counter runs
// that walk, and Stats embeds the record.

import (
	"reflect"
	"strings"
	"unsafe"

	"lca/internal/source"
)

// Telemetry is one reading of a chain's transport and cache figures. A
// field's JSON name is its name on every surface: serve answers embed the
// struct, /metrics exports each counter as serve_<name>_total, and
// QueryStats.String prints name=value. Every field is a monotone counter
// except the one tagged telemetry:"gauge", a level that sums and deltas
// carry over instead of adding or subtracting. Adding a figure means
// adding one tagged uint64 field here: TelemetryFields, Add, Sub and the
// surfaces all follow from the struct.
type Telemetry struct {
	// RoundTrips counts backend network round trips
	// (source.RoundTripCounter; 0 on local chains).
	RoundTrips uint64 `json:"round_trips,omitempty"`
	// Failovers counts probe operations a sharded backend served away from
	// their rendezvous replica, and Hedges the hedged requests it fired
	// (source.FailoverCounter).
	Failovers uint64 `json:"failovers,omitempty"`
	Hedges    uint64 `json:"hedges,omitempty"`
	// AttestFailures counts probe answers that failed verification against
	// a pinned graph commitment, and ProofBytes the Merkle proof bytes
	// transported with attested answers (source.AttestCounter).
	AttestFailures uint64 `json:"attest_failures,omitempty"`
	ProofBytes     uint64 `json:"proof_bytes,omitempty"`
	// RemainderTrips counts the extra batches a prefetching tier issued
	// because a row outgrew its speculative width; FetchWidth is that
	// width now (PrefetchOracle).
	RemainderTrips uint64 `json:"remainder_trips,omitempty"`
	FetchWidth     uint64 `json:"fetch_width,omitempty" telemetry:"gauge"`
	// PageTouches counts backend loads that landed on a different page
	// than the load before them, and LocalHits those that stayed on it
	// (source.LocalityReporter; the mmap CSR backend).
	PageTouches uint64 `json:"page_touches,omitempty"`
	LocalHits   uint64 `json:"local_hits,omitempty"`
	// L1Hits counts rows the tiered row cache served from its per-chain
	// store, and L2Hits those served from its shared cache (TieredOracle).
	L1Hits uint64 `json:"l1_hits,omitempty"`
	L2Hits uint64 `json:"l2_hits,omitempty"`
}

// TelemetryField is one row of the telemetry name table.
type TelemetryField struct {
	// Name is the field's JSON name.
	Name string
	// Gauge marks a level; every other field is a counter.
	Gauge bool
	off   uintptr
}

// TelemetryFields is the name table: one row per Telemetry field, in
// declaration order, read from the struct's tags at start-up.
var TelemetryFields = telemetryTable()

func telemetryTable() []TelemetryField {
	rt := reflect.TypeFor[Telemetry]()
	fs := make([]TelemetryField, rt.NumField())
	for i := range fs {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() != reflect.Uint64 || name == "" {
			panic("oracle: Telemetry field " + f.Name + " must be a uint64 with a JSON name")
		}
		fs[i] = TelemetryField{Name: name, Gauge: f.Tag.Get("telemetry") == "gauge", off: f.Offset}
	}
	return fs
}

// Value returns the field's figure in t.
func (f TelemetryField) Value(t *Telemetry) uint64 { return *f.in(t) }

// in addresses the field inside t by its offset. A table of accessor
// funcs would be an indirect call, which moves every record it touches
// to the heap; the offset keeps readings allocation-free.
func (f TelemetryField) in(t *Telemetry) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(t), f.off))
}

// Add folds u into t: counters sum, and the gauge takes u's reading when
// u has one.
func (t *Telemetry) Add(u Telemetry) {
	for _, f := range TelemetryFields {
		v := f.Value(&u)
		switch {
		case !f.Gauge:
			*f.in(t) += v
		case v > 0:
			*f.in(t) = v
		}
	}
}

// Sub returns t - u for the counters, for before/after deltas; the gauge
// keeps t's reading, the newer of the two.
func (t Telemetry) Sub(u Telemetry) Telemetry {
	for _, f := range TelemetryFields {
		if !f.Gauge {
			*f.in(&t) -= f.Value(&u)
		}
	}
	return t
}

// Meter is the optional capability of an oracle layer that produces
// figures of its own (PrefetchOracle, TieredOracle): Measure adds the
// layer's current readings into t, setting the gauge.
type Meter interface {
	Measure(t *Telemetry)
}

// unwrap returns the oracle that o passes probes through to, or nil when
// o has no Unwrap method — the bottom of its chain, normally the source.
func unwrap(o Oracle) Oracle {
	u, ok := o.(interface{ Unwrap() Oracle })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// bottom returns the last oracle of o's Unwrap chain.
func bottom(o Oracle) Oracle {
	for u := unwrap(o); u != nil; u = unwrap(o) {
		o = u
	}
	return o
}

// chainMeter reads one chain's telemetry: the meters down the chain,
// then the producers of the source at its bottom. Both are found by one
// walk at construction — a chain does not change once built.
type chainMeter struct {
	meters []Meter // top first
	rt     source.RoundTripCounter
	fo     source.FailoverCounter
	ac     source.AttestCounter
	lr     source.LocalityReporter
	base   Telemetry // the reading at construction or the last reset
	// t holds the reading in progress. Meters are called through an
	// interface, which would move a record on the stack to the heap.
	t Telemetry
}

// newChainMeter returns the meter of top's chain, or nil when the chain
// produces no telemetry at all (no meters, a source without producers).
func newChainMeter(top Oracle) *chainMeter {
	var meters []Meter
	src := top
	for o := top; o != nil; o = unwrap(o) {
		if mt, ok := o.(Meter); ok {
			meters = append(meters, mt)
		}
		src = o
	}
	rt, _ := src.(source.RoundTripCounter)
	fo, _ := src.(source.FailoverCounter)
	ac, _ := src.(source.AttestCounter)
	lr, _ := source.LocalityOf(src)
	if meters == nil && rt == nil && fo == nil && ac == nil && lr == nil {
		return nil
	}
	m := &chainMeter{meters: meters, rt: rt, fo: fo, ac: ac, lr: lr}
	m.reset()
	return m
}

// reset rebaselines the deltas at the chain's current reading.
func (m *chainMeter) reset() { m.base = *m.read() }

// delta returns the chain's telemetry since construction or the last reset.
func (m *chainMeter) delta() Telemetry { return m.read().Sub(m.base) }

// read returns the chain's current telemetry, valid until the next read.
func (m *chainMeter) read() *Telemetry {
	m.t = Telemetry{}
	for _, mt := range m.meters {
		mt.Measure(&m.t)
	}
	if m.rt != nil {
		m.t.RoundTrips += m.rt.RoundTrips()
	}
	if m.fo != nil {
		m.t.Failovers += m.fo.Failovers()
		m.t.Hedges += m.fo.Hedges()
	}
	if m.ac != nil {
		m.t.AttestFailures += m.ac.AttestFailures()
		m.t.ProofBytes += m.ac.ProofBytes()
	}
	if m.lr != nil {
		m.t.PageTouches += m.lr.PageTouches()
		m.t.LocalHits += m.lr.LocalHits()
	}
	return &m.t
}
