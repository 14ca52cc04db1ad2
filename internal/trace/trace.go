// Package trace is the probe-level tracing plane: per-query span trees
// from the Session (or serving tier) root down through the oracle layer
// to individual shard round trips, stitched across the probe wire.
//
// Where internal/metrics answers "how is the fleet doing" in aggregate,
// a trace answers "why was *this* query slow": which probes it issued,
// which were cache hits, which round trips failed over or were hedged,
// and how long each leg took. The design discipline is the same o(n)
// bound the LCA model imposes on algorithms (Alon–Rubinfeld–Vardi–Xie,
// space-efficient LCAs): spans are fixed-size, every tracer is capped at
// a constant number of spans, retention is a bounded ring, and tracing
// is head-sampled — so the plane's memory is O(1) in traffic and graph
// size.
//
// The zero tracer is the disabled plane: every method on a nil *Tracer
// is a no-op that performs no allocation and reads no clock, so
// un-traced queries pay a single pointer test per instrumentation site.
//
// Context propagates over the probe wire in the X-LCA-Trace header
// (Header, FormatHeader, ParseHeader); a shard records its own spans
// into a fresh Tracer and returns them in the probe response, and the
// client grafts them under its round-trip span with Merge, renumbering
// IDs so the stitched tree is consistent without cross-process ID
// coordination. See docs/WIRE.md for the header contract.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP header carrying trace context across probe hops:
// "<16 hex trace id>-<8 hex parent span id>". Optional on every
// request; shards that do not understand it serve probes unchanged.
const Header = "X-LCA-Trace"

// DefaultMaxSpans caps a tracer's span count when the caller passes a
// non-positive max. A capped tracer drops further spans (counted, and
// flagged Truncated in the exported Record) rather than growing.
const DefaultMaxSpans = 4096

// Span is one timed operation in a trace. IDs are per-tracer sequential
// (dense, starting at 1); Parent 0 marks a root-level span. Target is
// the vertex or row the operation concerned, -1 when it has none.
// Start is µs since the Unix epoch and Duration is µs; Tags carry
// outcome markers such as "cache-hit", "failover", "hedge-won" or
// "batch=64".
type Span struct {
	ID       uint32   `json:"id"`
	Parent   uint32   `json:"parent,omitempty"`
	Op       string   `json:"op"`
	Target   int      `json:"target"`
	Start    int64    `json:"start_us"`
	Duration int64    `json:"duration_us"`
	Tags     []string `json:"tags,omitempty"`
}

// Handle refers to a started span; End completes it. The zero Handle
// (returned by a nil or saturated tracer) is valid and ends nothing.
type Handle struct {
	id    uint32
	start int64
}

// ID returns the span's id, 0 for the zero Handle.
func (h Handle) ID() uint32 { return h.id }

// Tracer records one query's span tree. All methods are safe for
// concurrent use and are no-ops on a nil receiver. A tracer holds at
// most max spans; beyond that Start returns the zero Handle and the
// drop is counted.
//
// Serial layers (the query root, the oracle stack) may use Push/Pop to
// maintain an implicit current parent; concurrent fan-out (hedged
// probes, per-shard batches) must capture Parent() before spawning and
// use StartUnder, since the implicit parent is shared state.
type Tracer struct {
	id uint64

	mu      sync.Mutex
	spans   []Span
	next    uint32 // last allocated span id; ids are dense 1..len(spans)
	parent  uint32 // implicit parent for Start
	stack   []uint32
	dropped uint64
	max     int
}

// New returns a tracer for the given trace id holding at most max
// spans (DefaultMaxSpans when max <= 0).
func New(id uint64, max int) *Tracer {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Tracer{id: id, max: max}
}

var idCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

// NewID returns a fresh process-unique trace id: a random base advanced
// by an atomic counter, so ids never collide within a process and
// collide across processes with probability 2^-64 per pair.
func NewID() uint64 {
	id := idCounter.Add(1)
	if id == 0 { // 0 is reserved for "no trace"
		id = idCounter.Add(1)
	}
	return id
}

// ID returns the trace id, 0 for a nil tracer.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// IDString returns the canonical 16-hex-digit form of the trace id,
// "" for a nil tracer.
func (t *Tracer) IDString() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.id)
}

// Root opens a query's root span: a parentless op span over target,
// tagged with the algorithm that answers it, and pushed as the implicit
// parent, so every span the layers below record nests under it. Close it
// with EndRoot.
func (t *Tracer) Root(op string, target int, algo string) Handle {
	if t == nil {
		return Handle{}
	}
	h := t.StartUnder(0, op, target)
	t.Tag(h, "algo="+algo)
	t.Push(h)
	return h
}

// EndRoot closes a root span opened by Root, tagging it error when the
// query failed.
func (t *Tracer) EndRoot(h Handle, err error) {
	if t == nil {
		return
	}
	t.Pop()
	if err != nil {
		t.End(h, "error")
		return
	}
	t.End(h)
}

// Start opens a span under the current implicit parent.
func (t *Tracer) Start(op string, target int) Handle {
	if t == nil {
		return Handle{}
	}
	now := time.Now().UnixMicro()
	t.mu.Lock()
	h := t.startLocked(t.parent, op, target, now)
	t.mu.Unlock()
	return h
}

// StartUnder opens a span under an explicit parent span id (0 for a
// root-level span). This is the form for concurrent fan-out, where the
// implicit parent cannot be trusted.
func (t *Tracer) StartUnder(parent uint32, op string, target int) Handle {
	if t == nil {
		return Handle{}
	}
	now := time.Now().UnixMicro()
	t.mu.Lock()
	h := t.startLocked(parent, op, target, now)
	t.mu.Unlock()
	return h
}

func (t *Tracer) startLocked(parent uint32, op string, target int, now int64) Handle {
	if len(t.spans) >= t.max {
		t.dropped++
		return Handle{}
	}
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Op: op, Target: target, Start: now})
	return Handle{id: t.next, start: now}
}

// End completes a started span, recording its duration and appending
// any outcome tags. Ending the zero Handle is a no-op.
func (t *Tracer) End(h Handle, tags ...string) {
	if t == nil || h.id == 0 {
		return
	}
	now := time.Now().UnixMicro()
	t.mu.Lock()
	if i := int(h.id) - 1; i >= 0 && i < len(t.spans) {
		t.spans[i].Duration = now - h.start
		if len(tags) > 0 {
			t.spans[i].Tags = append(t.spans[i].Tags, tags...)
		}
	}
	t.mu.Unlock()
}

// Tag appends outcome tags to a started (possibly still open) span.
func (t *Tracer) Tag(h Handle, tags ...string) {
	if t == nil || h.id == 0 || len(tags) == 0 {
		return
	}
	t.mu.Lock()
	if i := int(h.id) - 1; i >= 0 && i < len(t.spans) {
		t.spans[i].Tags = append(t.spans[i].Tags, tags...)
	}
	t.mu.Unlock()
}

// Event records an instantaneous zero-duration span — a point marker
// such as "budget-exhausted" — under the current implicit parent.
func (t *Tracer) Event(op string, target int, tags ...string) {
	if t == nil {
		return
	}
	now := time.Now().UnixMicro()
	t.mu.Lock()
	h := t.startLocked(t.parent, op, target, now)
	if h.id != 0 && len(tags) > 0 {
		t.spans[h.id-1].Tags = append(t.spans[h.id-1].Tags, tags...)
	}
	t.mu.Unlock()
}

// Push makes h the implicit parent for subsequent Start/Event calls;
// Pop restores the previous parent. Push/Pop must pair (defer Pop) and
// are only meaningful on serial layers.
func (t *Tracer) Push(h Handle) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stack = append(t.stack, t.parent)
	t.parent = h.id
	t.mu.Unlock()
}

// Pop restores the implicit parent saved by the matching Push.
func (t *Tracer) Pop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		t.parent = t.stack[n-1]
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// Parent returns the current implicit parent span id (0 at the root).
func (t *Tracer) Parent() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	p := t.parent
	t.mu.Unlock()
	return p
}

// Merge grafts spans recorded by another tracer (typically a shard's,
// carried back in a probe response) under the given parent span id.
// Incoming ids are renumbered into this tracer's sequence and internal
// parent references remapped; incoming root-level spans (Parent 0)
// attach under parent. Spans beyond the cap are dropped and counted.
func (t *Tracer) Merge(parent uint32, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idmap := make(map[uint32]uint32, len(spans))
	for _, s := range spans {
		if len(t.spans) >= t.max {
			t.dropped += uint64(len(spans) - len(idmap))
			return
		}
		t.next++
		idmap[s.ID] = t.next
		p := parent
		if s.Parent != 0 {
			if m, ok := idmap[s.Parent]; ok {
				p = m
			}
		}
		s.ID, s.Parent = t.next, p
		// Tags were decoded fresh from JSON; no aliasing to copy away.
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of the recorded spans in id order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded at the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// FormatHeader renders trace context for the X-LCA-Trace header.
func FormatHeader(traceID uint64, parent uint32) string {
	return fmt.Sprintf("%016x-%08x", traceID, parent)
}

// ParseHeader parses an X-LCA-Trace value. It accepts exactly the
// FormatHeader form: 16 lowercase hex digits, '-', 8 lowercase hex
// digits. A malformed or absent value yields ok == false, which callers
// must treat as "not traced" — never an error, per the wire contract.
func ParseHeader(s string) (traceID uint64, parent uint32, ok bool) {
	if len(s) != 25 || s[16] != '-' {
		return 0, 0, false
	}
	var hi uint64
	for i := 0; i < 16; i++ {
		d, ok := hexDigit(s[i])
		if !ok {
			return 0, 0, false
		}
		hi = hi<<4 | uint64(d)
	}
	var lo uint32
	for i := 17; i < 25; i++ {
		d, ok := hexDigit(s[i])
		if !ok {
			return 0, 0, false
		}
		lo = lo<<4 | uint32(d)
	}
	if hi == 0 {
		return 0, 0, false
	}
	return hi, lo, true
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
