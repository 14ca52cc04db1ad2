package main

// The traced run's instruments. Every span is recorded by the benchmark's
// own code around calls into a layer's exported surface — an HTTP
// middleware around each handler, an http.RoundTripper around each shard
// round trip, a source shim around each backend call, and the caller's
// own clock around each operation and each Session or Build call. Spans
// are kept in memory and written when the run ends.
//
// Backend calls are too many to keep one by one (a dense spanner query
// makes thousands), so the shim folds the calls made under one parent
// span into one aggregate span carrying the call count and the summed
// duration. The calls under one parent run one after another, so the sum
// equals their union.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lca/internal/rnd"
	"lca/internal/source"
)

// Span layers.
const (
	layerOp      = "op"      // one caller operation; on spanner-dense, the Session call
	layerBuild   = "build"   // one Session.Build* call (core assembly)
	layerHandler = "handler" // the serve handler the caller talks to
	layerTrip    = "trip"    // one client round trip to a shard
	layerShard   = "shard"   // a shard's serve handler (the /probe plane)
	layerSource  = "source"  // backend calls, aggregated per parent
)

// spanHeader carries the parent span ID across an HTTP hop.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Aggregate spans (layer source) carry Calls and a
// duration equal to the summed call time, laid out from the parent's
// start.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"`
	ReqBytes int64  `json:"req_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder collects spans in memory.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh log.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, 1<<16)
	return out
}

// addSource records the shim's calls since the last flush as one
// aggregate child of parent.
func (r *recorder) addSource(sh *shim, parent, start int64) {
	calls, ns := sh.flush()
	if calls == 0 {
		return
	}
	r.add(span{ID: r.newID(), Parent: parent, Layer: layerSource, Start: start, End: start + ns, Calls: calls})
}

// middleware records a span of the given layer around every request
// next serves. The parent comes from the request's span header. When
// current is non-nil the span's ID is published there while the handler
// runs (a traced pass has one request in flight per handler, so spans
// started inside — round trips — can find their parent); when sh is
// non-nil the backend calls made while the handler runs become its
// aggregate source child.
func (r *recorder) middleware(layer string, next http.Handler, current *atomic.Int64, sh *shim) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		id := r.newID()
		if current != nil {
			current.Store(id)
		}
		if sh != nil {
			sh.flush()
		}
		start := r.now()
		next.ServeHTTP(w, req)
		end := r.now()
		if sh != nil {
			r.addSource(sh, id, start)
		}
		r.add(span{ID: id, Parent: parent, Layer: layer, Name: req.URL.Path, Start: start, End: end})
	})
}

// tripRecorder is the http.RoundTripper handed to source.OpenRemote: it
// records one span per round trip, parented under the handler span
// published in parent, and tells the shard its ID in the span header.
type tripRecorder struct {
	rec    *recorder
	parent *atomic.Int64
	next   http.RoundTripper
	// respBytes sums response body bytes read by the client.
	respBytes atomic.Int64
}

func (t *tripRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := t.rec.now()
	resp, err := t.next.RoundTrip(out)
	end := t.rec.now()
	reqBytes := int64(len(req.URL.RequestURI()))
	if req.ContentLength > 0 {
		reqBytes += req.ContentLength
	}
	t.rec.add(span{ID: id, Parent: t.parent.Load(), Layer: layerTrip, Name: req.URL.Path, Start: start, End: end, ReqBytes: reqBytes})
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
	return resp, nil
}

// countingBody adds the bytes read through it to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// shim is a source.Source that forwards every call to inner and times
// it. It forwards every capability: the dynamic view (Caps) is built
// from inner's accessors, and the static interfaces the library
// type-asserts on local sources (LocalityReporter, Closer) forward to
// inner, reporting zero locality when inner has none — which is what the
// library reads for a source without the capability. N is free in the
// model and is forwarded untimed.
type shim struct {
	inner source.Source
	caps  source.Caps
	epoch time.Time
	calls atomic.Int64
	ns    atomic.Int64
}

var (
	_ source.CapSource        = (*shim)(nil)
	_ source.LocalityReporter = (*shim)(nil)
	_ source.Closer           = (*shim)(nil)
)

func newShim(inner source.Source) *shim {
	s := &shim{inner: inner, epoch: time.Now()}
	if ec, ok := source.EdgeCounterOf(inner); ok {
		s.caps.M = ec.M
	}
	if db, ok := source.DegreeBounderOf(inner); ok {
		s.caps.MaxDegree = db.MaxDegree
	}
	if re, ok := source.RandomEdgerOf(inner); ok {
		s.caps.RandomEdge = func(prg *rnd.PRG) (u, v int) {
			defer s.observe(s.clock())
			return re.RandomEdge(prg)
		}
	}
	if rf, ok := source.RowFetcherOf(inner); ok {
		s.caps.FetchRows = func(vs []int) ([][]int, error) {
			defer s.observe(s.clock())
			return rf.FetchRows(vs)
		}
	}
	if _, ok := source.HealthOf(inner); ok {
		s.caps.Health = func() []source.ShardHealth {
			h, _ := source.HealthOf(inner)
			return h
		}
	}
	if at, ok := source.AttestorOf(inner); ok {
		s.caps.Attest = func() source.Attestor { return at }
	}
	if lr, ok := source.LocalityOf(inner); ok {
		s.caps.Locality = func() (uint64, uint64) { return lr.PageTouches(), lr.LocalHits() }
	}
	return s
}

func (s *shim) clock() int64 { return int64(time.Since(s.epoch)) }

func (s *shim) observe(start int64) {
	s.ns.Add(s.clock() - start)
	s.calls.Add(1)
}

// flush returns the calls and nanoseconds observed since the last flush.
func (s *shim) flush() (calls, ns int64) {
	return s.calls.Swap(0), s.ns.Swap(0)
}

func (s *shim) N() int { return s.inner.N() }

func (s *shim) Degree(v int) int {
	t := s.clock()
	d := s.inner.Degree(v)
	s.observe(t)
	return d
}

func (s *shim) Neighbor(v, i int) int {
	t := s.clock()
	w := s.inner.Neighbor(v, i)
	s.observe(t)
	return w
}

func (s *shim) Adjacency(u, v int) int {
	t := s.clock()
	i := s.inner.Adjacency(u, v)
	s.observe(t)
	return i
}

func (s *shim) Caps() source.Caps { return s.caps }

func (s *shim) PageTouches() uint64 {
	if s.caps.Locality == nil {
		return 0
	}
	t, _ := s.caps.Locality()
	return t
}

func (s *shim) LocalHits() uint64 {
	if s.caps.Locality == nil {
		return 0
	}
	_, h := s.caps.Locality()
	return h
}

func (s *shim) Close() error {
	if c, ok := s.inner.(source.Closer); ok {
		return c.Close()
	}
	return nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
