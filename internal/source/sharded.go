package source

// Sharded: one Source fronting N replica shards. Every shard answers
// probes about the same graph (same spec, same seed — replicas of one
// lcaserve fleet, or any mix of local and remote backends); rendezvous
// hashing on the probed vertex routes each probe to one shard, so a fleet
// splits the probe load ~uniformly while keeping per-vertex affinity —
// the shard that answered Degree(v) also answers v's Neighbor probes, so
// any per-shard page cache or memo stays hot. The fleet caches nothing:
// repeated reads are absorbed above it by the oracle layer's row tier.
//
// Because replicas are interchangeable, the fleet survives them failing:
// a probe whose rendezvous shard errors is failed over to the next-ranked
// live replica, a shard past the consecutive-failure threshold is marked
// dead and its keys re-routed until a background half-open re-probe
// (health.go) revives it, and an optional hedge delay fires a second
// request at the next-ranked replica when the first is slow — first
// response wins, the loser is cancelled. Only scalar probes are hedged;
// row fetches fail over but never hedge. Probes error only when no live
// replica can serve them. Failovers and hedges are counted (the
// FailoverCounter capability) but never change answers.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"lca/internal/attest"
	"lca/internal/rnd"
	"lca/internal/trace"
)

// Failure-handling defaults, overridable per fleet with the options below.
const (
	// DefaultFailureThreshold is the consecutive-failure count that marks
	// a shard dead.
	DefaultFailureThreshold = 3
	// DefaultReviveMin / DefaultReviveMax bound the reviver's jittered
	// exponential backoff between half-open re-probes of a dead shard.
	DefaultReviveMin = 250 * time.Millisecond
	DefaultReviveMax = 5 * time.Second
	// DefaultHedgeFloor / DefaultHedgeCeil bound the adaptive hedge delay
	// (WithAdaptiveHedge, hedge=adaptive): the p95-derived delay is
	// clamped into [floor, ceil], and the ceiling alone is used until the
	// latency sketch has enough samples to estimate a tail.
	DefaultHedgeFloor = time.Millisecond
	DefaultHedgeCeil  = 100 * time.Millisecond
)

// scopedProber is the internal seam between a fleet and its network
// shards: probes carry the issuer's probe scope (tally, tracer, parent
// span) down, so every shard request — failover retries and hedges
// included — is counted on the fleet or view that caused it, and a
// traced request's rpc spans land under the right probe span. *Remote
// implements it; shards without it (local backends, nested fleets) are
// probed through the plain Source interface.
type scopedProber interface {
	probeScoped(ctx context.Context, ps probeScope, op string, a, b int) (int, *ProbeError)
	randomEdgeScoped(ps probeScope, seed uint64) (int, int, *ProbeError)
	fetchRowsScoped(ps probeScope, vs []int) ([][]int, error)
}

// Sharded fans probes out across replica shards. Construct with
// NewSharded; the zero value is unusable. Safe for concurrent use when
// the shards are (every backend here is); the health state is per-shard
// locked.
//
// Optional capabilities (EdgeCounter, DegreeBounder, RandomEdger) are
// exposed on the dynamic capability view exactly when every shard has
// them; FetchRows (RowFetcher), Health (HealthReporter), Failovers/Hedges
// (FailoverCounter) and Scope (Scoper) are always present.
type Sharded struct {
	shards []Source
	labels []string
	n      int

	m, maxDeg       int
	hasM, hasMaxDeg bool
	hasRE           bool

	hedge         time.Duration
	adaptiveHedge bool
	hedgeFloor    time.Duration
	hedgeCeil     time.Duration
	lat           []*latencySketch // per-shard estimators, nil unless adaptive
	failThreshold int
	reviveMin     time.Duration
	reviveMax     time.Duration
	// reviveSleep and reviveJitter are the reviver's timing seams,
	// injectable so revival tests are deterministic instead of
	// wall-clock-and-global-PRNG dependent. reviveSleep waits for d (or
	// fleet shutdown, reporting false); reviveJitter draws the jitter
	// added to one backoff delay.
	reviveSleep  func(d time.Duration) bool
	reviveJitter func(backoff time.Duration) time.Duration

	health []*shardState
	stop   chan struct{}
	// reviveMu serializes reviver spawning against Close: wg.Add must
	// never race wg.Wait, even from detached hedge-loser harvesters that
	// can outlive the probe that spawned them.
	reviveMu sync.Mutex
	closed   bool
	wg       sync.WaitGroup
	// tally counts the traffic issued on the fleet and through its views:
	// the RoundTripCounter, FailoverCounter and AttestCounter capabilities.
	tally

	closeOnce sync.Once
	closeErr  error
}

var (
	_ Source           = (*Sharded)(nil)
	_ CapSource        = (*Sharded)(nil)
	_ Closer           = (*Sharded)(nil)
	_ RoundTripCounter = (*Sharded)(nil)
	_ HealthReporter   = (*Sharded)(nil)
	_ FailoverCounter  = (*Sharded)(nil)
	_ Scoper           = (*Sharded)(nil)
	_ AttestCounter    = (*Sharded)(nil)
)

// ShardedOption configures a Sharded at construction.
type ShardedOption func(*Sharded)

// WithHedge enables hedged scalar probes: when the rendezvous shard has
// not answered within d, the same probe is fired at the next-ranked live
// replica and the first response wins, the loser cancelled. 0 (the
// default) disables hedging. Replicas answer identically, so hedging
// never changes an answer — it trades a bounded amount of duplicate work
// for tail latency.
func WithHedge(d time.Duration) ShardedOption {
	return func(s *Sharded) {
		if d > 0 {
			s.hedge = d
		}
	}
}

// WithAdaptiveHedge enables adaptive hedged probes: instead of a fixed
// delay, each shard's hedge delay is derived from a rolling latency
// sketch over its recent successful probes — the p95, clamped into
// [floor, ceil] — so the fleet hedges exactly when a probe is slow *for
// that shard right now*, not against a guess made at deploy time. Until
// a shard has enough samples the ceiling is used (conservative: hedging
// late wastes less than hedging early duplicates). Non-positive floor
// and ceil take DefaultHedgeFloor/DefaultHedgeCeil; ceil is clamped up
// to floor. Overrides WithHedge's fixed delay.
func WithAdaptiveHedge(floor, ceil time.Duration) ShardedOption {
	return func(s *Sharded) {
		s.adaptiveHedge = true
		if floor <= 0 {
			floor = DefaultHedgeFloor
		}
		if ceil <= 0 {
			ceil = DefaultHedgeCeil
		}
		if ceil < floor {
			ceil = floor
		}
		s.hedgeFloor, s.hedgeCeil = floor, ceil
	}
}

// WithFailureThreshold sets how many consecutive failures mark a shard
// dead (default DefaultFailureThreshold). Values below 1 are ignored.
func WithFailureThreshold(k int) ShardedOption {
	return func(s *Sharded) {
		if k >= 1 {
			s.failThreshold = k
		}
	}
}

// WithRevival sets the reviver's backoff window between half-open
// re-probes of a dead shard (defaults DefaultReviveMin/DefaultReviveMax).
// Non-positive values are ignored; max is clamped up to min.
func WithRevival(min, max time.Duration) ShardedOption {
	return func(s *Sharded) {
		if min > 0 {
			s.reviveMin = min
		}
		if max > 0 {
			s.reviveMax = max
		}
		if s.reviveMax < s.reviveMin {
			s.reviveMax = s.reviveMin
		}
	}
}

// NewSharded combines replica shards into one Source. All shards must
// agree on the vertex count (they are replicas of one graph); the O(1)
// summary capabilities (EdgeCounter, DegreeBounder) are exposed exactly
// when every shard has them and they agree.
func NewSharded(shards []Source, opts ...ShardedOption) (Source, error) {
	return newSharded(shards, opts...)
}

func newSharded(shards []Source, opts ...ShardedOption) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("source: sharded: need at least one shard")
	}
	s := &Sharded{
		shards:        shards,
		n:             shards[0].N(),
		failThreshold: DefaultFailureThreshold,
		reviveMin:     DefaultReviveMin,
		reviveMax:     DefaultReviveMax,
		stop:          make(chan struct{}),
	}
	for i, sh := range shards {
		if sh.N() != s.n {
			return nil, fmt.Errorf("source: sharded: shard %d has n=%d, shard 0 has n=%d (shards must be replicas of one graph)",
				i, sh.N(), s.n)
		}
	}
	s.reviveSleep = func(d time.Duration) bool {
		select {
		case <-s.stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	s.reviveJitter = func(backoff time.Duration) time.Duration {
		// Jitter desynchronizes a fleet of clients re-probing one revived
		// replica; the exact delay is immaterial to correctness.
		return time.Duration(rand.Int64N(int64(backoff)/2 + 1))
	}
	s.hasM, s.hasMaxDeg, s.hasRE = true, true, true
	s.labels = make([]string, len(shards))
	s.health = make([]*shardState, len(shards))
	for i, sh := range shards {
		s.labels[i] = shardLabel(sh, i)
		s.health[i] = newShardState()
		if _, ok := RandomEdgerOf(sh); !ok {
			s.hasRE = false
		}
		if mc, ok := EdgeCounterOf(sh); ok {
			if i > 0 && s.hasM && mc.M() != s.m {
				return nil, fmt.Errorf("source: sharded: shard %d reports m=%d, earlier shards m=%d (shards must be replicas)", i, mc.M(), s.m)
			}
			s.m = mc.M()
		} else {
			s.hasM = false
		}
		if db, ok := DegreeBounderOf(sh); ok {
			if i > 0 && s.hasMaxDeg && db.MaxDegree() != s.maxDeg {
				return nil, fmt.Errorf("source: sharded: shard %d reports maxdeg=%d, earlier shards %d (shards must be replicas)", i, db.MaxDegree(), s.maxDeg)
			}
			s.maxDeg = db.MaxDegree()
		} else {
			s.hasMaxDeg = false
		}
	}
	for _, o := range opts {
		o(s)
	}
	if s.adaptiveHedge {
		s.lat = make([]*latencySketch, len(shards))
		for i := range s.lat {
			s.lat[i] = &latencySketch{}
		}
	}
	return s, nil
}

// shardLabel names one replica for health reports and errors.
func shardLabel(sh Source, i int) string {
	if b, ok := sh.(interface{ Base() string }); ok {
		return b.Base()
	}
	return fmt.Sprintf("shard%d", i)
}

// label names the fleet in probe errors.
func (s *Sharded) label() string { return fmt.Sprintf("sharded(%d replicas)", len(s.shards)) }

// Caps implements CapSource: the summary capabilities are the
// intersection of the replicas' (snapshotted at construction), and the
// fleet-level FetchRows and Health capabilities are always present.
func (s *Sharded) Caps() Caps { return s.caps(&s.tally) }

// caps is the capability view with RandomEdge and FetchRows counted on t.
func (s *Sharded) caps(t *tally) Caps {
	c := Caps{
		Health:    s.Health,
		FetchRows: func(vs []int) ([][]int, error) { return s.fanOut(t.scope(), vs) },
	}
	if s.hasM {
		m := s.m
		c.M = func() int { return m }
	}
	if s.hasMaxDeg {
		d := s.maxDeg
		c.MaxDegree = func() int { return d }
	}
	if s.hasRE {
		c.RandomEdge = func(prg *rnd.PRG) (int, int) { return s.randomEdge(t.scope(), prg) }
	}
	return c
}

// Health implements HealthReporter: one snapshot per replica, in shard
// order.
func (s *Sharded) Health() []ShardHealth {
	out := make([]ShardHealth, len(s.shards))
	for i := range s.shards {
		out[i] = s.health[i].snapshot(s.labels[i])
	}
	return out
}

// Scope implements Scoper: the view shares the fleet's shards and health
// state.
func (s *Sharded) Scope(tr *trace.Tracer) Source {
	return &view{tally: tally{tr: tr, up: &s.tally}, src: s}
}

// SpotCheck cross-audits the replicas for interchangeability: k vertices
// sampled deterministically from seed have their adjacency rows fetched
// from every replica directly (bypassing rendezvous routing), and every
// disagreement against replica 0's row is reported. A disagreement proves
// at least one replica of the pair corrupt — without a commitment it
// cannot say which, so SpotCheck reports rather than distrusts; operators
// (or the serve tier) act on the findings. Replicas that error are
// skipped: unreachable is a health problem, not a corruption finding.
func (s *Sharded) SpotCheck(k int, seed uint64) []attest.Disagreement {
	rows := make([]func(v int) ([]int, error), len(s.shards))
	for i := range s.shards {
		sh := s.shards[i]
		rows[i] = func(v int) ([]int, error) { return rowFromShard(sh, v) }
	}
	return attest.AuditReplicas(s.n, k, seed, rows)
}

// rowFromShard fetches one adjacency row from one replica, converting the
// network contract's *ProbeError panics into errors for the auditor.
func rowFromShard(sh Source, v int) (row []int, err error) {
	defer catchProbe(func(pe *ProbeError) { row, err = nil, pe })
	rows, err := readRows(sh, []int{v})
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("source: audit: shard answered %d rows for 1 vertex", len(rows))
	}
	return rows[0], nil
}

// shardScore is the rendezvous (highest-random-weight) score of the
// (vertex, shard) pair: each pair gets an independent 64-bit score and
// the max wins, so removing one shard remaps only the keys it owned — the
// consistent-hashing property — with no ring state at all.
func shardScore(v, i int) uint64 {
	x := uint64(v)*0x9e3779b97f4a7c15 ^ uint64(i)*0xda942042e4dd58b5
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardFor returns v's rendezvous winner, health-blind — the shard that
// owns v whenever it is alive (tests pin the routing against it).
func (s *Sharded) shardFor(v int) int {
	if len(s.shards) == 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for i := range s.shards {
		if x := shardScore(v, i); x >= bestScore {
			best, bestScore = i, x
		}
	}
	return best
}

// pickLive ranks v's replicas: want is the health-blind rendezvous winner
// (for failover accounting), primary and secondary the two highest-ranked
// live replicas outside exclude (-1 when none qualify).
func (s *Sharded) pickLive(v int, exclude []bool) (primary, secondary, want int) {
	primary, secondary, want = -1, -1, -1
	var pBest, sBest, wBest uint64
	for i := range s.shards {
		x := shardScore(v, i)
		if want < 0 || x >= wBest {
			want, wBest = i, x
		}
		if exclude != nil && exclude[i] {
			continue
		}
		if !s.health[i].alive() {
			continue
		}
		switch {
		case primary < 0:
			primary, pBest = i, x
		case x >= pBest:
			secondary, sBest = primary, pBest
			primary, pBest = i, x
		case secondary < 0 || x >= sBest:
			secondary, sBest = i, x
		}
	}
	return primary, secondary, want
}

// noteFault records one shard failure, distinguishing Byzantine answers
// from transport trouble: a failure wrapping ErrAttestation means the
// shard returned bytes that contradict the pinned commitment, so it is
// distrusted for good (no reviver — a liar's health ping succeeds), while
// any other temporary failure takes the ordinary dead/revive path.
func (s *Sharded) noteFault(i int, err error) {
	if errors.Is(err, ErrAttestation) {
		s.health[i].noteByzantine(err)
		return
	}
	s.markFailure(i, err)
}

// markFailure records a temporary failure on shard i, starting the
// background reviver when the failure crossed the dead threshold. After
// Close no reviver starts — the fleet is shutting down, and a wg.Add
// racing Close's wg.Wait would be a WaitGroup misuse.
func (s *Sharded) markFailure(i int, err error) {
	if !s.health[i].noteFailure(err, s.failThreshold) {
		return
	}
	s.reviveMu.Lock()
	defer s.reviveMu.Unlock()
	if s.closed {
		return
	}
	s.wg.Add(1)
	go s.reviveLoop(i)
}

// noteLatency feeds one successful probe's round-trip duration on shard i
// into its latency sketch (no-op unless adaptive hedging is on).
func (s *Sharded) noteLatency(i int, d time.Duration) {
	if s.lat != nil {
		s.lat[i].observe(d)
	}
}

// hedgeDelay picks the hedge delay to use against shard i: the fixed
// WithHedge duration, or under WithAdaptiveHedge the shard's recent-p95
// clamped into [hedgeFloor, hedgeCeil] — the ceiling alone while the
// sketch is cold. 0 disables hedging for this probe.
func (s *Sharded) hedgeDelay(i int) time.Duration {
	if !s.adaptiveHedge {
		return s.hedge
	}
	d, ok := s.lat[i].quantile(0.95)
	if !ok || d > s.hedgeCeil {
		return s.hedgeCeil
	}
	if d < s.hedgeFloor {
		return s.hedgeFloor
	}
	return d
}

// N implements Source.
func (s *Sharded) N() int { return s.n }

// Degree implements Source, routed by v.
func (s *Sharded) Degree(v int) int { return s.probe(s.scope(), OpDegree, v, 0) }

// Neighbor implements Source, routed by v.
func (s *Sharded) Neighbor(v, i int) int { return s.probe(s.scope(), OpNeighbor, v, i) }

// Adjacency implements Source, routed by the list owner u.
func (s *Sharded) Adjacency(u, v int) int { return s.probe(s.scope(), OpAdjacency, u, v) }

// probe answers one scalar probe issued with ps, with failover. A
// negative neighbor index and an out-of-range adjacency endpoint answer
// -1 locally. Otherwise the probe is tried on a's highest-ranked live
// replica (hedged against the second-ranked one when a hedge delay is
// configured), temporary failures mark the shard and re-route to the
// next live replica, and only when no live replica can serve does the
// probe fail — a typed *ProbeError panic, the network source contract.
// Non-temporary failures (4xx: the request itself is wrong) propagate
// immediately; no replica would answer differently.
func (s *Sharded) probe(ps probeScope, op string, a, b int) int {
	if op == OpNeighbor && b < 0 || op == OpAdjacency && (a < 0 || a >= s.n || b < 0 || b >= s.n) {
		return -1
	}
	tr := ps.tr
	var h trace.Handle
	var tagFailover, tagHedge, tagHedgeWon, done bool
	if tr != nil {
		h = tr.Start(probeSpanOp(op), a)
		defer func() {
			tags := make([]string, 0, 4)
			if tagFailover {
				tags = append(tags, "failover")
			}
			if tagHedge {
				tags = append(tags, "hedge")
			}
			if tagHedgeWon {
				tags = append(tags, "hedge-won")
			}
			if !done {
				tags = append(tags, "error")
			}
			tr.End(h, tags...)
		}()
	}
	ps.parent = h.ID()
	var exclude []bool
	var lastErr error
	for tries := 0; tries <= len(s.shards); tries++ {
		primary, secondary, want := s.pickLive(a, exclude)
		if primary < 0 {
			break
		}
		var ans, served int
		var hedged bool
		var perr *ProbeError
		var failed []shardFailure
		if delay := s.hedgeDelay(primary); delay > 0 && secondary >= 0 {
			ans, served, hedged, failed, perr = s.hedgedProbe(ps, primary, secondary, delay, op, a, b)
			tagHedge = tagHedge || hedged
		} else {
			served = primary
			ans, perr = s.probeOnShard(context.Background(), ps, primary, op, a, b)
			if perr != nil && perr.Temporary() {
				failed = []shardFailure{{i: primary, err: perr}}
			}
		}
		for _, f := range failed {
			s.noteFault(f.i, f.err)
		}
		if perr == nil {
			s.health[served].noteSuccess()
			// A failover is a probe served away from its rendezvous winner
			// because that winner was dead (skipped by pickLive) or erred
			// on this probe. A pure hedge win — the rendezvous shard merely
			// slow, the secondary faster — is NOT a failover: the runbook's
			// "hedges rising with no failovers → slow, not down" depends on
			// the distinction.
			primaryFailed := false
			for _, f := range failed {
				if f.i == primary {
					primaryFailed = true
				}
			}
			if primary != want || (served != primary && primaryFailed) {
				ps.t.add(figFailovers, 1)
				tagFailover = true
			}
			if hedged && served != primary && !primaryFailed {
				tagHedgeWon = true
			}
			done = true
			return ans
		}
		if !perr.Temporary() {
			panic(perr)
		}
		lastErr = perr
		if exclude == nil {
			exclude = make([]bool, len(s.shards))
		}
		for _, f := range failed {
			exclude[f.i] = true
		}
	}
	if lastErr == nil {
		lastErr = errors.New("all replicas are dead")
	}
	panic(&ProbeError{Shard: s.label(), Op: op, A: a, B: b,
		Err: fmt.Errorf("no live replica can serve the probe: %w", lastErr)})
}

// shardFailure pairs a failing shard with its error for health recording.
type shardFailure struct {
	i   int
	err error
}

// hedgeResult is one contender's outcome in a hedged race.
type hedgeResult struct {
	ans   int
	err   *ProbeError
	shard int
}

// hedgedProbe races primary against secondary: secondary is fired when
// primary errors (failover) or exceeds the hedge delay (hedge); the first
// success wins and the loser's request is cancelled via context. Returns
// whether the hedge timer fired and the temporary failures observed so
// the caller can record and exclude them.
func (s *Sharded) hedgedProbe(ps probeScope, primary, secondary int, delay time.Duration, op string, a, b int) (ans, served int, hedged bool, failed []shardFailure, perr *ProbeError) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan hedgeResult, 2)
	launch := func(i int) {
		go func() {
			ans, err := s.probeOnShard(ctx, ps, i, op, a, b)
			ch <- hedgeResult{ans: ans, err: err, shard: i}
		}()
	}
	launch(primary)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, settled := 1, 0
	// settle folds one contender's result into the race's outcome; done
	// reports the race is decided and the named returns are set.
	settle := func(res hedgeResult) (done bool) {
		settled++
		if res.err == nil {
			if settled < launched {
				// The loser is still in flight (cancelled above). Its
				// verdict matters for health: a shard that had already
				// failed hard before the cancellation (the hedge that
				// masked a refused connection) must accumulate the
				// failure, or a dead replica would hide behind the
				// hedge forever and every probe it owns would pay the
				// hedge delay. Pure cancellations are not failures.
				go s.harvestLoser(ch)
			}
			ans, served, perr = res.ans, res.shard, nil
			return true
		}
		if !res.err.Temporary() {
			ans, served, perr = 0, 0, res.err
			return true
		}
		failed = append(failed, shardFailure{i: res.shard, err: res.err})
		if launched == 1 {
			// Primary failed before the hedge delay: escalate now.
			// This is a failover, not a hedge — the timer never fired.
			launch(secondary)
			launched = 2
			return false
		}
		if settled == launched {
			ans, served, perr = 0, 0, res.err
			return true
		}
		return false
	}
	for {
		select {
		case res := <-ch:
			if settle(res) {
				return
			}
		case <-timer.C:
			if launched != 1 {
				continue
			}
			// The timer and the primary's result can become ready in the
			// same instant, and select picks between ready cases at random:
			// prefer the result, or a probe that answered exactly on time
			// would fire (and count) a spurious hedge and burn a duplicate
			// round trip on the secondary.
			select {
			case res := <-ch:
				if settle(res) {
					return
				}
				continue
			default:
			}
			ps.t.add(figHedges, 1)
			hedged = true
			launch(secondary)
			launched = 2
		}
	}
}

// harvestLoser drains a hedged race's losing result and records its
// failure when it is a genuine shard fault rather than our own
// cancellation — the path that lets a dead replica cross the failure
// threshold even though the hedge keeps winning first.
func (s *Sharded) harvestLoser(ch <-chan hedgeResult) {
	res := <-ch
	if res.err != nil && res.err.Temporary() && !errors.Is(res.err, context.Canceled) {
		s.noteFault(res.shard, res.err)
	}
}

// probeOnShard answers one scalar probe on shard i. Network shards take
// the scoped path (per-view trip attribution, context cancellation for
// hedging); other shards are called directly with *ProbeError panics
// recovered — a nested network-backed shard fails like a flat one.
func (s *Sharded) probeOnShard(ctx context.Context, ps probeScope, i int, op string, a, b int) (ans int, perr *ProbeError) {
	if s.lat != nil {
		// Feed the adaptive-hedge estimator. Registered first so it runs
		// after the recover below has settled perr: only successful probes
		// are observed — a refused connection answers in microseconds and
		// would drag the p95 toward zero, hedging everything.
		start := time.Now()
		defer func() {
			if perr == nil {
				s.lat[i].observe(time.Since(start))
			}
		}()
	}
	sh := s.shards[i]
	if sp, ok := sh.(scopedProber); ok {
		return sp.probeScoped(ctx, ps, op, a, b)
	}
	defer catchProbe(func(pe *ProbeError) { ans, perr = 0, pe })
	switch op {
	case OpDegree:
		return sh.Degree(a), nil
	case OpNeighbor:
		return sh.Neighbor(a, b), nil
	default:
		return sh.Adjacency(a, b), nil
	}
}

// randomEdge implements the RandomEdger capability when every shard has
// it: one uint64 drawn from the caller's PRG picks the serving replica
// among the live ones and seeds a derived PRG for the shard-side sampler.
// Shards are replicas and samplers are deterministic in their PRG, so the
// answer is a function of the caller's PRG state alone — any shard would
// answer identically — and a failing replica is simply skipped (and
// marked) in favour of the next live one.
func (s *Sharded) randomEdge(ps probeScope, prg *rnd.PRG) (int, int) {
	tr := ps.tr
	var h trace.Handle
	var tagFailover, done bool
	if tr != nil {
		h = tr.Start("probe:randomedge", -1)
		defer func() {
			tags := make([]string, 0, 2)
			if tagFailover {
				tags = append(tags, "failover")
			}
			if !done {
				tags = append(tags, "error")
			}
			tr.End(h, tags...)
		}()
	}
	ps.parent = h.ID()
	seed := prg.Uint64()
	derived := rnd.Seed(seed).Derive(0x5e)
	var live []int
	for i := range s.shards {
		if s.health[i].alive() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		panic(&ProbeError{Shard: s.label(), Op: OpRandomEdge,
			Err: errors.New("no live replica can serve a random-edge probe: all replicas are dead")})
	}
	start := int(seed % uint64(len(live)))
	var lastErr error
	for k := range live {
		i := live[(start+k)%len(live)]
		u, v, perr := s.randomEdgeOnShard(ps, i, derived)
		if perr == nil {
			s.health[i].noteSuccess()
			if k > 0 {
				ps.t.add(figFailovers, 1)
				tagFailover = true
			}
			done = true
			return u, v
		}
		if !perr.Temporary() {
			panic(perr)
		}
		s.noteFault(i, perr)
		lastErr = perr
	}
	panic(&ProbeError{Shard: s.label(), Op: OpRandomEdge,
		Err: fmt.Errorf("no live replica can serve a random-edge probe: %w", lastErr)})
}

func (s *Sharded) randomEdgeOnShard(ps probeScope, i int, derived rnd.Seed) (u, v int, perr *ProbeError) {
	if sp, ok := s.shards[i].(scopedProber); ok {
		// The wire seed is the first draw of the derived PRG — exactly what
		// a local sampler would consume — so local and remote replicas of a
		// deterministic sampler agree.
		return sp.randomEdgeScoped(ps, rnd.NewPRG(derived).Uint64())
	}
	re, ok := RandomEdgerOf(s.shards[i])
	if !ok {
		// Unreachable: the capability is advertised only when every shard
		// has it.
		return 0, 0, &ProbeError{Shard: s.labels[i], Op: OpRandomEdge, Err: errors.New("shard lost the RandomEdge capability")}
	}
	// String panics mark edgeless sources by convention and are the
	// caller's contract, not a shard failure: catchProbe re-panics them.
	defer catchProbe(func(pe *ProbeError) { perr = pe })
	u, v = re.RandomEdge(rnd.NewPRG(derived))
	return u, v, nil
}

// fanOut implements the RowFetcher capability: it fetches the rows of vs
// across the fleet, counted on ps's tally. Each vertex goes to its
// highest-ranked live replica, and each shard's group is fetched in its
// own goroutine (rowsOnShard). A group that fails temporarily marks its
// shard and is re-routed to the next-ranked live replicas, round by
// round; fanOut errors only when vertices remain that no live replica
// can serve. Each row served away from its rendezvous winner counts one
// failover. Groups are never hedged: only scalar probes consult
// hedgeDelay. Each round settles its groups in shard order, so shard
// health is recorded in a fixed order. Rows are index-aligned with vs.
func (s *Sharded) fanOut(ps probeScope, vs []int) ([][]int, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	if len(vs) > MaxProbeBatch {
		return nil, fmt.Errorf("source: sharded: %s request of %d rows exceeds the maximum %d", OpRowFull, len(vs), MaxProbeBatch)
	}
	tr := ps.tr
	var h trace.Handle
	done := false
	if tr != nil {
		h = tr.Start("probe:"+OpRowFull, -1)
		defer func() {
			tags := []string{fmt.Sprintf("batch=%d", len(vs))}
			if !done {
				tags = append(tags, "error")
			}
			tr.End(h, tags...)
		}()
	}
	ps.parent = h.ID()
	out := make([][]int, len(vs))
	pending := make([]int, len(vs)) // indices into vs still unanswered
	for i := range pending {
		pending[i] = i
	}
	var exclude []bool
	var lastErr error
	noLive := func() error {
		if lastErr == nil {
			lastErr = errors.New("all replicas are dead")
		}
		return &ProbeError{Shard: s.label(), Op: OpRowFull, A: len(vs),
			Err: fmt.Errorf("no live replica can serve the %s request: %w", OpRowFull, lastErr)}
	}
	groups := make([][]int, len(s.shards)) // per shard, the indices into vs it serves this round
	errs := make([]error, len(s.shards))
	wants := make([]int, len(vs)) // per index into vs, its rendezvous winner
	for round := 0; len(pending) > 0 && round <= len(s.shards); round++ {
		for shard := range groups {
			groups[shard], errs[shard] = groups[shard][:0], nil
		}
		for _, i := range pending {
			primary, _, want := s.pickLive(vs[i], exclude)
			if primary < 0 {
				return nil, noLive()
			}
			groups[primary] = append(groups[primary], i)
			wants[i] = want
		}
		var wg sync.WaitGroup
		for shard, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub := make([]int, len(idxs))
				for j, i := range idxs {
					sub[j] = vs[i]
				}
				start := time.Now()
				got, err := s.rowsOnShard(ps, shard, sub)
				if err == nil && len(got) != len(sub) {
					err = fmt.Errorf("source: sharded: shard %s answered %d of %d rows", s.labels[shard], len(got), len(sub))
				}
				if err != nil {
					errs[shard] = err
					return
				}
				s.noteLatency(shard, time.Since(start))
				for j, i := range idxs {
					out[i] = got[j]
				}
			}()
		}
		wg.Wait()
		pending = pending[:0]
		for shard, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			err := errs[shard]
			if err == nil {
				s.health[shard].noteSuccess()
				for _, i := range idxs {
					if shard != wants[i] {
						ps.t.add(figFailovers, 1)
					}
				}
				continue
			}
			if !temporaryProbeErr(err) {
				return nil, err
			}
			s.noteFault(shard, err)
			lastErr = err
			if exclude == nil {
				exclude = make([]bool, len(s.shards))
			}
			exclude[shard] = true
			pending = append(pending, idxs...)
		}
	}
	if len(pending) > 0 {
		return nil, noLive()
	}
	done = true
	return out, nil
}

// temporaryProbeErr reports whether a batch failure justifies re-routing:
// transport and 5xx failures do, protocol-level errors (the request is
// wrong) do not.
func temporaryProbeErr(err error) bool {
	var pe *ProbeError
	if errors.As(err, &pe) {
		return pe.Temporary()
	}
	return false
}

// catchProbe is deferred around calls into a shard's plain interfaces:
// it hands a *ProbeError panic (the network source contract) to set as
// the call's failure, and re-panics anything else.
func catchProbe(set func(*ProbeError)) {
	if r := recover(); r != nil {
		pe, ok := r.(*ProbeError)
		if !ok {
			panic(r)
		}
		set(pe)
	}
}

// rowsOnShard fetches the rows of sub from one shard: over the wire
// with the fleet view's scope on a network shard, else through readRows.
func (s *Sharded) rowsOnShard(ps probeScope, shard int, sub []int) (rows [][]int, err error) {
	sh := s.shards[shard]
	if sp, ok := sh.(scopedProber); ok {
		return sp.fetchRowsScoped(ps, sub)
	}
	defer catchProbe(func(pe *ProbeError) { rows, err = nil, pe })
	return readRows(sh, sub)
}

// Close stops the background revivers and closes every shard holding
// external resources. Idempotent; repeated calls return the first result.
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		s.reviveMu.Lock()
		s.closed = true
		s.reviveMu.Unlock()
		close(s.stop)
		s.wg.Wait()
		var errs []error
		for _, sh := range s.shards {
			if c, ok := sh.(Closer); ok {
				errs = append(errs, c.Close())
			}
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}
