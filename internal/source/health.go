package source

// Shard health: the state machine that lets a Sharded fleet survive
// replica failure. Every shard starts live; consecutive probe failures
// past a threshold mark it dead, a background reviver re-probes it
// half-open with jittered exponential backoff (on Remote shards via the
// health-plane GET /probe/meta, never a data probe), and a successful
// re-probe returns it to live. While a shard is dead, rendezvous routing
// hands its keys to the next-ranked live replica — replicas of one graph
// are interchangeable, so answers never change, only which process serves
// them — and the detour is counted as a failover.

import (
	"sync"
	"sync/atomic"

	"lca/internal/trace"
)

// Shard health states.
const (
	// ShardLive marks a shard serving its rendezvous share.
	ShardLive = "live"
	// ShardDead marks a shard past the consecutive-failure threshold; its
	// keys are re-routed until a background re-probe revives it.
	ShardDead = "dead"
	// ShardProbing marks a dead shard with a half-open revival probe in
	// flight.
	ShardProbing = "probing"
	// ShardDistrusted marks a shard that answered a probe with bytes that
	// failed attestation against the pinned commitment. Distrust is
	// sticky: unlike a dead shard, a distrusted one is never revived — the
	// reviver's health ping would succeed against a replica that still
	// lies on the data plane.
	ShardDistrusted = "distrusted"
)

// ShardHealth is one replica's health snapshot, as reported by the
// HealthReporter capability and surfaced on /probe/meta and /sources.
type ShardHealth struct {
	// Shard labels the replica (a Remote's base URL, or shard<i> for
	// local backends).
	Shard string `json:"shard"`
	// State is ShardLive, ShardDead, ShardProbing or ShardDistrusted.
	State string `json:"state"`
	// ConsecutiveFails counts probe failures since the last success.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// LastError is the most recent failure, empty on a healthy shard.
	LastError string `json:"last_error,omitempty"`
}

// HealthReporter is the optional capability of reporting per-replica
// health — Sharded has it; single-backend sources do not. Discover it
// through HealthOf, which also understands the dynamic capability view.
type HealthReporter interface {
	Health() []ShardHealth
}

// FailoverCounter is the optional capability of reporting how many probe
// operations were failed over (served by a replica other than their
// rendezvous winner) and how many hedged requests were fired. Monotone
// and safe for concurrent use; like RoundTripCounter it is transport
// accounting, never part of an answer's correctness contract.
type FailoverCounter interface {
	Failovers() uint64
	Hedges() uint64
}

// Pinger is the optional capability of cheaply checking liveness on the
// health plane, without issuing a data probe. Remote pings GET
// /probe/meta with a single uncounted, unretried request; the reviver
// uses it for half-open re-probes of dead shards.
type Pinger interface {
	Ping() error
}

// Scoper is the optional capability of handing out a scoped view of a
// network source: one oracle chain's or request's window onto it. The
// view answers identically and shares the source's connections and
// health state, but its RoundTrips, Failovers, Hedges, AttestFailures
// and ProofBytes count only the traffic issued through it; the source's
// own figures count that traffic too. tr, when non-nil, receives the
// view's rpc and probe spans. A view is not scoped again: its Scope
// returns the view itself. Views are cheap, need no Close, and must not
// outlive their source. Discover the capability through Scope.
type Scoper interface {
	Scope(tr *trace.Tracer) Source
}

// The figures a tally counts, indexes into tally.counts.
const (
	figTrips = iota
	figFailovers
	figHedges
	figAttestFails
	figProofBytes
	numFigures
)

// tally is the transport accounting of one network source or view: the
// round trips, failovers, hedges, attestation failures and proof bytes of
// the probes issued through it, and the tracer its spans go to (nil on a
// source). A view's tally also adds to its source's (up). Remote, Sharded
// and view embed one, and through it answer RoundTripCounter,
// FailoverCounter and AttestCounter.
type tally struct {
	counts [numFigures]atomic.Uint64
	tr     *trace.Tracer
	up     *tally
}

// add adds d to figure f on t and on every tally t adds to. The nil tally
// (the zero probeScope) counts nothing.
func (t *tally) add(f int, d uint64) {
	for ; t != nil; t = t.up {
		t.counts[f].Add(d)
	}
}

// scope returns the probe scope of a probe issued through t now: the
// tracer's current span is the parent of its rpc spans. Read it on the
// issuing goroutine, before any fan-out.
func (t *tally) scope() probeScope {
	return probeScope{t: t, tr: t.tr, parent: t.tr.Parent()}
}

// RoundTrips implements RoundTripCounter: logical shard requests (one per
// probe, row batch or meta fetch; retries of one request are not
// re-counted, health-plane pings never count).
func (t *tally) RoundTrips() uint64 { return t.counts[figTrips].Load() }

// Failovers implements FailoverCounter: probe operations a fleet served
// away from their rendezvous winner because it was dead or erring.
func (t *tally) Failovers() uint64 { return t.counts[figFailovers].Load() }

// Hedges implements FailoverCounter: hedged requests a fleet fired
// because the first-ranked replica exceeded the hedge delay.
func (t *tally) Hedges() uint64 { return t.counts[figHedges].Load() }

// AttestFailures implements AttestCounter: answers that failed
// verification against the pinned commitment. Each is a detected lie,
// discarded and, on a fleet, re-routed.
func (t *tally) AttestFailures() uint64 { return t.counts[figAttestFails].Load() }

// ProofBytes implements AttestCounter: attestation proof bytes
// transported.
func (t *tally) ProofBytes() uint64 { return t.counts[figProofBytes].Load() }

// Internal state codes; ShardHealth reports the string names.
const (
	stateLive int32 = iota
	stateDead
	stateProbing
)

func stateName(code int32) string {
	switch code {
	case stateDead:
		return ShardDead
	case stateProbing:
		return ShardProbing
	default:
		return ShardLive
	}
}

// shardState is one replica's mutable health record inside a Sharded.
// The state and failure-streak words are atomics so the hot probe path
// (pickLive sweeping every shard, noteSuccess after every probe) reads
// them lock-free; the mutex guards the failure transitions, lastErr and
// the reviver handshake.
type shardState struct {
	state atomic.Int32
	fails atomic.Int32
	// distrusted is the sticky Byzantine bit: set when the shard answered
	// bytes that failed attestation, never cleared. It gates alive()
	// independently of the live/dead machine so a reviver's successful
	// health ping cannot resurrect a liar into rotation.
	distrusted atomic.Bool
	// mu guards lastErr and the dead-transition/reviving handshake.
	mu       sync.Mutex
	lastErr  string
	reviving bool // a reviver goroutine owns this shard's recovery
}

func newShardState() *shardState { return &shardState{} }

// alive reports whether the shard may serve data probes right now. A
// probing shard stays out of rotation until its half-open re-probe
// succeeds, so one revival ping — not live traffic — decides revival;
// a distrusted shard never returns.
func (st *shardState) alive() bool {
	return st.state.Load() == stateLive && !st.distrusted.Load()
}

// noteByzantine permanently distrusts the shard: a probe answer that
// failed verification against the pinned commitment proves the replica
// is lying or corrupt, which no amount of reviving fixes.
func (st *shardState) noteByzantine(err error) {
	st.distrusted.Store(true)
	st.mu.Lock()
	st.lastErr = err.Error()
	st.mu.Unlock()
}

// noteSuccess resets the consecutive-failure streak of a live shard.
// Lock-free on the pure-success fast path; a concurrent failure racing
// the reset only perturbs the heuristic streak, never an answer.
func (st *shardState) noteSuccess() {
	if st.state.Load() != stateLive || st.fails.Load() == 0 {
		return
	}
	st.fails.Store(0)
	st.mu.Lock()
	st.lastErr = ""
	st.mu.Unlock()
}

// noteFailure records one probe failure; it reports whether this failure
// crossed the threshold and the caller must start a reviver.
func (st *shardState) noteFailure(err error, threshold int) (startReviver bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fails := st.fails.Add(1)
	st.lastErr = err.Error()
	if st.state.Load() == stateLive && int(fails) >= threshold {
		st.state.Store(stateDead)
		if !st.reviving {
			st.reviving = true
			return true
		}
	}
	return false
}

// setState moves the shard between the reviver-owned states.
func (st *shardState) setState(state int32, err error) {
	st.mu.Lock()
	st.state.Store(state)
	if err != nil {
		st.lastErr = err.Error()
	}
	if state == stateLive {
		st.fails.Store(0)
		st.lastErr = ""
		st.reviving = false
	}
	st.mu.Unlock()
}

func (st *shardState) snapshot(label string) ShardHealth {
	st.mu.Lock()
	defer st.mu.Unlock()
	state := stateName(st.state.Load())
	if st.distrusted.Load() {
		// Distrust dominates the live/dead machine in reports: whatever the
		// transport thinks, the shard is out of rotation for good.
		state = ShardDistrusted
	}
	return ShardHealth{Shard: label, State: state,
		ConsecutiveFails: int(st.fails.Load()), LastError: st.lastErr}
}

// reviveLoop is the background half-open re-prober of one dead shard: it
// sleeps a jittered exponential backoff, marks the shard probing, pings
// it (Pinger when the shard has it, a guarded data probe otherwise), and
// either revives the shard or doubles the backoff and tries again. It
// exits when the shard revives or the fleet closes.
func (s *Sharded) reviveLoop(i int) {
	defer s.wg.Done()
	st := s.health[i]
	backoff := s.reviveMin
	for {
		// The jitter PRG and the sleeper are the fleet's injectable seams
		// (reviveJitter/reviveSleep), so revival tests run deterministic
		// schedules instead of racing wall-clock sleeps.
		if !s.reviveSleep(backoff + s.reviveJitter(backoff)) {
			return
		}
		select {
		case <-s.stop:
			// An injected sleeper may not watch s.stop; never ping after
			// Close.
			return
		default:
		}
		st.setState(stateProbing, nil)
		if err := s.pingShard(i); err != nil {
			st.setState(stateDead, err)
			if backoff < s.reviveMax {
				backoff = min(backoff*2, s.reviveMax)
			}
			continue
		}
		st.setState(stateLive, nil)
		return
	}
}

// pingShard checks one shard's liveness: the health plane when the shard
// has it, otherwise a recovered data probe (local backends cannot fail,
// so this path exists for completeness, not load).
func (s *Sharded) pingShard(i int) (err error) {
	if p, ok := s.shards[i].(Pinger); ok {
		return p.Ping()
	}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*ProbeError)
			if !ok {
				panic(r)
			}
			err = pe
		}
	}()
	if s.n > 0 {
		s.shards[i].Degree(0)
	}
	return nil
}
