package source

// The source side of the trust plane (internal/attest): Attestor is the
// optional capability of carrying a Merkle commitment over the graph's
// adjacency rows and proving individual rows against it; NewAttested
// equips any Source with it by streaming the rows through the tree
// builder once at construction. Shards advertise the commitment in
// /probe/meta and answer attest=1 probes with row proofs (wire.go);
// clients pin the root (remote:URL#root=HEX / WithCommitment) and verify
// every answer, turning a lying replica into ErrAttestation the fleet
// layer routes around.

import (
	"fmt"

	"lca/internal/attest"
	"lca/internal/rnd"
)

// Attestor is the optional capability of committing to the graph: a
// constant-size Merkle root plus per-row inclusion proofs. Implemented
// by NewAttested wrappers (and forwarded by sources that front one).
type Attestor interface {
	// Commitment returns the Merkle root over the canonical adjacency-row
	// encodings.
	Commitment() attest.Root
	// ProveRow returns vertex v's committed row and its inclusion proof;
	// (nil, nil) outside [0,n).
	ProveRow(v int) (row []int, proof []string)
}

// AttestCounter is the optional capability of reporting attestation
// accounting: how many probe answers failed proof verification (each one
// a detected Byzantine answer that was discarded and re-routed) and how
// many proof bytes were transported. Remote counts its own probes;
// Sharded sums its replicas' failures plus its own distrust decisions.
type AttestCounter interface {
	AttestFailures() uint64
	ProofBytes() uint64
}

// Attested equips a Source with the Attestor capability by committing to
// every adjacency row at construction. Probes delegate unchanged; the
// underlying source's optional capabilities are forwarded through the
// dynamic view. Building is O(n + m) hashing — do it once per served
// graph, not per request.
type Attested struct {
	src  Source
	tree *attest.Tree
}

// NewAttested streams src's adjacency rows (via its row fetcher when it
// has one, per-cell probes otherwise) into a Merkle commitment and
// returns the attesting wrapper.
func NewAttested(src Source) *Attested {
	n := src.N()
	rowOf := func(v int) []int {
		d := src.Degree(v)
		row := make([]int, d)
		for i := 0; i < d; i++ {
			row[i] = src.Neighbor(v, i)
		}
		return row
	}
	if rf, ok := RowFetcherOf(src); ok {
		rowOf = func(v int) []int {
			rows, err := rf.FetchRows([]int{v})
			if err != nil || len(rows) != 1 {
				panic(&ProbeError{Op: "attest", A: v, Err: fmt.Errorf("attest: committing row %d: %v", v, err)})
			}
			return rows[0]
		}
	}
	return &Attested{src: src, tree: attest.Build(n, rowOf)}
}

// N implements Source.
func (a *Attested) N() int { return a.src.N() }

// Degree implements Source.
func (a *Attested) Degree(v int) int { return a.src.Degree(v) }

// Neighbor implements Source.
func (a *Attested) Neighbor(v, i int) int { return a.src.Neighbor(v, i) }

// Adjacency implements Source.
func (a *Attested) Adjacency(u, v int) int { return a.src.Adjacency(u, v) }

// Commitment implements Attestor.
func (a *Attested) Commitment() attest.Root { return a.tree.Root() }

// ProveRow implements Attestor. The row comes from the tree's committed
// view — by construction identical to what probes answer.
func (a *Attested) ProveRow(v int) ([]int, []string) {
	if v < 0 || v >= a.src.N() {
		return nil, nil
	}
	d := a.src.Degree(v)
	row := make([]int, d)
	for i := 0; i < d; i++ {
		row[i] = a.src.Neighbor(v, i)
	}
	return row, a.tree.Prove(v)
}

// Caps forwards the underlying source's dynamic capabilities and adds
// the Attestor view, so wrapping never costs a capability.
func (a *Attested) Caps() Caps {
	c := capsOf(a.src)
	c.Attest = func() Attestor { return a }
	return c
}

// Close forwards to the underlying source when it holds resources.
func (a *Attested) Close() error {
	if c, ok := a.src.(Closer); ok {
		return c.Close()
	}
	return nil
}

// capsOf lifts any source's optional capabilities (static or dynamic)
// into one Caps value, the generic way for wrappers to forward them.
func capsOf(src Source) Caps {
	var c Caps
	if ec, ok := EdgeCounterOf(src); ok {
		c.M = ec.M
	}
	if db, ok := DegreeBounderOf(src); ok {
		c.MaxDegree = db.MaxDegree
	}
	if re, ok := RandomEdgerOf(src); ok {
		c.RandomEdge = func(prg *rnd.PRG) (int, int) { return re.RandomEdge(prg) }
	}
	if rf, ok := RowFetcherOf(src); ok {
		c.FetchRows = rf.FetchRows
	}
	if _, ok := HealthOf(src); ok {
		c.Health = func() []ShardHealth { h, _ := HealthOf(src); return h }
	}
	if at, ok := AttestorOf(src); ok {
		c.Attest = func() Attestor { return at }
	}
	if lr, ok := LocalityOf(src); ok {
		c.Locality = func() (uint64, uint64) { return lr.PageTouches(), lr.LocalHits() }
	}
	return c
}
