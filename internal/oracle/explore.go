package oracle

// The query planner. A random-order greedy query explores a DAG of
// lower-priority neighbors that is wide but shallow (the query-tree
// analysis of Reingold-Vardi's "New Techniques and Tighter Bounds for
// LCAs"), and its recursion reads that DAG one row at a time — over a
// network source, one round trip per row. Explore fetches the same rows
// one level per Prefetch call instead, so round trips follow the DAG's
// depth, not its size; the recursion then runs unchanged and finds its
// rows in the tier. The LCA model charges probes, not transport, so
// the planner moves no answer, probe count, budget or audit transcript:
// it reads the rows it fetched back from the tier uncharged, and the
// algorithm derives the DAG's edges from its own order, which costs no
// probes either.

// exploreCap bounds the rows one exploration fetches at half the L1
// store, so an exploration alone never fills it. Past the cap the
// recursion fetches rows as it would unplanned, and a row a reset drops
// mid-exploration is simply not expanded.
const exploreCap = DefaultRowCap / 2

// Explore prefetches the DAG rooted at root through o, one level per
// Prefetch call: the first level is root, and each next level holds the
// children next(v, row) of the level's vertices v that no earlier level
// held. next receives v's row and returns the children the algorithm's
// recursion will read from v, skipping those it has memoized; Explore
// consumes the result before calling next again, so next may reuse one
// buffer.
//
// Levels are issued on o, the oracle directly under the algorithm's
// Counter, so a round-trip budget in o's chain checks after every level
// and Stats.Batches does not count them. Explore is inert — it returns
// before allocating anything — unless o's chain holds a row tier whose
// miss path fetches rows (the rowfull op, source.RowFetcher): over a
// local source a level costs the same per-row loop as the recursion, so
// planning would be pure overhead. It is inert under a probe budget
// (a LimitOracle in the chain) too: hints are free, so a capped query
// must not fetch past what its budget lets it read.
func Explore(o Oracle, root int, next func(v int, row []int) []int) {
	t := plannedTier(o)
	if t == nil {
		return
	}
	seen := map[int]bool{root: true}
	level := []int{root}
	for left := exploreCap; len(level) > 0 && left > 0; {
		level = level[:min(len(level), left)]
		left -= len(level)
		Prefetch(o, level...)
		var below []int
		for _, v := range level {
			row, ok := t.peek(v)
			if !ok {
				continue // out of range, or dropped by a reset
			}
			for _, w := range next(v, row) {
				if !seen[w] {
					seen[w] = true
					below = append(below, w)
				}
			}
		}
		level = below
	}
}

// plannedTier returns the row tier of o's chain when Explore plans over
// it: no probe budget sits above the tier, and its miss path fetches
// rows.
func plannedTier(o Oracle) *TieredOracle {
	for ; o != nil; o = unwrap(o) {
		switch x := o.(type) {
		case *LimitOracle:
			return nil
		case *TieredOracle:
			if x.rf == nil {
				return nil
			}
			return x
		}
	}
	return nil
}
