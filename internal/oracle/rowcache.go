package oracle

// The row storage of the tier (tier.go). A query in the space-efficient
// LCA model explores polylog-many adjacency rows, so a small fixed
// cache hierarchy suffices to make repeat probes free:
//
//	L1 — a per-chain row store: an open-addressed vertex->row table
//	     whose cells come from a bump arena, so steady-state probes
//	     allocate nothing. Row slices escape to callers (Neighbors) and
//	     are iterated while nested queries run, so live cells are NEVER
//	     overwritten: on overflow the arena abandons its block (the GC
//	     keeps escaped slices alive) instead of recycling it.
//	L2 — a shared bounded RowCache, evicted LRU. Its cell storage is
//	     recycled through degree-indexed (power-of-two size class) free
//	     lists, which is safe because L2 cells never escape: readers
//	     copy rows out into their own L1 arena under the cache lock.

import (
	"math/bits"
	"sync"
)

// rowArena is a bump allocator for adjacency-row cells. Allocations are
// sub-slices of one block; when the block runs out it is abandoned and a
// fresh one allocated — escaped row slices stay valid (the GC holds the
// old block), and the steady-state cost is zero allocations per row.
// Blocks start small and double up to rowArenaBlock, so a chain built
// for one short query does not pay for a full block.
type rowArena struct {
	block []int
	off   int
}

// rowArenaSeed and rowArenaBlock bound the arena block size in cells
// (2KiB to 512KiB of int64). Polylog rows are tiny, so one full-size
// block serves tens of thousands of rows between abandonments.
const (
	rowArenaSeed  = 1 << 8
	rowArenaBlock = 1 << 16
)

// alloc returns a full-capacity slice of n cells. The three-index
// sub-slice keeps an append past n from silently clobbering a
// neighboring row.
func (a *rowArena) alloc(n int) []int {
	if a.off+n > len(a.block) {
		size := min(max(2*len(a.block), rowArenaSeed), rowArenaBlock)
		a.block = make([]int, max(size, n))
		a.off = 0
	}
	s := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// abandon drops the current block. Escaped slices stay valid; the next
// alloc starts a fresh block.
func (a *rowArena) abandon() {
	a.block = nil
	a.off = 0
}

// rowStore is an insert-only open-addressed vertex->row table: slice
// headers are stored by value, so lookups and inserts allocate nothing
// (the table itself grows geometrically, amortized). reset clears every
// entry and abandons the arena — the overflow stance documented above.
type rowStore struct {
	keys  []int // -1 marks an empty slot
	rows  [][]int
	count int
	limit int // rows held before reset
	arena rowArena
}

// rowStoreSeed is the initial table size; it doubles on load factor 1/2.
const rowStoreSeed = 1 << 10

func newRowStore(limit int) rowStore {
	s := rowStore{limit: limit}
	s.init(rowStoreSeed)
	return s
}

func (s *rowStore) init(size int) {
	s.keys = make([]int, size)
	s.rows = make([][]int, size)
	for i := range s.keys {
		s.keys[i] = -1
	}
	s.count = 0
}

// slot is Fibonacci hashing into the power-of-two table.
func (s *rowStore) slot(v int) int {
	return int((uint64(v) * 0x9E3779B97F4A7C15) >> (64 - uint(bits.Len(uint(len(s.keys)-1)))))
}

func (s *rowStore) get(v int) ([]int, bool) {
	for i := s.slot(v); ; i = (i + 1) & (len(s.keys) - 1) {
		switch s.keys[i] {
		case v:
			return s.rows[i], true
		case -1:
			return nil, false
		}
	}
}

// put inserts v's row, resetting first when the store is at its limit
// (clear-all beats eviction here: entries cannot be recycled anyway
// because their cells may have escaped, and the polylog working set
// refills in a handful of queries).
func (s *rowStore) put(v int, row []int) {
	if s.count >= s.limit {
		s.reset()
	}
	if 2*(s.count+1) > len(s.keys) {
		s.grow()
	}
	for i := s.slot(v); ; i = (i + 1) & (len(s.keys) - 1) {
		switch s.keys[i] {
		case v:
			s.rows[i] = row
			return
		case -1:
			s.keys[i], s.rows[i] = v, row
			s.count++
			return
		}
	}
}

func (s *rowStore) grow() {
	oldKeys, oldRows := s.keys, s.rows
	s.init(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k >= 0 {
			s.put(k, oldRows[i])
		}
	}
}

// reset empties the table and abandons the arena block (escaped rows
// stay valid). The table storage itself is kept and cleared in place.
func (s *rowStore) reset() {
	for i := range s.keys {
		s.keys[i] = -1
		s.rows[i] = nil
	}
	s.count = 0
	s.arena.abandon()
}

// RowCacheStats is a snapshot of a RowCache's traffic.
type RowCacheStats struct {
	Hits, Misses, Evictions uint64
}

// l2slot is one cached row plus its place in the recency list. The row
// slice is owned by the cache and recycled through the size-class free
// lists on eviction — it never escapes (Get copies out under the lock).
type l2slot struct {
	v          int
	row        []int
	prev, next int
}

// rowClasses spans row capacities up to 2^31 cells.
const rowClasses = 32

// RowCache is the shared L2 of the row tier: a bounded vertex->row
// cache, safe for concurrent use, with recycled cell storage and LRU
// eviction (an intrusive recency list: two index writes per touch).
// Construct with NewRowCache; the zero value is unusable.
type RowCache struct {
	mu    sync.Mutex
	index map[int]int // vertex -> slot
	slots []l2slot
	free  []int // unused slot indices
	spare [rowClasses][][]int
	head  int // most recently used
	tail  int // least recently used
	stats RowCacheStats
}

// NewRowCache returns an empty cache holding at most entries rows.
func NewRowCache(entries int) *RowCache {
	if entries < 1 {
		entries = 1
	}
	c := &RowCache{
		index: make(map[int]int, entries),
		slots: make([]l2slot, entries),
		free:  make([]int, 0, entries),
		head:  -1,
		tail:  -1,
	}
	for i := entries - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	return c
}

// Len returns the number of cached rows.
func (c *RowCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Stats returns the traffic snapshot so far.
func (c *RowCache) Stats() RowCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get copies v's cached row into storage obtained from alloc (the
// caller's L1 arena) and reports whether it was present. The copy-out
// API is what lets the cache recycle evicted cell buffers safely: no
// slice of its own storage ever leaves the lock.
func (c *RowCache) Get(v int, alloc func(n int) []int) ([]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[v]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.touch(i)
	c.stats.Hits++
	row := alloc(len(c.slots[i].row))
	copy(row, c.slots[i].row)
	return row, true
}

// Put caches a copy of v's row, evicting the least recently used row
// when full.
func (c *RowCache) Put(v int, row []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[v]; ok {
		// Rows are pure functions of the fixed graph; a re-put can only
		// carry the identical cells, so just refresh recency.
		c.touch(i)
		return
	}
	i := c.takeSlot()
	s := &c.slots[i]
	s.v = v
	s.row = append(c.recycled(len(row)), row...)
	c.index[v] = i
	c.pushFront(i)
}

// recycled returns an empty buffer with capacity for n cells, reusing an
// evicted buffer of n's size class when one is free.
func (c *RowCache) recycled(n int) []int {
	cl := sizeClass(n)
	if l := len(c.spare[cl]); l > 0 {
		buf := c.spare[cl][l-1]
		c.spare[cl] = c.spare[cl][:l-1]
		return buf[:0]
	}
	if n == 0 {
		return nil
	}
	return make([]int, 0, 1<<cl)
}

// sizeClass maps a row length to its power-of-two capacity class.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// takeSlot returns a free slot, evicting the least recently used one
// when none remain. Caller holds mu.
func (c *RowCache) takeSlot() int {
	if l := len(c.free); l > 0 {
		i := c.free[l-1]
		c.free = c.free[:l-1]
		return i
	}
	i := c.tail
	c.unlink(i)
	s := &c.slots[i]
	delete(c.index, s.v)
	if cap(s.row) > 0 {
		cl := sizeClass(cap(s.row))
		c.spare[cl] = append(c.spare[cl], s.row)
	}
	s.row = nil
	c.stats.Evictions++
	return i
}

// touch refreshes recency on a hit. Caller holds mu.
func (c *RowCache) touch(i int) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *RowCache) pushFront(i int) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *RowCache) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}
