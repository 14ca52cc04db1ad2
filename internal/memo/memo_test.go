package memo

import (
	"testing"

	"lca/internal/rnd"
)

// checkKey compares the table's answer and priority for v with a plain
// map's answer and the family's hash.
func checkKey(t *testing.T, tab *Table[uint8], fam *rnd.Family, ref map[int]uint8, v int) {
	t.Helper()
	if got, want := tab.Get(v), ref[v]; got != want {
		t.Fatalf("Get(%d) = %d, want %d (sliced %v)", v, got, want, tab.Sliced())
	}
	if got, want := tab.Priority(v), fam.Hash(uint64(v)); got != want {
		t.Fatalf("Priority(%d) = %d, want %d (sliced %v)", v, got, want, tab.Sliced())
	}
}

// TestTableSwitchPoint: the Put that brings the map to n/16 answers
// switches the table, keys outside [0, n) count toward it and stay
// readable, and answers and priorities read the same on both sides of
// the switch.
func TestTableSwitchPoint(t *testing.T) {
	fam := rnd.NewFamily(7, 16)
	for _, n := range []int{0, 1, 15, 16, 17, 160, 1000} {
		tab := Make[uint8](n, fam)
		ref := map[int]uint8{}
		// Out-of-range keys first, then in-range ones from the top down.
		keys := []int{-1, n, n + 5, -1 << 40, 1 << 40}
		for v := n - 1; v >= 0; v-- {
			keys = append(keys, v)
		}
		for i, v := range keys {
			if tab.Sliced() {
				t.Fatalf("n=%d: sliced after %d answers, want %d", n, i, max(n/switchDiv, 1))
			}
			x := uint8(i%250 + 1)
			tab.Put(v, x)
			ref[v] = x
			if len(ref) >= n/switchDiv {
				break
			}
		}
		if !tab.Sliced() {
			t.Fatalf("n=%d: still a map after %d answers", n, len(ref))
		}
		for _, v := range keys {
			checkKey(t, &tab, fam, ref, v)
			checkKey(t, &tab, fam, ref, v) // a cached priority reads the same
		}
		// Answers put after the switch, in range and out of it.
		for _, v := range []int{-3, 0, n / 2, n - 1, n, n + 100} {
			tab.Put(v, 9)
			ref[v] = 9
			checkKey(t, &tab, fam, ref, v)
		}
	}
}

// FuzzVertexTable runs a random Put/Get sequence over a table of random
// size, keys from -8 to n+7, against a plain map: every Get answers as
// the map does, every Priority is the family's hash, Before is the
// hash order with ties broken by ID, and the table has switched exactly
// once it holds n/16 answers.
func FuzzVertexTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 5})
	f.Add(uint8(40), []byte{1, 10, 3, 1, 11, 4, 0, 10, 0, 1, 0, 7, 0, 0, 0, 1, 60, 2, 0, 60, 0})
	f.Add(uint8(255), []byte{1, 2, 3, 1, 200, 4, 1, 7, 255, 1, 1, 1, 1, 100, 9, 1, 50, 8, 1, 20, 7, 1, 30, 6, 1, 40, 5, 1, 80, 4, 1, 90, 3, 1, 110, 2, 1, 120, 1, 1, 130, 1, 1, 140, 2, 1, 150, 3, 1, 160, 4, 0, 3, 0, 0, 200, 0})
	fam := rnd.NewFamily(11, 16)
	f.Fuzz(func(t *testing.T, nb uint8, ops []byte) {
		n := int(nb)
		tab := Make[uint8](n, fam)
		ref := map[int]uint8{}
		key := func(b byte) int { return int(b)%(n+16) - 8 }
		prev := 0
		for ; len(ops) >= 3; ops = ops[3:] {
			v := key(ops[1])
			if ops[0]&1 == 1 {
				x := ops[2]%255 + 1
				tab.Put(v, x)
				ref[v] = x
			}
			checkKey(t, &tab, fam, ref, v)
			hv, hp := fam.Hash(uint64(v)), fam.Hash(uint64(prev))
			if got, want := tab.Before(v, prev, tab.Priority(prev)), hv < hp || hv == hp && v < prev; got != want {
				t.Fatalf("Before(%d, %d) = %v, want %v", v, prev, got, want)
			}
			prev = v
			if want := len(ref) > 0 && len(ref) >= n/switchDiv; tab.Sliced() != want {
				t.Fatalf("n=%d with %d answers: sliced %v, want %v", n, len(ref), tab.Sliced(), want)
			}
		}
		for v := -8; v < n+8; v++ {
			checkKey(t, &tab, fam, ref, v)
		}
	})
}
