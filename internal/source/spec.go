package source

// The graph-spec grammar: one string names any backend, so every surface
// (Session, HTTP server, CLIs) opens sources uniformly. A spec is either
//
//	family:key=value,key=value,...   e.g. ring:n=1000000000
//	family:path                      e.g. csr:web.csr, edgelist:g.txt
//	path                             bare path, treated as edgelist:path
//	remote:http://host:port[#name]   probe a shard over HTTP
//	sharded:spec;spec;...            consistent-hash across replica shards
//
// Integer values accept underscores and integral e-notation
// (n=1_000_000_000, n=1e9). A seed=... key overrides the seed passed to
// Parse for the families that consume one. The sharded list takes any
// sub-specs plus optional hedge=DURATION (hedged probes, e.g.
// hedge=20ms) or hedge=adaptive (per-shard p95-derived delay, bounded by
// hedgefloor=/hedgeceil=) items, ";"-separated — or ","-separated when
// no sub-spec contains a comma, so sharded:remote:http://a,remote:http://b
// works. A cache=N item is rejected: rows are cached above the source.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lca/internal/gen"
	"lca/internal/graph"
	"lca/internal/rnd"
)

// Family describes one spec-addressable backend family.
type Family struct {
	// Name is the spec prefix.
	Name string
	// Usage is the one-line argument summary surfaced by CLIs and /sources.
	Usage string
	// Keys are the accepted argument names (seed is accepted everywhere);
	// an unknown key is an error, never silently ignored.
	Keys []string
	// Open constructs the source. For key=value families args holds the
	// parsed pairs; for path families args holds {"path": ...}.
	Open func(args map[string]string, seed rnd.Seed) (Source, error)
}

// pathFamilies take a single positional argument (a path, a URL, a shard
// list) instead of key=value pairs.
var pathFamilies = map[string]bool{"edgelist": true, "csr": true, "remote": true, "sharded": true}

var families = map[string]*Family{
	"ring": {
		Name:  "ring",
		Keys:  []string{"n"},
		Usage: "ring:n=N — the n-cycle (implicit, O(1) state)",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			n, err := intArg(args, "n", -1)
			if err != nil {
				return nil, err
			}
			return Ring(n), nil
		},
	},
	"grid": {
		Name:  "grid",
		Keys:  []string{"rows", "cols"},
		Usage: "grid:rows=R,cols=C — the R x C grid (implicit)",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			rows, cols, err := extentArgs(args)
			if err != nil {
				return nil, err
			}
			return Grid(rows, cols), nil
		},
	},
	"torus": {
		Name:  "torus",
		Keys:  []string{"rows", "cols"},
		Usage: "torus:rows=R,cols=C — the R x C torus (implicit)",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			rows, cols, err := extentArgs(args)
			if err != nil {
				return nil, err
			}
			return Torus(rows, cols), nil
		},
	},
	"circulant": {
		Name:  "circulant",
		Keys:  []string{"n", "d"},
		Usage: "circulant:n=N,d=D[,seed=S] — hash-based d-regular circulant (implicit; d even)",
		Open: func(args map[string]string, seed rnd.Seed) (Source, error) {
			n, err := intArg(args, "n", -1)
			if err != nil {
				return nil, err
			}
			d, err := intArg(args, "d", -1)
			if err != nil {
				return nil, err
			}
			offsets, err := gen.CirculantOffsets(n, d, seed)
			if err != nil {
				return nil, err
			}
			return Circulant(n, offsets)
		},
	},
	"blockrandom": {
		Name:  "blockrandom",
		Keys:  []string{"n", "d", "block"},
		Usage: "blockrandom:n=N,d=D[,block=B][,seed=S] — per-block G(B, d/(B-1)) random graph (implicit; block default 64)",
		Open: func(args map[string]string, seed rnd.Seed) (Source, error) {
			n, err := intArg(args, "n", -1)
			if err != nil {
				return nil, err
			}
			d, err := floatArg(args, "d", -1)
			if err != nil {
				return nil, err
			}
			block, err := intArg(args, "block", 64)
			if err != nil {
				return nil, err
			}
			if block < 2 || block > maxSpecBlock {
				return nil, fmt.Errorf("blockrandom block must be in [2,%d], got %d", maxSpecBlock, block)
			}
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return nil, fmt.Errorf("blockrandom degree %q must be a finite non-negative number", args["d"])
			}
			return BlockRandom(n, block, d, seed), nil
		},
	},
	"edgelist": {
		Name:  "edgelist",
		Usage: "edgelist:path (or a bare path) — edge-list text file, loaded in memory",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			f, err := os.Open(args["path"])
			if err != nil {
				return nil, err
			}
			defer f.Close()
			g, err := graph.ReadEdgeList(f)
			if err != nil {
				return nil, fmt.Errorf("source: %s: %w", args["path"], err)
			}
			return g, nil
		},
	},
	"csr": {
		Name: "csr",
		Usage: "csr:path[?mmap=1] — CSR binary file, probed cold from disk " +
			"(mmap=1 maps it read-only instead, falling back to cold reads where mmap is unavailable)",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			return openCSRSpec(args["path"])
		},
	},
	"remote": {
		Name:  "remote",
		Usage: "remote:http://host:port[#name] — probe another lcaserve shard over HTTP",
		Open: func(args map[string]string, _ rnd.Seed) (Source, error) {
			return OpenRemote(args["path"])
		},
	},
	"sharded": {
		Name: "sharded",
		Usage: "sharded:spec;spec;... — consistent-hash probes across replica shards with failover " +
			"(any sub-specs; ';' or ',' separated; hedge=20ms hedges slow probes, " +
			"hedge=adaptive derives the delay from each shard's recent p95, bounded by hedgefloor=/hedgeceil=)",
		// Open is assigned in init: it recurses into Parse, and a literal
		// here would be an initialization cycle.
	},
}

func init() { families["sharded"].Open = openShardedSpec }

// maxSpecBlock caps the blockrandom block size reachable through a spec:
// probes scan the block, so an absurd block turns O(1) probes into O(n)
// scans — a spec typo must not do that silently.
const maxSpecBlock = 1 << 20

// extentArgs parses the rows/cols arguments shared by grid and torus,
// refusing extent products that overflow the vertex space (the post-parse
// N() check cannot catch a product that wrapped negative).
func extentArgs(args map[string]string) (rows, cols int, err error) {
	if rows, err = intArg(args, "rows", -1); err != nil {
		return 0, 0, err
	}
	if cols, err = intArg(args, "cols", -1); err != nil {
		return 0, 0, err
	}
	if rows > 0 && cols > MaxVertices/rows {
		return 0, 0, fmt.Errorf("%d x %d vertices overflow the supported maximum %d", rows, cols, MaxVertices)
	}
	return rows, cols, nil
}

// splitShardSpecs splits a sharded spec body into items: on ";" when one
// is present (required when sub-specs themselves contain commas, like
// grid:rows=3,cols=3), else on "," per the compact remote-list form.
func splitShardSpecs(rest string) []string {
	sep := ","
	if strings.Contains(rest, ";") {
		sep = ";"
	}
	return strings.Split(rest, sep)
}

// openShardedSpec opens every sub-spec of a sharded: list and combines
// them; already-open shards are closed again on any failure.
func openShardedSpec(args map[string]string, seed rnd.Seed) (Source, error) {
	var shards []Source
	closeAll := func() {
		for _, sh := range shards {
			if c, ok := sh.(Closer); ok {
				_ = c.Close()
			}
		}
	}
	var opts []ShardedOption
	var adaptive bool
	var hedgeFloor, hedgeCeil time.Duration
	hedgeBound := func(name, raw string) (time.Duration, error) {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if d <= 0 || d > time.Minute {
			return 0, fmt.Errorf("%s %s must be in (0s,1m]", name, d)
		}
		return d, nil
	}
	for _, item := range splitShardSpecs(args["path"]) {
		item = strings.TrimSpace(item)
		if item == "" {
			closeAll()
			return nil, fmt.Errorf("empty shard spec in list %q", args["path"])
		}
		if strings.HasPrefix(item, "cache=") {
			closeAll()
			return nil, fmt.Errorf("%s: a sharded source caches no probes; cache rows above it with lca.WithRowCache(N) on a Session or prefetch=1 on lcaserve", item)
		}
		if raw, ok := strings.CutPrefix(item, "hedge="); ok {
			if raw == "adaptive" {
				adaptive = true
				continue
			}
			d, err := hedgeBound("hedge delay", raw)
			if err != nil {
				closeAll()
				return nil, err
			}
			opts = append(opts, WithHedge(d))
			continue
		}
		if raw, ok := strings.CutPrefix(item, "hedgefloor="); ok {
			d, err := hedgeBound("hedge floor", raw)
			if err != nil {
				closeAll()
				return nil, err
			}
			hedgeFloor = d
			continue
		}
		if raw, ok := strings.CutPrefix(item, "hedgeceil="); ok {
			d, err := hedgeBound("hedge ceiling", raw)
			if err != nil {
				closeAll()
				return nil, err
			}
			hedgeCeil = d
			continue
		}
		sh, err := Parse(item, seed)
		if err != nil {
			closeAll()
			return nil, err
		}
		shards = append(shards, sh)
	}
	if adaptive {
		opts = append(opts, WithAdaptiveHedge(hedgeFloor, hedgeCeil))
	} else if hedgeFloor > 0 || hedgeCeil > 0 {
		closeAll()
		return nil, fmt.Errorf("hedgefloor=/hedgeceil= require hedge=adaptive")
	}
	src, err := NewSharded(shards, opts...)
	if err != nil {
		closeAll()
		return nil, err
	}
	return src, nil
}

// openCSRSpec opens a csr: spec body, which is a path with an optional
// "?knob=value&knob=value" query suffix. The only knob today is mmap=0|1;
// an unknown knob is an error naming the offending token — the same
// hardening the sharded #root= fragment got — because a typo silently
// opening the cold reader would hide exactly the speedup the knob exists
// to switch on.
func openCSRSpec(rest string) (Source, error) {
	path, query, hasQuery := strings.Cut(rest, "?")
	useMmap := false
	if hasQuery {
		seen := map[string]bool{}
		for _, kv := range strings.Split(query, "&") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("csr knob %q: want knob=value", kv)
			}
			if seen[k] {
				return nil, fmt.Errorf("csr knob %q given more than once", k)
			}
			seen[k] = true
			switch k {
			case "mmap":
				switch v {
				case "1":
					useMmap = true
				case "0":
					useMmap = false
				default:
					return nil, fmt.Errorf("csr knob mmap=%q: want 0 or 1", v)
				}
			default:
				// A typo must never degrade into a silently ignored knob.
				return nil, fmt.Errorf("unknown csr knob %q (accepted: mmap)", k)
			}
		}
	}
	if useMmap {
		src, err := OpenCSRMmap(path)
		if err == nil {
			return src, nil
		}
		if errors.Is(err, ErrMmapUnsupported) {
			return OpenCSR(path)
		}
		return nil, err
	}
	return OpenCSR(path)
}

// aliases maps alternative family names onto catalog entries.
var aliases = map[string]string{
	"cycle": "ring",
	"graph": "edgelist",
	"file":  "edgelist",
}

// Families lists the spec-addressable families, sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames lists the family names, sorted.
func FamilyNames() []string {
	fs := Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// Parse opens the source a spec describes. seed is the default randomness
// for seed-consuming families; a seed=... key in the spec overrides it. A
// bare string with no family prefix is treated as an edge-list file path.
func Parse(spec string, seed rnd.Seed) (Source, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("source: empty spec")
	}
	name, rest, ok := strings.Cut(spec, ":")
	if !ok {
		name, rest = "edgelist", spec
	}
	canon := name
	if a, isAlias := aliases[canon]; isAlias {
		canon = a
	}
	fam, known := families[canon]
	if !known {
		return nil, fmt.Errorf("source: unknown family %q in spec %q (known: %s; prefix a file path with edgelist: or csr:)",
			name, spec, strings.Join(FamilyNames(), ", "))
	}
	if pathFamilies[canon] {
		if rest == "" {
			return nil, fmt.Errorf("source: spec %q: missing %s argument", spec, fam.Name)
		}
		src, err := fam.Open(map[string]string{"path": rest}, seed)
		if err != nil {
			return nil, specErr(spec, err)
		}
		return checkParsed(spec, src)
	}
	args, err := parseArgs(rest)
	if err != nil {
		return nil, fmt.Errorf("source: spec %q: %w", spec, err)
	}
	if raw, hasSeed := args["seed"]; hasSeed {
		s, err := parseIntFlex(raw)
		if err != nil {
			return nil, fmt.Errorf("source: spec %q: seed: %w", spec, err)
		}
		seed = rnd.Seed(s)
		delete(args, "seed")
	}
	for key := range args {
		known := false
		for _, k := range fam.Keys {
			if k == key {
				known = true
				break
			}
		}
		if !known {
			// A typo must never degrade into a silently ignored argument.
			return nil, fmt.Errorf("source: spec %q: unknown argument %q for family %q (accepted: %s, seed)",
				spec, key, fam.Name, strings.Join(fam.Keys, ", "))
		}
	}
	src, err := fam.Open(args, seed)
	if err != nil {
		return nil, specErr(spec, err)
	}
	return checkParsed(spec, src)
}

// specErr wraps a family-open failure with the offending spec. Errors
// from nested Parse calls (sharded: sub-specs) already name the precise
// offending sub-spec, which is the more useful token — they pass through
// unwrapped instead of accumulating one prefix per nesting level.
func specErr(spec string, err error) error {
	if strings.HasPrefix(err.Error(), "source: spec ") {
		return err
	}
	return fmt.Errorf("source: spec %q: %w", spec, err)
}

// checkParsed applies the post-open invariants every spec-opened source
// must satisfy. Vertex IDs must fit the 32-bit packed-key space the
// library's memo tables and edge keys use (see Source's doc); a bigger
// source would answer probes fine and then silently collide in algorithm
// memos. A negative count marks a broken backend (an overflow the family
// failed to guard).
func checkParsed(spec string, src Source) (Source, error) {
	n := src.N()
	if n >= 0 && n <= MaxVertices {
		return src, nil
	}
	if c, ok := src.(Closer); ok {
		_ = c.Close()
	}
	if n < 0 {
		return nil, fmt.Errorf("source: spec %q yields a negative vertex count %d", spec, n)
	}
	return nil, fmt.Errorf("source: spec %q yields n=%d vertices, above the supported maximum %d", spec, n, MaxVertices)
}

// parseArgs splits "k=v,k=v" into a map; empty input is an empty map.
func parseArgs(s string) (map[string]string, error) {
	args := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return args, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("argument %q: want key=value", kv)
		}
		if _, dup := args[k]; dup {
			return nil, fmt.Errorf("argument %q given more than once", k)
		}
		args[k] = v
	}
	return args, nil
}

// intArg fetches and parses an integer argument; def < 0 marks it
// required.
func intArg(args map[string]string, key string, def int) (int, error) {
	raw, ok := args[key]
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("missing required argument %q", key)
		}
		return def, nil
	}
	v, err := parseIntFlex(raw)
	if err != nil {
		return 0, fmt.Errorf("argument %q: %w", key, err)
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("argument %q: %s overflows int", key, raw)
	}
	return int(v), nil
}

// floatArg fetches and parses a float argument; def < 0 marks it required.
func floatArg(args map[string]string, key string, def float64) (float64, error) {
	raw, ok := args[key]
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("missing required argument %q", key)
		}
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("argument %q: %q is not a number", key, raw)
	}
	return v, nil
}

// parseIntFlex parses a non-negative integer, accepting underscore
// separators and integral e-notation (1_000_000, 1e9).
func parseIntFlex(raw string) (uint64, error) {
	s := strings.ReplaceAll(strings.TrimSpace(raw), "_", "")
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f != math.Trunc(f) || f > math.MaxUint64 {
		return 0, fmt.Errorf("%q is not a non-negative integer", raw)
	}
	return uint64(f), nil
}
