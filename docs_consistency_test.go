package lca_test

// Docs-consistency checks: the documentation layer is verified against
// the code it describes, so ARCHITECTURE.md's spec grammar cannot drift
// from source.Parse, docs/WIRE.md cannot drop a wire op, and doc.go
// cannot lose the links. CI runs these by name (see .github/workflows).

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lca/internal/oracle"
	"lca/internal/serve"
	"lca/internal/source"
	"lca/internal/trace"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("documentation file missing: %v", err)
	}
	return string(b)
}

// implicitFamilies are spec families whose example specs open without
// touching the filesystem or network, so the doc examples are parsed for
// real.
var implicitFamilies = map[string]bool{
	"ring": true, "grid": true, "torus": true, "circulant": true, "blockrandom": true,
}

// TestDocsArchitectureSpecGrammar: every spec family the source layer
// understands is documented in ARCHITECTURE.md, and every backticked
// spec example in it parses — fully for implicit families, to a known
// family (never "unknown family") for path/network families.
func TestDocsArchitectureSpecGrammar(t *testing.T) {
	doc := readDoc(t, "ARCHITECTURE.md")
	for _, fam := range source.FamilyNames() {
		if !strings.Contains(doc, "`"+fam+":") {
			t.Errorf("ARCHITECTURE.md does not document a %q spec (want a backticked `%s:...` example)", fam, fam)
		}
	}
	specRe := regexp.MustCompile("`([a-z]+:[^`]+)`")
	checked := 0
	for _, m := range specRe.FindAllStringSubmatch(doc, -1) {
		spec := m[1]
		fam := spec[:strings.Index(spec, ":")]
		switch {
		case implicitFamilies[fam]:
			src, err := source.Parse(spec, 7)
			if err != nil {
				t.Errorf("documented spec %q does not parse: %v", spec, err)
				continue
			}
			if c, ok := src.(source.Closer); ok {
				_ = c.Close()
			}
			checked++
		case fam == "csr" || fam == "edgelist" || fam == "graph" || fam == "file":
			// The documented path does not exist here; the grammar check is
			// that the family resolves (the error is about the file, never
			// an unknown family).
			if _, err := source.Parse(spec, 7); err == nil {
				t.Errorf("documented spec %q unexpectedly opened", spec)
			} else if strings.Contains(err.Error(), "unknown family") {
				t.Errorf("documented spec %q names an unknown family: %v", spec, err)
			}
			checked++
		case fam == "remote" || fam == "sharded" || fam == "http" || fam == "https":
			// Network specs are not dialed from a docs test; the family
			// names must still be real.
			if fam != "http" && fam != "https" {
				found := false
				for _, known := range source.FamilyNames() {
					if known == fam {
						found = true
					}
				}
				if !found {
					t.Errorf("documented spec %q names unknown family %q", spec, fam)
				}
				checked++
			}
		}
	}
	if checked < len(source.FamilyNames()) {
		t.Errorf("only %d spec examples found in ARCHITECTURE.md for %d families; the grammar table looks incomplete",
			checked, len(source.FamilyNames()))
	}
	// The failure-semantics and adaptive-transport knobs must be
	// documented where the grammar is.
	for _, token := range []string{
		"cache=", "hedge=", "rendezvous", "failover",
		"hedge=adaptive", "hedgefloor=", "hedgeceil=",
		"rowfull", "row_full", "RowFetcher", "FetchWidth", "RemainderTrips",
	} {
		if !strings.Contains(doc, token) {
			t.Errorf("ARCHITECTURE.md does not mention %q", token)
		}
	}
}

// TestDocsWireProtocol: docs/WIRE.md documents every wire op, endpoint,
// meta field and the error envelope.
func TestDocsWireProtocol(t *testing.T) {
	doc := readDoc(t, "docs/WIRE.md")
	for _, op := range []string{source.OpDegree, source.OpNeighbor, source.OpAdjacency, source.OpRandomEdge, source.OpRowFull} {
		if !strings.Contains(doc, "`"+op+"`") {
			t.Errorf("docs/WIRE.md does not document the %q op", op)
		}
	}
	for _, token := range []string{
		"/probe/meta", "POST /probe", "GET  /probe",
		`"n"`, `"m"`, `"max_degree"`, `"random_edge"`, `"row_full"`,
		`"row"`, `"rows"`, `"shards"`,
		`"error"`, `"status"`, "65536",
		"`400`", "`404`", "`429`", "`5xx`", "`200`",
		// The trace-propagation contract: header name, span fields, and
		// the optionality guidance third-party shards rely on.
		trace.Header, `"trace"`, `"start_us"`, `"duration_us"`,
		`"parent"`, `"tags"`, "16 hex", "8 hex",
	} {
		if !strings.Contains(doc, token) {
			t.Errorf("docs/WIRE.md does not mention %s", token)
		}
	}
}

// TestDocsServingTier: the serving-tier contract — auth headers, the
// metrics endpoint, the 401/429 statuses, the envelope's request_id
// field and the tenant config keys — is documented in docs/WIRE.md and
// ARCHITECTURE.md with the code's own names.
func TestDocsServingTier(t *testing.T) {
	wire := readDoc(t, "docs/WIRE.md")
	for _, token := range []string{
		serve.TokenHeader, serve.RequestIDHeader, serve.MetricsPath,
		serve.TracesPath, "trace=1", "trace_id",
		"Authorization: Bearer", "`401`", "`429`", "Retry-After",
		`"request_id"`, "?format=text",
		`"probe_budget"`, `"round_trip_budget"`, `"qps"`, `"burst"`,
	} {
		if !strings.Contains(wire, token) {
			t.Errorf("docs/WIRE.md does not mention %s", token)
		}
	}
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, token := range []string{
		serve.MetricsPath, serve.TokenHeader, serve.RequestIDHeader,
		"internal/metrics", "cmd/lcaload", "coalesc",
		"oracle.NewLimit", "oracle.NewLimitTrips",
		"serve_queries_total", "tenant_budget_rejected_total",
	} {
		if !strings.Contains(arch, token) {
			t.Errorf("ARCHITECTURE.md does not mention %s", token)
		}
	}
}

// TestDocsObservability: the tracing plane's surface — endpoints, the
// wire header, the lcaserve knobs, the slow-query log and the debug
// listener — is documented in ARCHITECTURE.md and the doc.go runbook.
func TestDocsObservability(t *testing.T) {
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, token := range []string{
		"internal/trace", serve.TracesPath, trace.Header,
		"slow-query", "?trace=1", "-trace-sample",
		"serve_traces_total", "serve_slow_queries_total",
		"-debug-addr", "pprof", "/debug/vars", "-log-format",
	} {
		if !strings.Contains(arch, token) {
			t.Errorf("ARCHITECTURE.md does not mention %s", token)
		}
	}
	docGo := readDoc(t, "doc.go")
	for _, token := range []string{
		trace.Header, serve.TracesPath, "trace=1", "WithTracer",
		"-trace-sample", "-debug-addr", "/debug/pprof", "/debug/vars",
	} {
		if !strings.Contains(docGo, token) {
			t.Errorf("doc.go runbook does not mention %s", token)
		}
	}
}

// TestDocsTrustPlane: the trust plane's surface — the attest=1 wire
// extension and its proof fields, the #root= pin grammar, the
// distrusted health state, the attestation metrics, and the audit-log
// replay loop — is documented in docs/WIRE.md, ARCHITECTURE.md and the
// doc.go runbook with the code's own names.
func TestDocsTrustPlane(t *testing.T) {
	wire := readDoc(t, "docs/WIRE.md")
	for _, token := range []string{
		"attest=1", "`commitment`", "`row`", "`proof`", "`rows`", "`proofs`",
		"#root=", "ErrAttestation", "HMAC-SHA256", "Merkle",
		source.ShardDistrusted, "internal/attest",
	} {
		if !strings.Contains(wire, token) {
			t.Errorf("docs/WIRE.md does not mention %s", token)
		}
	}
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, token := range []string{
		"Trust plane", "internal/attest", "NewAttested", "#root=HEX",
		"attest=1", "ErrAttestation", "Attestor", "AttestCounter",
		source.ShardDistrusted, "SpotCheck",
		"attest_fail", "proof_bytes",
		"serve_attest_failures_total", "serve_proof_bytes_total",
		"-audit-log", "-audit-key", "-replay", "-chaos lie",
	} {
		if !strings.Contains(arch, token) {
			t.Errorf("ARCHITECTURE.md does not mention %s", token)
		}
	}
	docGo := readDoc(t, "doc.go")
	for _, token := range []string{
		"internal/attest", "NewAttested", "#root=HEX", "ErrAttestation",
		source.ShardDistrusted, "SpotCheck", "attest_fail",
		"serve_attest_failures_total",
		"-attest", "-audit-log", "-audit-key", "-replay", "-chaos lie",
	} {
		if !strings.Contains(docGo, token) {
			t.Errorf("doc.go runbook does not mention %s", token)
		}
	}
}

// TestDocsHotPath: the hot local path's surface — the mmap spec knob
// and its fallback error, the tiered row-cache layer with its eviction
// policies and session switch, the LocalityReporter capability with its
// QueryStats fields and serve counters, and the bench columns CI gates —
// is documented in ARCHITECTURE.md and the doc.go quickstart with the
// code's own names.
func TestDocsHotPath(t *testing.T) {
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, token := range []string{
		"Hot local path", "csr_mmap.go", "OpenCSRMmap", "mmap=1",
		"ErrMmapUnsupported",
		"rowcache.go", "TieredOracle", "WithRowCache",
		"EvictLRU", "EvictClock", "arena",
		"LocalityReporter", "PageTouches", "LocalHits",
		"page_touches", "local_hits",
		"serve_page_touches_total", "serve_local_hits_total",
		"ns/probe", "allocs/probe",
	} {
		if !strings.Contains(arch, token) {
			t.Errorf("ARCHITECTURE.md does not mention %s", token)
		}
	}
	docGo := readDoc(t, "doc.go")
	for _, token := range []string{
		"mmap=1", "WithRowCache", "page_touches", "local_hits",
		"ns/probe", "allocs/probe",
	} {
		if !strings.Contains(docGo, token) {
			t.Errorf("doc.go quickstart does not mention %s", token)
		}
	}
}

// TestDocsTelemetry: ARCHITECTURE.md's telemetry table has one row per
// oracle.TelemetryFields entry, naming the Go field, its JSON name and
// its metric — serve_<name>_total for a counter, the gauge marked as
// such.
func TestDocsTelemetry(t *testing.T) {
	arch := readDoc(t, "ARCHITECTURE.md")
	for _, token := range []string{"### Telemetry", "telemetry.go", "Unwrap() Oracle", "Meter", "source.LocalityOf"} {
		if !strings.Contains(arch, token) {
			t.Errorf("ARCHITECTURE.md does not mention %s", token)
		}
	}
	fields := reflect.TypeFor[oracle.Telemetry]()
	for i, f := range oracle.TelemetryFields {
		var row string
		for _, line := range strings.Split(arch, "\n") {
			if strings.HasPrefix(line, "|") && strings.Contains(line, "`"+f.Name+"`") {
				row = line
				break
			}
		}
		want := "`serve_" + f.Name + "_total`"
		if f.Gauge {
			want = "gauge"
		}
		if row == "" || !strings.Contains(row, want) || !strings.Contains(row, "`"+fields.Field(i).Name+"`") {
			t.Errorf("ARCHITECTURE.md has no telemetry row for %s (%s) with %s (row %q)", f.Name, fields.Field(i).Name, want, row)
		}
	}
}

// TestDocsLinkedFromDocGo: the package documentation points at both
// documents, and the documents point at each other.
func TestDocsLinkedFromDocGo(t *testing.T) {
	docGo := readDoc(t, "doc.go")
	for _, want := range []string{"ARCHITECTURE.md", "docs/WIRE.md"} {
		if !strings.Contains(docGo, want) {
			t.Errorf("doc.go does not link %s", want)
		}
	}
	arch := readDoc(t, "ARCHITECTURE.md")
	if !strings.Contains(arch, "docs/WIRE.md") {
		t.Error("ARCHITECTURE.md does not link docs/WIRE.md")
	}
	if !strings.Contains(readDoc(t, "ROADMAP.md"), "ARCHITECTURE.md") {
		t.Error("ROADMAP.md does not link ARCHITECTURE.md")
	}
}
