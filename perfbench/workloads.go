package main

// workloads is the benchmark's workload table; BENCHMARK.json records
// why each was chosen.
var workloads = map[string]func(opt options) (*outcome, error){
	"spanner-dense":  func(opt options) (*outcome, error) { return runPoint(newDense(opt), opt) },
	"serve-skewed":   func(opt options) (*outcome, error) { return runPoint(newSkewed(opt), opt) },
	"fleet-prefetch": func(opt options) (*outcome, error) { return runPoint(newFleet(opt), opt) },
	"assemble":       runAssemble,
}
