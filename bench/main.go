// Command bench is the repository benchmark: four workloads driven
// against daemons assembled in-process the way cmd/medshared assembles
// them (TCP transport, fsyncing data dir, one node per stakeholder), with
// end-to-end metrics from an untraced pass and per-layer metrics from a
// traced pass and single-threaded probes. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload fig1_trickle -seed 1 -seconds 10 -trace 1
//	go run ./bench -workload all -runs 5 -json a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one named metric; the lists below are the ones
// BENCHMARK.json declares (bench_test.go checks they agree).
type metricDef struct {
	name, unit    string
	lowerIsBetter bool
}

// endToEnd are the gated end-to-end metrics: what BENCHMARK.json
// declares, what the machine-readable line carries, every one measured by
// every workload. They are the user-visible metrics that held still on
// the reference box; see README.md for the spreads that decided it.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"update_final_p50_ms", "ms", true},
	{"updates_per_s", "1/s", false},
	{"disk_bytes_per_update", "B", true},
}

// reported are the other end-to-end metrics: printed by name and unit,
// summarised by -runs, compared by -compare without failing it. A
// workload with no instance of one (a cascade, an HTTP edge) leaves it
// out.
var reported = []metricDef{
	{"update_final_p90_ms", "ms", true},
	{"cascade_final_p50_ms", "ms", true},
	{"cascade_final_p90_ms", "ms", true},
	{"read_p50_ms", "ms", true},
	{"read_p90_ms", "ms", true},
	{"write_p50_ms", "ms", true},
	{"write_p90_ms", "ms", true},
	{"goodput_per_s", "1/s", false},
	{"recover_s", "s", true},
	{"recovered_stale_sources", "count", true},
	{"failed_ops_ratio", "ratio", true},
}

// result is what one invocation measured for one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Reported  map[string]float64 `json:"reported"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
}

func endToEndOf(p *pass) (gated, rest map[string]float64) {
	gated = map[string]float64{
		"setup_s":               median(p.setupS),
		"update_final_p50_ms":   quantile(p.finalMs, 0.5),
		"updates_per_s":         float64(p.updates) / p.wall.Seconds(),
		"disk_bytes_per_update": float64(p.diskBytes) / float64(max(1, p.updates)),
	}
	rest = map[string]float64{
		"update_final_p90_ms":     quantile(p.finalMs, 0.9),
		"recover_s":               median(p.recoverS),
		"recovered_stale_sources": float64(p.staleSources),
		"failed_ops_ratio":        float64(p.failed) / float64(max(1, p.attempted)),
	}
	if len(p.cascadeMs) > 0 {
		rest["cascade_final_p50_ms"] = quantile(p.cascadeMs, 0.5)
		rest["cascade_final_p90_ms"] = quantile(p.cascadeMs, 0.9)
	}
	if len(p.lagMs) > 0 { // the open loop over HTTP
		// The pooled median of the three read kinds sits in the gap between
		// the proof reads' mode and the whole-view reads' mode, where it
		// moved 15% between seeds while every per-kind median stayed within
		// 5%; the mean of the per-kind medians is the steady figure. The p90
		// lies inside the whole-view mode and is taken pooled.
		var readP50 float64
		for _, k := range readKinds {
			readP50 += quantile(p.reads[k], 0.5) / float64(len(readKinds))
		}
		rest["read_p50_ms"] = readP50
		rest["read_p90_ms"] = quantile(p.allReads(), 0.9)
		rest["write_p50_ms"] = quantile(p.writeMs, 0.5)
		rest["write_p90_ms"] = quantile(p.writeMs, 0.9)
		rest["goodput_per_s"] = float64(p.attempted-p.failed) / p.openLoopWall.Seconds()
	}
	return gated, rest
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	dir      string
	tiny     bool
}

// runWorkload runs one invocation's passes for one workload: untraced
// only, or — with tracing — an untraced and a traced pass that split the
// seconds between them, so a traced invocation costs the same wall time.
func runWorkload(ctx context.Context, w workloadDef, o options, probes map[string]float64) (*result, error) {
	cfg := runConfig{
		seed: o.seed, seconds: o.seconds, tiny: o.tiny, repeats: 3,
		root: o.dir,
	}
	if o.tiny {
		cfg.repeats = 1
	}
	if o.trace {
		cfg.seconds /= 2
		cfg.repeats = 1
	}
	plain, err := runPass(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: o.seed, Attempted: plain.attempted, Failed: plain.failed}
	res.EndToEnd, res.Reported = endToEndOf(plain)
	if plain.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed op: %v\n", w.name, plain.firstErr)
	}
	if !o.trace {
		return res, nil
	}

	cfg.tr = newTracer()
	traced, err := runPass(ctx, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Layer = layerOf(plain, traced, probes)
	out := o.traceOut
	if out == "" {
		out = filepath.Join(o.dir, "trace-"+w.name+".jsonl")
	}
	if err := cfg.tr.dump(out); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(cfg.tr.spans), out)
	return res, nil
}

// layerOf assembles every per-layer metric of one workload: the traced
// pass's spans and counters, client-side timings, the comparison between
// the two passes, and the process-wide probes.
func layerOf(plain, traced *pass, probes map[string]float64) map[string]float64 {
	L := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		L[m.name] = 0 // a metric the workload has no instance of reads 0
	}
	for k, v := range probes {
		L[k] = v
	}
	for k, v := range traced.layer {
		L[k] = v
	}
	L["core.update_final_p99_ms"] = quantile(traced.finalMs, 0.99)
	L["core.cascade_final_p50_ms"] = quantile(traced.cascadeMs, 0.5)
	L["core.cascade_final_p90_ms"] = quantile(traced.cascadeMs, 0.9)
	L["core.recover_attach_ms"] = median(traced.recAttach)
	L["core.recovered_stale_sources"] = float64(max(plain.staleSources, traced.staleSources))
	L["api.rows_p50_ms"] = quantile(traced.reads["rows"], 0.5)
	L["api.row_proof_p50_ms"] = quantile(traced.reads["row"], 0.5)
	L["api.light_read_p50_ms"] = quantile(traced.reads["light"], 0.5)
	L["api.update_p50_ms"] = quantile(traced.writeMs, 0.5)
	L["api.read_p99_ms"] = quantile(traced.allReads(), 0.99)
	L["api.write_p99_ms"] = quantile(traced.writeMs, 0.99)
	L["openloop.lag_p99_ms"] = quantile(traced.lagMs, 0.99)
	if len(traced.lagMs) > 0 {
		L["openloop.goodput_per_s"] = float64(traced.attempted-traced.failed) / traced.openLoopWall.Seconds()
	}
	if base := quantile(plain.finalMs, 0.5); base > 0 {
		L["trace.overhead_ratio"] = quantile(traced.finalMs, 0.5)/base - 1
	}
	return L
}

func printResult(res *result) {
	fmt.Printf("== %s (seed %d): %d ops attempted, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, res.EndToEnd[m.name], m.unit)
	}
	for _, m := range reported {
		if v, ok := res.Reported[m.name]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	if res.Layer == nil {
		return
	}
	fmt.Println("  -- per layer")
	for _, m := range perLayer {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, res.Layer[m.name], m.unit)
	}
}

// driverLine is the machine-readable last line: the end-to-end metrics
// of an untraced invocation, the per-layer metrics of a traced one.
func driverLine(res *result, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.EndToEnd
	if trace {
		defs, vals = perLayer, res.Layer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{vals[m.name], m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.Attempted, res.Failed, metrics})
}

func run() error {
	var o options
	var traceFlag, runs int
	var jsonOut string
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for generated data and the operation schedule")
	flag.Float64Var(&o.seconds, "seconds", 30, "sizes the measured phase: operation counts are this many seconds at the nominal rates")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and the layer probes (the passes split -seconds)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file (default <dir>/trace-<workload>.jsonl)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for data dirs, crash images and span files")
	flag.IntVar(&runs, "runs", 1, "run each workload this many times (seeds seed, seed+1, ...) and print medians and quartiles")
	flag.StringVar(&jsonOut, "json", "", "with -runs: also write every run's metrics to this file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -json files (arguments: a.json b.json) against the bounds in BENCHMARK.json")
	flag.Parse()
	o.trace = traceFlag != 0

	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two files: a.json b.json")
		}
		return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	var todo []workloadDef
	if o.workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		todo = []workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// The scratch directory must exist inside a checkout of the module:
	// refuse to run anywhere else rather than scatter files.
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root (no go.mod here)")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second*time.Duration(max(1, runs)*len(todo)))
	defer cancel()

	var probes map[string]float64
	if o.trace {
		var err error
		if probes, err = runProbes(ctx, o.dir, o.tiny); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	all := make(runSet)
	failed := 0
	var last *result
	for _, w := range todo {
		for r := 0; r < runs; r++ {
			ro := o
			ro.seed = o.seed + int64(r)
			res, err := runWorkload(ctx, w, ro, probes)
			if err != nil {
				return err
			}
			printResult(res)
			all.add(res)
			failed += res.Failed
			last = res
		}
	}
	if runs > 1 {
		all.printSpreads()
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, raw, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if len(todo) == 1 && runs == 1 {
		line, err := driverLine(last, o.trace)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
