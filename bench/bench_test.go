package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs the probes and every workload at tiny sizes (about 20
// operations on 64-row tables), untraced and traced, with every output
// check, so tier-1 covers the harness: the daemons assemble, every
// metric the lists name gets a value, the spans tile an update, and the
// machine-readable line carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	dir := t.TempDir()
	probes, err := runProbes(ctx, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := options{workload: w.name, seed: 7, seconds: 1, trace: true, dir: dir, tiny: true}
		res, err := runWorkload(ctx, w, o, probes)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.EndToEnd[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v)
			}
		}
		wantReported := []string{"update_final_p90_ms", "recover_s"}
		switch w.name {
		case "fig1_trickle":
			wantReported = append(wantReported, "cascade_final_p50_ms", "cascade_final_p90_ms")
		case "serve_mixed":
			wantReported = append(wantReported, "read_p50_ms", "read_p90_ms", "write_p50_ms", "write_p90_ms", "goodput_per_s")
		}
		for _, name := range wantReported {
			if v := res.Reported[name]; v <= 0 {
				t.Errorf("%s: reported metric %s = %v, want > 0", w.name, name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := res.Layer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		for name := range res.Layer {
			if !declared(perLayer, name) {
				t.Errorf("%s: per-layer metric %s measured but not declared", w.name, name)
			}
		}
		if u := res.Layer["trace.unattributed_ratio"]; u > 0.10 {
			t.Errorf("%s: %.0f%% of update time is in no span, want <= 10%%", w.name, 100*u)
		}
		for _, trace := range []bool{false, true} {
			line, err := driverLine(res, trace)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !out.Correct || out.Attempted < 1 || len(out.Metrics) != len(want) {
				t.Errorf("%s: driver line has %d metrics, want %d: %s", w.name, len(out.Metrics), len(want), line)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkFileAgrees checks BENCHMARK.json against the metric and
// workload lists the program prints from.
func TestBenchmarkFileAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			better := "higher"
			if want[i].lowerIsBetter {
				better = "lower"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json says %s/%s/%s, the program %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
