package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// runSet holds every run's end-to-end values, gated and reported:
// workload -> metric -> one value per run. It is what -json writes and
// -compare reads.
type runSet map[string]map[string][]float64

func (rs runSet) add(res *result) {
	m := rs[res.Workload]
	if m == nil {
		m = make(map[string][]float64)
		rs[res.Workload] = m
	}
	for _, vals := range []map[string]float64{res.EndToEnd, res.Reported} {
		for name, v := range vals {
			m[name] = append(m[name], v)
		}
	}
}

// printSpreads prints, per workload and end-to-end metric, the median,
// the quartiles and the interquartile spread as a share of the median —
// the figure BENCHMARK.json's bounds are sized against.
func (rs runSet) printSpreads() {
	for _, w := range workloads {
		m, ok := rs[w.name]
		if !ok {
			continue
		}
		fmt.Printf("== %s over %d runs\n", w.name, len(m[endToEnd[0].name]))
		fmt.Printf("  %-24s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, d := range slices.Concat(endToEnd, reported) {
			if len(m[d.name]) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(m[d.name])
			fmt.Printf("  %-24s %12.4f %12.4f %12.4f %7.1f%%  %s\n", d.name, q1, q2, q3, 100*spread(m[d.name]), d.unit)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRunSet(path string) (runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// reportedBound is the bound -compare holds the reported (ungated)
// end-to-end metrics to: the widest the contract allows a gated one.
const reportedBound = 0.25

// verdictOf says whether b is worse than a by more than the bound. A
// pairing whose run-to-run spread exceeds the bound is unresolved, not
// unchanged — unless every run of b reads better than every run of a.
func verdictOf(xa, xb []float64, lowerIsBetter bool, bound float64) (worse float64, verdict string) {
	ma, mb := median(xa), median(xb)
	worse = (mb - ma) / ma
	allBetter := slices.Max(xb) < slices.Min(xa)
	if !lowerIsBetter {
		worse = -worse
		allBetter = slices.Min(xb) > slices.Max(xa)
	}
	switch {
	case allBetter:
		return worse, "better on every run"
	case spread(xa) > bound || spread(xb) > bound:
		return worse, "unresolved (spread exceeds bound)"
	case worse > bound:
		return worse, "REGRESSED"
	}
	return worse, "agree"
}

// compareFiles reports, for every workload and end-to-end metric in both
// files, whether b is worse than a by more than the metric's bound: the
// gated metrics against the bounds in BENCHMARK.json, and a regression
// there fails the command; the reported ones against reportedBound, for
// information.
func compareFiles(benchPath, aPath, bPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRunSet(aPath)
	if err != nil {
		return err
	}
	b, err := readRunSet(bPath)
	if err != nil {
		return err
	}
	regressed := 0
	for _, w := range workloads {
		if a[w.name] == nil || b[w.name] == nil {
			continue
		}
		fmt.Printf("== %s\n", w.name)
		fmt.Printf("  %-24s %12s %12s %8s %6s  %s\n", "metric", "a median", "b median", "worse", "bound", "verdict")
		row := func(name string, lowerIsBetter bool, bound float64, gated bool) {
			// A metric whose base is 0 (failed_ops_ratio, stale sources)
			// has no ratio to report; a failed operation fails its own run.
			xa, xb := a[w.name][name], b[w.name][name]
			if len(xa) == 0 || len(xb) == 0 || median(xa) == 0 {
				return
			}
			worse, verdict := verdictOf(xa, xb, lowerIsBetter, bound)
			if !gated {
				verdict += " (not gated)"
			} else if verdict == "REGRESSED" {
				regressed++
			}
			fmt.Printf("  %-24s %12.4f %12.4f %7.1f%% %5.0f%%  %s\n", name, median(xa), median(xb), 100*worse, 100*bound, verdict)
		}
		for _, m := range bf.EndToEnd {
			row(m.Name, m.Better == "lower", m.Bound, true)
		}
		for _, m := range reported {
			row(m.name, m.lowerIsBetter, reportedBound, false)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d gated metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
