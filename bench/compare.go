package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (its default, exclusive
// method) — the driver computes spreads with that function, so this one
// must agree with it.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func loadSet(path string) ([]*fullResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*fullResult
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict judges the change from set a to set b of one metric on one
// workload against the metric's bound:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either set's spread is wider than the bound, so a difference
//	            of the bound's size could hide in it — unless every run of
//	            b reads better than every run of a
//	better      b's median is better than a's by more than the bound
//	same        the medians agree within the bound
//
// setup_s is judged on medians alone, as the driver does.
func verdict(name string, a, b []float64, lowerBetter bool, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse, better := mb > ma*(1+bound), mb < ma*(1-bound)
	if !lowerBetter {
		worse, better = mb < ma*(1-bound), mb > ma*(1+bound)
	}
	if worse {
		return "worse"
	}
	if name != "setup_s" && (spread(a) > bound || spread(b) > bound) {
		if allBetter(a, b, lowerBetter) {
			return "better"
		}
		return "unresolved"
	}
	if better {
		return "better"
	}
	return "same"
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// compareSets prints one row per (workload, end-to-end metric) with both
// medians and quartiles, the ratio b/a, and the verdict; then checks that
// the deterministic counts of runs with the same workload and seed are
// exactly equal. It reports whether anything was worse.
func compareSets(pathA, pathB, benchPath string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	values := func(set []*fullResult, workload, metric string) []float64 {
		var out []float64
		for _, r := range set {
			if mv, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-24s %-5s %38s %38s %14s  %s\n", "workload", "metric", "unit",
		"a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b/a (base a)", "verdict")
	for _, def := range workloads {
		for _, m := range bj.EndToEnd {
			va, vb := values(a, def.name, m.Name), values(b, def.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			v := verdict(m.Name, va, vb, m.Better == "lower", m.Bound)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-24s %-5s %38s %38s %14s  %s\n", def.name, m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", ma, q1a, q3a, len(va)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", mb, q1b, q3b, len(vb)),
				fmt.Sprintf("%.4f (%.5g)", mb/ma, ma), v)
		}
	}
	type runKey struct {
		workload string
		seed     int64
		size     string
	}
	counts := make(map[runKey]map[string]float64)
	for _, r := range a {
		k := runKey{r.Workload, r.Seed, r.Size}
		if counts[k] == nil {
			counts[k] = make(map[string]float64)
		}
		for name, v := range r.Counts {
			counts[k][name] = v
		}
	}
	for _, r := range b {
		for name, v := range r.Counts {
			if want, ok := counts[runKey{r.Workload, r.Seed, r.Size}][name]; ok && want != v {
				anyWorse = true
				fmt.Fprintf(w, "%-14s %-24s seed %d: count %v in a, %v in b  worse\n", r.Workload, name, r.Seed, want, v)
			}
		}
	}
	for _, set := range [][]*fullResult{a, b} {
		for _, r := range set {
			if r.Result.Failed > 0 {
				anyWorse = true
				fmt.Fprintf(w, "%-14s seed %d: %d of %d operations failed  worse\n", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	return anyWorse, nil
}
