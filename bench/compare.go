package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first quartile, the median and the third
// quartile the way Python's statistics.quantiles(vals, n=4) does
// (exclusive method), which is what the benchmark driver uses. Fewer
// than two values have no spread: all three are the value itself.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// Verdicts of -compare.
const (
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric on one workload: base and change are the
// two sides' readings. The change is worse when its median is worse
// than the base's by more than the bound. Otherwise, when either
// side's spread (quartile distance over median) exceeds the bound the
// comparison cannot tell the two apart and is unresolved — unless
// every reading of the change is better than every reading of the
// base.
func verdict(d metricDef, base, change []float64) string {
	b1, bm, b3 := quartiles(base)
	c1, cm, c3 := quartiles(change)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if d.Bound == 0 { // an absolute bound: any worsening counts
		if sign*(cm-bm) > 0 {
			return verdictWorse
		}
		return verdictWithin
	}
	if sign*(cm-bm) > d.Bound*bm {
		return verdictWorse
	}
	spread := 0.0
	if bm != 0 {
		spread = (b3 - b1) / bm
	}
	if cm != 0 {
		spread = max(spread, (c3-c1)/cm)
	}
	if spread <= d.Bound {
		return verdictWithin
	}
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				return verdictUnresolved
			}
		}
	}
	return verdictWithin
}

// compareDocs prints one row per workload and end-to-end metric, and
// fails when any row is worse, when failed_frac rose, or when a
// simulated statistic differs anywhere between or within the two
// documents.
func compareDocs(basePath, changePath string) error {
	base, err := readDocument(basePath)
	if err != nil {
		return err
	}
	change, err := readDocument(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tchange median [q1, q3] (n)\tchange/base\tbound\tverdict")
	counts := map[string]int{}
	for _, w := range workloadNames {
		for _, d := range append(append([]metricDef(nil), endToEnd...), failedFrac) {
			bv, cv := base.values(w, d.Name, false), change.values(w, d.Name, false)
			if len(bv) == 0 || len(cv) == 0 {
				return fmt.Errorf("%s %s: missing from a document", w, d.Name)
			}
			b1, bm, b3 := quartiles(bv)
			c1, cm, c3 := quartiles(cv)
			ratio := "-"
			if bm != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", cm/bm, bm)
			}
			v := verdict(d, bv, cv)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%s\t%g\t%s\n",
				w, d.Name, d.Unit, bm, b1, b3, len(bv), cm, c1, c3, len(cv), ratio, d.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// The simulated statistics repeat exactly: every traced run of
	// either document must report the same value.
	drift := 0
	for name := range simStatNames {
		var all []float64
		for _, w := range workloadNames {
			all = append(all, base.values(w, name, true)...)
			all = append(all, change.values(w, name, true)...)
		}
		for _, v := range all {
			if v != all[0] {
				fmt.Printf("simulated statistic %s differs: %v vs %v\n", name, all[0], v)
				drift++
				break
			}
		}
	}
	fmt.Printf("%d within-bound, %d unresolved, %d worse; %d simulated statistics differ\n",
		counts[verdictWithin], counts[verdictUnresolved], counts[verdictWorse], drift)
	if counts[verdictWorse] > 0 || drift > 0 {
		return fmt.Errorf("comparison failed")
	}
	return nil
}
