package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// readReports reads an -out file: one JSON report per line.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &report{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runsOf collects one metric's value from every untraced run of a
// workload.
func runsOf(reps []*report, workload, metric string) []float64 {
	var v []float64
	for _, r := range reps {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the
// median, by the method Python's statistics.quantiles(n=4) uses.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(v)+1) / 4
		i := min(max(int(pos), 1), len(v)-1)
		return v[i-1] + (pos-float64(i))*(v[i]-v[i-1])
	}
	if m := median(v); m != 0 {
		return (q(3) - q(1)) / m
	}
	return 0
}

// compareFiles prints, for every workload and end-to-end metric, the
// base's (A) and the candidate's (B) medians, their ratio and a verdict
// against the bound BENCHMARK.json fixes:
//
//	REGRESSED   B's median is worse than A's by more than the bound
//	UNRESOLVED  within the bound, but the runs of one side spread wider
//	            than the bound and do not all beat the other side
//	PASS        otherwise
//
// The two exact metrics must be equal. It reports whether anything
// regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	judged := append([]specMetric(nil), spec.EndToEnd...)
	for _, m := range exact {
		judged = append(judged, specMetric{Name: m.Name, Unit: m.Unit, Better: "lower", Bound: 0})
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA (base)\tB\tB/A\tbound\truns A/B\tverdict\n")
	for _, wl := range workloads {
		for _, m := range judged {
			va, vb := runsOf(a, wl.name, m.Name), runsOf(b, wl.name, m.Name)
			if wl.manual != "" && len(va) == 0 && len(vb) == 0 {
				continue // a workload the driver leaves out, and so did both sides
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t%d/%d\tMISSING\n", wl.name, m.Name, m.Unit, len(va), len(vb))
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb - ma // how much worse B is, in the metric's unit
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case worse > m.Bound*math.Abs(ma):
				verdict, regressed = "REGRESSED", true
			case max(spread(va), spread(vb)) > m.Bound && m.Bound > 0 && !allBetter(vb, va, m.Better):
				verdict = "UNRESOLVED"
			}
			rel := "-"
			if ma != 0 {
				rel = fmt.Sprintf("%.3f", mb/ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%s\t%.0f%%\t%d/%d\t%s\n",
				wl.name, m.Name, m.Unit, ma, mb, rel, m.Bound*100, len(va), len(vb), verdict)
		}
	}
	return regressed, tw.Flush()
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(b, a []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
