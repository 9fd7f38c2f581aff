// Command benchmark is the one benchmark of the scan fleet: five fixed
// workloads, each checked against an independent oracle, four bounded
// end-to-end metrics, and a traced run that walks the layers. README.md
// has the tables; BENCHMARK.json has the bounds and the four workloads
// the driver runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 2024, "traffic seed (the rules are fixed; see README.md)")
		seconds  = flag.Float64("seconds", 24, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as a Chrome trace (Perfetto) to this file; several workloads get FILE.<workload>")
		out      = flag.String("out", "", "append one JSON report per workload run to this file")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
		spec     = flag.String("spec", "BENCHMARK.json", "where -compare reads the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -out files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		selected = []*workload{w}
	}
	window := time.Duration(*seconds * float64(time.Second))
	correct := true
	for _, w := range selected {
		opt := options{
			seed: *seed, window: window, warmup: min(3*time.Second, window*3/10),
			setups: 13, trace: *trace != 0, traceOut: *traceOut, sizeDiv: 1,
		}
		if opt.traceOut != "" && len(selected) > 1 {
			opt.traceOut += "." + w.name
		}
		rep, err := run(w, opt)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, rep)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fatal(err)
			}
		}
		// The last line of a single-workload run is the driver's line.
		fmt.Println(driverLine(rep))
		correct = correct && rep.Correct
		runtime.GC()
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: wrong or failed answers; see failed_ratio above")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, r *report) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s\n", r.Workload, mode)
	fmt.Fprintf(w, "   op: %s; closed loop, %d caller(s), 1 request in flight each\n", r.Op, r.Callers)
	if wl := workloadByName(r.Workload); wl != nil && wl.manual != "" {
		fmt.Fprintf(w, "   not among the driver's runs: %s\n", wl.manual)
	}
	fmt.Fprintf(w, "   seed %d (effective %d), inputs %s; window %.1fs after %.1fs warm-up\n",
		r.Seed, r.EffectiveSeed, r.Fingerprint[:12], r.WindowS, r.WarmupS)
	fmt.Fprintf(w, "   nproc %d, GOMAXPROCS %d, %s; %s\n", r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Network)
	if r.Overlap > 0 {
		fmt.Fprintf(w, "   session overlap %d B\n", r.Overlap)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d, latency samples %d\n", r.Attempted, r.Failed, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-32s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// driverLine is the run's result in the shape BENCHMARK.json's driver
// reads: exactly the end-to-end set, or exactly the per-layer set.
func driverLine(r *report) string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	ms := map[string]value{}
	for _, d := range defs {
		ms[d.Name] = r.Metrics[d.Name]
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // a NaN: a metric was computed from nothing
	}
	return string(line)
}

func appendReport(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
