package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The smoke runs use tiny inputs and a 200 ms window (stretched under
// the race detector, where one lib-exact op alone takes longer than
// that): they prove the plumbing, not the numbers.
func smokeOptions(trace bool) options {
	return options{seed: 2024, window: 200 * time.Millisecond * raceSlowdown, warmup: 50 * time.Millisecond, setups: 1, trace: trace, sizeDiv: 16}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// driverMetrics parses the line the driver reads and checks its shape.
func driverMetrics(t *testing.T, rep *report) map[string]value {
	t.Helper()
	var line struct {
		Correct   *bool            `json:"correct"`
		Attempted *int             `json:"attempted"`
		Failed    *int             `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(rep)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("driver line lacks correct/attempted/failed or attempted < 1: %s", driverLine(rep))
	}
	return line.Metrics
}

func checkEmitted(t *testing.T, got map[string]value, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v, want a finite value", d.Name, v.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := run(w, smokeOptions(false))
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, driverMetrics(t, rep), endToEnd)
			for _, d := range endToEnd {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0: the bounds are shares of it", d.Name, rep.Metrics[d.Name].Value)
				}
			}
			if !rep.Correct || rep.Metrics["failed_ratio"].Value != 0 {
				t.Errorf("failed %d of %d ops, want 0", rep.Failed, rep.Attempted)
			}
			if rep.Env.GoMaxProcs == 0 || rep.Env.NProc == 0 || rep.Env.GoVersion == "" || rep.WindowS == 0 {
				t.Errorf("environment not recorded: %+v", rep.Env)
			}
		})
	}
}

// The traced run is run twice: every per-layer name must be there, and
// everything simulated or counted must repeat exactly, whatever the host
// did in between.
func TestSmokeTracedAndRepeatable(t *testing.T) {
	repeatable := []string{
		"sim_cycles_per_byte", "isa.instructions", "approx.states", "approx.depth", "prefilter.rules_filtered",
		"arch.sim_cycles", "arch.instructions", "arch.speculations", "arch.rollbacks", "arch.fallbacks",
		"approx.screened_ratio", "prefilter.skip_ratio", "core.jobs_dispatched_per_op", "core.stream.windows",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			opt := smokeOptions(true)
			opt.traceOut = filepath.Join(t.TempDir(), "trace.json")
			first, err := run(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, driverMetrics(t, first), perLayer)
			if first.Metrics["failed_ratio"].Value != 0 {
				t.Errorf("failed %d of %d ops, want 0", first.Failed, first.Attempted)
			}
			if first.Metrics["trace.spans"].Value == 0 || first.Metrics["trace.overhead_ratio"].Value == 0 {
				t.Errorf("no spans or no overhead ratio: %v, %v", first.Metrics["trace.spans"], first.Metrics["trace.overhead_ratio"])
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			raw, err := os.ReadFile(opt.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != int(first.Metrics["trace.spans"].Value) {
				t.Errorf("Chrome trace: %v, %d events for %v spans", err, len(doc.TraceEvents), first.Metrics["trace.spans"].Value)
			}

			opt.traceOut = ""
			second, err := run(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if first.Fingerprint != second.Fingerprint {
				t.Errorf("same seed, different inputs: %s vs %s", first.Fingerprint, second.Fingerprint)
			}
			for _, name := range repeatable {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s read %v then %v on the same inputs, want identical", name, a, b)
				}
			}
		})
	}
}

// A corrupted response must be counted as failed on every op shape:
// single answers, batch items and whole streams.
func TestOracleCheckBites(t *testing.T) {
	for _, name := range []string{"lib-exact", "srv-records", "gw-session"} {
		w := workloadByName(name)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			opt := smokeOptions(false)
			opt.tamper = true
			rep, err := run(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Only the timed window is tampered with; the verification
			// pass before it still passes.
			if rep.Correct || rep.Failed == 0 || rep.Metrics["failed_ratio"].Value == 0 {
				t.Errorf("every timed response was corrupted, yet failed = %d of %d", rep.Failed, rep.Attempted)
			}
			if rep.Metrics["throughput_mbps"].Value != 0 {
				t.Errorf("throughput %v counts wrong answers, want 0", rep.Metrics["throughput_mbps"].Value)
			}
		})
	}
}

func TestSeedsAreDeterministicAndDistinct(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a, err := generate(w, 2024, 16)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 2024, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.stream, b.stream) || a.fingerprint() != b.fingerprint() {
				t.Error("same seed, different inputs or oracle answers")
			}
			opt := smokeOptions(false)
			opt.seed = 7
			other, err := run(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if other.Fingerprint == a.fingerprint() {
				t.Error("seed 7 generated seed 2024's inputs")
			}
			if !other.Correct {
				t.Errorf("seed 7 (effective %d): failed %d of %d ops", other.EffectiveSeed, other.Failed, other.Attempted)
			}
		})
	}
}

// Out-of-regime inputs must be refused, never measured.
func TestRegimeGuardsRefuse(t *testing.T) {
	screened := workloadByName("lib-screened")
	in, err := generate(screened, 2024, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(in.stream[1000:], "hdr_ipsec") // a match of rule 0
	in.matches = 1
	if err := witnessFree(in); err == nil {
		t.Error("witnessFree accepted a stream with a match in it")
	}
	exactW := workloadByName("lib-exact")
	in, err = generate(exactW, 2024, 16)
	if err != nil {
		t.Fatal(err)
	}
	in.items[0].want = nil
	if err := highMatch(in); err == nil {
		t.Error("highMatch accepted a unit without matches")
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program emits %s (%s)", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	widest := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != widest {
		t.Errorf("setup_s must be there and carry the widest bound (%v)", widest)
	}
	// BENCHMARK.json lists, in order, the workloads the driver runs:
	// all but those marked manual.
	var driven []*workload
	for _, w := range workloads {
		if w.manual == "" {
			driven = append(driven, w)
		}
	}
	if len(spec.Workloads) != len(driven) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d for the driver", len(spec.Workloads), len(driven))
	}
	for i, w := range driven {
		if spec.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(spec.Workloads[i].Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, n)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mbps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range mbps {
			for _, w := range workloads {
				rep := &report{Workload: w.name, Metrics: map[string]value{}}
				for _, d := range append(append([]metricDef(nil), endToEnd...), exact...) {
					rep.Metrics[d.Name] = value{1, d.Unit}
				}
				rep.Metrics["throughput_mbps"] = value{v, "MB/s"}
				rep.Metrics["failed_ratio"] = value{0, "ratio"}
				if err := appendReport(path, rep); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.jsonl", 100, 101, 99)
	for _, tc := range []struct {
		name      string
		b         string
		regressed bool
		verdict   string
	}{
		{"same commit", write("aa.jsonl", 99, 100, 101), false, "PASS"},
		{"slower than the bound", write("slow.jsonl", 70, 71, 69), true, "REGRESSED"},
		{"too noisy to call", write("noisy.jsonl", 60, 99, 140), false, "UNRESOLVED"},
		{"faster on every run", write("fast.jsonl", 150, 190, 230), false, "PASS"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "throughput_mbps") && !strings.HasSuffix(line, tc.verdict) {
				t.Errorf("%s: want %s, got: %s", tc.name, tc.verdict, line)
			}
		}
	}
	// An exact metric may not move at all.
	drift := write("drift.jsonl", 100, 101, 99)
	reps, err := readReports(drift)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(drift)
	for _, r := range reps {
		r.Metrics["sim_cycles_per_byte"] = value{1.0001, "cycles/B"}
		if err := appendReport(drift, r); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, spec, base, drift); err != nil || !regressed {
		t.Errorf("sim_cycles_per_byte drifted by 0.01%%: regressed = %v, err = %v\n%s", regressed, err, out.String())
	}
}

// spread must agree with Python's statistics.quantiles(v, n=4), which
// the driver uses: for 1…10 the quartiles are 2.75, 5.5 and 8.25.
func TestSpreadIsPythonsQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1…10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
