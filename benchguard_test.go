package alveare_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The benchmark guard holds the metrics-DISABLED hot path — the default
// configuration every user runs — to the committed baseline: adding
// observability must stay free when it is switched off. The measurement
// is wall-clock and therefore machine-specific, so the guard only runs
// when asked for explicitly:
//
//	make benchguard        # compare against testdata/bench_guard_baseline.txt
//	make benchbaseline     # re-measure and rewrite the baseline
//
// (equivalently ALVEARE_BENCHGUARD=1 / ALVEARE_BENCHGUARD=update with
// `go test -run TestBenchGuard`). Regenerate the baseline on a new
// machine or after an intentional hot-path change.

const (
	benchGuardBaselineFile = "testdata/bench_guard_baseline.txt"
	// benchGuardTolerance is the allowed regression of the disabled
	// path: 3% over the committed ns/op.
	benchGuardTolerance = 1.03
	// benchGuardRounds measurements are taken and the fastest kept, to
	// damp scheduler noise.
	benchGuardRounds = 5
)

// benchGuardMeasure returns the best-of-N ns/op of a guarded workload.
func benchGuardMeasure(workload func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < benchGuardRounds; i++ {
		r := testing.Benchmark(workload)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// benchGuardWorkloads are the gated hot paths, one baseline line each:
// the metrics-disabled execution core (benchMetricsWorkload). The fast
// path, the admission stage's overhead and the checkpointed session are
// refereed by the benchmark's gw-scan, lib-screened and gw-session
// workloads (benchmark/README.md), parent against change.
var benchGuardWorkloads = []struct {
	key      string
	workload func(b *testing.B)
}{
	{"disabled_ns_per_op", func(b *testing.B) { benchMetricsWorkload(b, false) }},
}

func TestBenchGuard(t *testing.T) {
	mode := os.Getenv("ALVEARE_BENCHGUARD")
	if mode == "" {
		t.Skip("wall-clock guard; run via `make benchguard` (ALVEARE_BENCHGUARD=1)")
	}
	measured := map[string]float64{}
	for _, w := range benchGuardWorkloads {
		measured[w.key] = benchGuardMeasure(w.workload)
	}

	if mode == "update" {
		var sb strings.Builder
		for _, w := range benchGuardWorkloads {
			fmt.Fprintf(&sb, "%s %.0f\n", w.key, measured[w.key])
		}
		if err := os.WriteFile(benchGuardBaselineFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline rewritten:\n%s", strings.TrimSpace(sb.String()))
		return
	}

	raw, err := os.ReadFile(benchGuardBaselineFile)
	if err != nil {
		t.Fatalf("%v (run `make benchbaseline` to create it)", err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 || len(fields)%2 != 0 {
		t.Fatalf("malformed baseline %q", string(raw))
	}
	baselines := map[string]float64{}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i+1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("malformed baseline value %q for %q: %v", fields[i+1], fields[i], err)
		}
		baselines[fields[i]] = v
	}

	for _, w := range benchGuardWorkloads {
		baseline, ok := baselines[w.key]
		if !ok {
			t.Errorf("baseline missing %q (run `make benchbaseline` to add it)", w.key)
			continue
		}
		limit := baseline * benchGuardTolerance
		t.Logf("%s: %.0f ns/op (baseline %.0f, limit %.0f)", w.key, measured[w.key], baseline, limit)
		if measured[w.key] > limit {
			t.Errorf("%s regressed: %.0f ns/op > %.0f ns/op (baseline %.0f +3%%)",
				w.key, measured[w.key], limit, baseline)
		}
	}

	// Informational: what turning the counters on costs. Not a gate —
	// enabled runs opt into the cost — but large jumps are worth seeing.
	enabled := benchGuardMeasure(func(b *testing.B) { benchMetricsWorkload(b, true) })
	t.Logf("metrics-enabled path: %.0f ns/op (%.1f%% over disabled)",
		enabled, (enabled/measured["disabled_ns_per_op"]-1)*100)
}
