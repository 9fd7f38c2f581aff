package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// options is one run's settings. The zero value is not usable; main and
// the tests fill every field.
type options struct {
	seed     int64
	window   time.Duration // the timed window
	warmup   time.Duration // lazy-DFA caches, pools and connections fill
	setups   int           // cold builds behind setup_s
	trace    bool          // the traced run: per-layer metrics instead of end-to-end
	traceOut string        // Chrome-trace file of the traced run, "" for none
	sizeDiv  int           // tests shrink the generated traffic by this
	tamper   bool          // tests corrupt every timed response
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded with every report: the numbers mean nothing
// without it.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Network    string `json:"network"`
}

func thisEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Network:    "loopback 127.0.0.1, servers and gateway in the benchmark process",
	}
}

// report is one run of one workload: a line of the -out file.
type report struct {
	Workload      string           `json:"workload"`
	Op            string           `json:"op"`
	Seed          int64            `json:"seed"`
	EffectiveSeed int64            `json:"effective_seed"`
	Fingerprint   string           `json:"inputs_sha256"`
	Traced        bool             `json:"traced"`
	WindowS       float64          `json:"window_s"`
	WarmupS       float64          `json:"warmup_s"`
	Callers       int              `json:"callers"`
	Overlap       int              `json:"session_overlap,omitempty"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Samples       int              `json:"latency_samples"`
	Metrics       map[string]value `json:"metrics"`
	Env           environment      `json:"env"`
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{v, d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table it is reported under")
}

// run executes one workload once: generate, oracle, set-up builds,
// verification pass, warm-up, then the timed window or the traced run.
func run(w *workload, opt options) (*report, error) {
	in, err := generate(w, opt.seed, opt.sizeDiv)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Op: w.op, Seed: opt.seed, EffectiveSeed: in.seed, Fingerprint: in.fingerprint(),
		Traced: opt.trace, WindowS: opt.window.Seconds(), WarmupS: opt.warmup.Seconds(),
		Metrics: map[string]value{}, Env: thisEnvironment(),
	}

	setups, st, err := timeSetup(w, in, opt.setups)
	if err != nil {
		return nil, err
	}
	up := true
	defer func() {
		if up {
			st.close()
		}
	}()
	rep.Callers = st.callers()
	if f, ok := st.(*fleetStack); ok {
		rep.Overlap = f.frames.overlap
	}

	// Nothing below may hang: the windows end by themselves and every
	// request carries this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 2*(opt.warmup+opt.window)+time.Minute)
	defer cancel()

	verified, err := snapshotDelta(st, func() (int, int, int, error) { return st.verify(ctx) })
	if err != nil {
		return nil, fmt.Errorf("%s: verification pass: %w", w.name, err)
	}
	if err := w.guard(verified); err != nil {
		return nil, fmt.Errorf("%s: out of regime: %w", w.name, err)
	}
	rep.Attempted, rep.Failed = verified.ops, verified.bad
	simCyclesPerByte := ratio(verified.n("ruleset.cycles"), int64(verified.bytes))

	if _, err := runWindow(ctx, st, opt.warmup, false, false); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	if opt.trace {
		if err := tracedRun(ctx, w, st, in, opt, verified, rep); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		rep.set(perLayer, "sim_cycles_per_byte", simCyclesPerByte)
		rep.set(perLayer, "failed_ratio", ratio(int64(rep.Failed), int64(rep.Attempted)))
		rep.Correct = rep.Failed == 0
		return rep, nil
	}

	runtime.GC()
	m0 := readMem()
	logs, err := runWindow(ctx, st, opt.window, false, opt.tamper)
	mem := readMem().since(m0)
	if err != nil {
		return nil, fmt.Errorf("%s: timed window: %w", w.name, err)
	}
	ws := summarize(logs, opt.window)
	if ws.samples == 0 {
		return nil, fmt.Errorf("%s: no op completed inside the %v window", w.name, opt.window)
	}
	rep.Attempted += ws.attempted
	rep.Failed += ws.failed
	rep.Samples = ws.samples
	rep.Correct = rep.Failed == 0
	// The other half of the set-up builds comes after the window, half a
	// minute from the first: the host's slow stretches outlast one batch.
	st.close()
	up = false
	after, last, err := timeSetup(w, in, opt.setups)
	if err != nil {
		return nil, err
	}
	st, up = last, true
	rep.set(endToEnd, "setup_s", median(append(setups, after...)))
	rep.set(endToEnd, "throughput_mbps", ws.mbps)
	rep.set(endToEnd, "latency_p50_us", ws.p50us)
	rep.set(endToEnd, "allocs_per_op", float64(mem.mallocs)/float64(ws.attempted))
	rep.set(perLayer, latencyP90, ws.p90us)
	rep.set(perLayer, allocBytes, float64(mem.bytes)/float64(ws.attempted))
	rep.set(perLayer, "sim_cycles_per_byte", simCyclesPerByte)
	rep.set(perLayer, "failed_ratio", ratio(int64(rep.Failed), int64(rep.Attempted)))
	return rep, nil
}

// timeSetup builds the workload's whole serving stack from pattern text
// n times, cold, and returns the build times with the last stack still
// up. What a shard start or a RELOAD pays.
func timeSetup(w *workload, in *inputs, n int) ([]float64, stack, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := w.build(in)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return times, st, nil
		}
		st.close()
	}
}
