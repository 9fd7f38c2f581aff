package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. The tables below are what the
// program emits; BENCHMARK.json repeats the names with directions and
// bounds, and the tests hold the two to each other.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Throughput and the latencies are medians over ten equal slices
// of the timed window, so one noisy second does not move them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mbps", "MB/s"},
	{"latency_p50_us", "us"},
	{"allocs_per_op", "count"},
}

// exact are the two metrics the issue lists as end-to-end with a bound
// of zero. They cannot carry a relative bound (failed_ratio is 0 by
// design, sim_cycles_per_byte is 0 whenever the screen holds and moves
// with the seed), so they are reported with the per-layer set and
// -compare holds them to exact equality instead.
var exact = []metricDef{
	{"failed_ratio", "ratio"},
	{"sim_cycles_per_byte", "cycles/B"},
}

// Two more of the issue's end-to-end metrics could not hold a bound and
// went where the issue sends such metrics, to the per-layer list; both
// runs report them. latencyP90: between ten runs of one commit the
// driver saw it spread 26-31 % on srv-records, past the widest bound
// there is. allocBytes: on lib-exact the lazy-DFA cache thrashes and
// pooled gates die with every GC, so it moves by a fifth.
const (
	latencyP90 = "latency_p90_us"
	allocBytes = "runtime.alloc_bytes_per_op"
)

// perLayer is the traced run's report, layer = package name. A metric
// that has no meaning on a workload (gateway.* on srv-records) reads 0.
// The untraced run reports the first four of them too.
var perLayer = append(append([]metricDef(nil), exact...), []metricDef{
	{latencyP90, "us"},
	{allocBytes, "B"},
	// compiler: set-up cost by stage, per rule set
	{"syntax.parse_us", "us"},
	{"ir.lower_us", "us"},
	{"backend.emit_us", "us"},
	{"approx.build_us", "us"},
	{"prefilter.build_us", "us"},
	{"automata.lazy_compile_us", "us"},
	// shape of what was compiled (exact counts)
	{"isa.instructions", "count"},
	{"approx.states", "count"},
	{"approx.depth", "count"},
	{"prefilter.rules_filtered", "count"},
	// skip tiers
	{"approx.ns_per_byte", "ns/B"},
	{"approx.screened_ratio", "ratio"},
	{"approx.precision", "ratio"},
	{"prefilter.ns_per_byte", "ns/B"},
	{"prefilter.skip_ratio", "ratio"},
	{"automata.gate_ns_per_byte", "ns/B"},
	{"automata.gate_negative_ratio", "ratio"},
	{"automata.cache_flushes", "count"},
	{"automata.bails", "count"},
	// exact engine: host time beside simulated counts, never mixed
	{"arch.host_ns_per_byte", "ns/B"},
	{"arch.host_ns_per_sim_cycle", "ns/cycle"},
	{"arch.sim_cycles", "count"},
	{"arch.instructions", "count"},
	{"arch.speculations", "count"},
	{"arch.rollbacks", "count"},
	{"arch.fallbacks", "count"},
	// rule-set fan-out and the window machines
	{"core.scan_ns_per_byte", "ns/B"},
	{"core.fanout_self_ns_per_op", "ns"},
	{"core.jobs_dispatched_per_op", "count"},
	{"core.reader_ns_per_byte", "ns/B"},
	{"core.stream.push_ns_per_byte", "ns/B"},
	{"core.stream.windows", "count"},
	{"core.stream.export_us", "us"},
	{"core.stream.checkpoint_bytes", "B"},
	// serving shell
	{"server.codec_decode_ns_per_op", "ns"},
	{"server.codec_encode_ns_per_op", "ns"},
	{"server.bytes_out_per_op", "B"},
	{"server.latency_mean_us", "us"},
	{"server.latency_p99_us", "us"},
	{"server.shell_us", "us"},
	{"server.queue_highwater", "count"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"client.wire_us", "us"},
	{"client.latency_p99_us", "us"},
	{"client.latency_max_us", "us"},
	{"client.retries", "count"},
	{"gateway.hop_us", "us"},
	{"gateway.requests", "count"},
	{"gateway.rerouted", "count"},
	{"gateway.shed", "count"},
	{"gateway.shard_imbalance", "ratio"},
	{"gateway.session_failovers", "count"},
	{"gateway.session_replays", "count"},
	// the process and the cost of looking
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.heap_inuse_peak_mb", "MB"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
}...)

// benchSpec is BENCHMARK.json as far as this program reads it: the
// directions and bounds -compare judges by live there, not here.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
