package main

import (
	"fmt"

	"alveare/internal/metrics"
)

// workload is one fixed traffic shape: where its rules and traffic come
// from, how the traffic is cut into inputs, which regime it must be in,
// and how its serving stack is built.
type workload struct {
	name string
	op   string // what one op is, for the report
	// manual, when set, is why BENCHMARK.json leaves the workload out of
	// the runs the driver makes: it still runs by name and under "all".
	manual string

	suite      string
	nRules     int
	size       int // bytes of generated traffic
	plantEvery int // a witness of every rule per this many bytes; 0: none
	cut        func(data []byte, seed int64) [][]byte

	// inRegime judges generated inputs before anything runs; guard
	// judges the counters the verification pass moved. Both fail the
	// run loudly instead of letting it measure the wrong path.
	inRegime func(*inputs) error
	guard    func(d counterDelta) error
	// archShare, when set, is the least share of the layer walk the
	// exact engine must account for (checked by the traced run).
	archShare float64

	build func(*inputs) (stack, error)
}

func pieces(n int) func([]byte, int64) [][]byte {
	return func(data []byte, _ int64) [][]byte { return cutFixed(data, n) }
}

func whole(data []byte, _ int64) [][]byte { return [][]byte{data} }

// workloads is the fixed matrix, in the order a full run executes it.
// BENCHMARK.json and README.md say why each one exists.
var workloads = []*workload{
	{
		name: "lib-exact", op: "one RuleSet.Scan of an 8 KiB unit",
		suite: "Protomata", nRules: 10, size: 256 << 10, plantEvery: 8 << 10, cut: pieces(8 << 10),
		inRegime: highMatch, guard: noGuard, archShare: 0.9,
		build:  buildLib(scanOp, 1, libOptions),
		manual: "the cycle-level simulator's host time follows the hyperthread neighbour, not the code: 25-33 % between runs of one commit",
	},
	{
		name: "lib-screened", op: "one RuleSet.ScanReader over the 1 MiB stream",
		suite: "PowerEN", nRules: 10, size: 1 << 20, cut: whole,
		inRegime: witnessFree, guard: allScreened,
		build: buildLib(pullOp, 1, libOptions),
	},
	{
		name: "gw-scan", op: "one SCAN round trip of a 4 KiB payload through the gateway",
		suite: "PowerEN", nRules: 20, size: 1 << 20, cut: pieces(4 << 10),
		inRegime: anyTraffic, guard: everyShardServed,
		build: buildFleet(scanOp, 2, true),
	},
	{
		name: "srv-records", op: "one 64-256 B record (latency is its 64-record SCAN-BATCH round trip)",
		suite: "PowerEN", nRules: 20, size: 1 << 20, plantEvery: 64 << 10, cut: cutRecords,
		inRegime: anyTraffic, guard: noGuard,
		build: buildFleet(batchOp, 1, false),
	},
	{
		name: "gw-session", op: "one 4 KiB SESSION-DATA frame ack through the gateway",
		suite: "PowerEN", nRules: 20, size: 1 << 20, cut: whole,
		inRegime: anyTraffic, guard: everyShardServed,
		build: buildFleet(sessionOp, 2, true),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// counterDelta is how far the stack's own counters moved between two
// snapshots: per rule set (shard) and, when there is one, the gateway.
type counterDelta struct {
	before, after   []*metrics.Snapshot
	fleet0, fleet1  *metrics.Snapshot
	ops, bytes, bad int
}

func snapshotDelta(st stack, during func() (ops, bad, bytes int, err error)) (counterDelta, error) {
	d := counterDelta{before: st.ruleSets(), fleet0: st.fleet()}
	var err error
	d.ops, d.bad, d.bytes, err = during()
	d.after, d.fleet1 = st.ruleSets(), st.fleet()
	return d, err
}

// n is the named counter's movement summed over the rule sets.
func (d counterDelta) n(name string) int64 { return sumOf(d.after, name) - sumOf(d.before, name) }

// gw is the named gateway counter's movement, 0 without a gateway.
func (d counterDelta) gw(name string) int64 {
	if d.fleet1 == nil {
		return 0
	}
	return d.fleet1.Get(name) - d.fleet0.Get(name)
}

// served is each shard's answered request frames of any scanning kind.
func (d counterDelta) served() []int64 {
	out := make([]int64, len(d.after))
	for i := range d.after {
		for _, ep := range []string{"scan", "batch", "session.data"} {
			name := "server." + ep + ".requests"
			out[i] += d.after[i].Get(name) - d.before[i].Get(name)
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func noGuard(counterDelta) error { return nil }

// allScreened: the filter walked every window, admitted none, and the
// simulator ran no cycle.
func allScreened(d counterDelta) error {
	screened, admitted := d.n("ruleset.approx.windows.screened"), d.n("ruleset.approx.windows.admitted")
	if screened == 0 || admitted != 0 {
		return fmt.Errorf("approx screened %d windows and admitted %d, want every window screened out", screened, admitted)
	}
	if c := d.n("ruleset.cycles"); c != 0 {
		return fmt.Errorf("%d simulated cycles on a screened stream, want 0", c)
	}
	return nil
}

// everyShardServed: the ring spread the tenants, and no session had to
// fail over (a failover would time recovery, not the steady path).
func everyShardServed(d counterDelta) error {
	for i, n := range d.served() {
		if n == 0 {
			return fmt.Errorf("shard %d served no traffic", i)
		}
	}
	if n := d.gw("gateway.sessions.failovers"); n != 0 {
		return fmt.Errorf("%d session failovers, want 0", n)
	}
	return nil
}
