package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"alveare/internal/anmlzoo"
	"alveare/internal/approx"
	"alveare/internal/baseline/pikevm"
	"alveare/internal/server"
	"alveare/internal/stream"
)

// ruleSeed fixes every workload's rule set. The rules are part of the
// workload's definition, like the shard count: a sensor keeps its rules
// while the traffic changes. -seed varies the traffic only, so runs at
// different seeds measure the same regime and can be compared.
const ruleSeed = 2024

// seedRetries is how many derived seeds (seed+1 …) the generator tries
// when a seed's traffic falls outside the workload's regime.
const seedRetries = 8

// digest is an order-independent fingerprint of a match set, cheap
// enough to check on every timed response without allocating.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(rule uint32, start, end uint64) {
	h := uint64(rule)*0x9e3779b97f4a7c15 ^ start*0xbf58476d1ce4e5b9 ^ end*0x94d049bb133111eb
	h ^= h >> 31
	d.n++
	d.sum += h * 0xd6e8feb86659fd93
}

func digestOf(ms []server.RuleMatch) digest {
	var d digest
	for _, m := range ms {
		d.add(m.Rule, m.Start, m.End)
	}
	return d
}

// item is one distinct input with the oracle's answer for it.
type item struct {
	data []byte
	want []server.RuleMatch // sorted by (rule, start)
	sum  digest
}

// inputs is everything a workload feeds the program under test, plus
// the oracle's verdict on it. Nothing here is timed.
type inputs struct {
	rules   []string
	stream  []byte // the generated traffic the items were cut from
	items   []item
	seed    int64 // the effective seed: the first of seed, seed+1, … in regime
	matches int   // Σ len(item.want)
	longest int   // longest oracle match, sizes the session overlap
}

// fingerprint hashes rules, inputs and oracle answers: equal seeds must
// give equal fingerprints.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	for _, r := range in.rules {
		fmt.Fprintf(h, "%d:%s", len(r), r)
	}
	var b [20]byte
	for _, it := range in.items {
		binary.BigEndian.PutUint64(b[:8], uint64(len(it.data)))
		h.Write(b[:8])
		h.Write(it.data)
		for _, m := range it.want {
			binary.BigEndian.PutUint32(b[:4], m.Rule)
			binary.BigEndian.PutUint64(b[4:12], m.Start)
			binary.BigEndian.PutUint64(b[12:20], m.End)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traffic generates size bytes of the suite's background traffic from
// seed. With plantEvery > 0 it then overwrites one witness of every rule
// into every plantEvery-byte block, each rule at the middle of its own
// slot of the block. Every block then holds every rule's necessary
// literal, and the exact engine walks the same distance to reach it,
// which keeps the per-block scan cost the same from block to block and
// from seed to seed; the seed still decides every byte around it.
func traffic(suite string, rules []string, size int, seed int64, plantEvery int) ([]byte, error) {
	s, err := anmlzoo.LowMatch(suite, 1, size, seed)
	if err != nil {
		return nil, err
	}
	data := s.Dataset
	if plantEvery <= 0 {
		return data, nil
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	slot := plantEvery / len(rules)
	for block := 0; block+plantEvery <= len(data); block += plantEvery {
		for i, re := range rules {
			w, err := anmlzoo.Witness(re, r)
			if err != nil {
				return nil, err
			}
			if len(w) >= slot {
				return nil, fmt.Errorf("witness of rule %d (%d B) does not fit a %d B slot", i, len(w), slot)
			}
			copy(data[block+i*slot+(slot-len(w))/2:], w)
		}
	}
	return data, nil
}

// cutFixed cuts data into n-byte pieces (the last may be shorter).
func cutFixed(data []byte, n int) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += n {
		out = append(out, data[off:min(off+n, len(data))])
	}
	return out
}

// cutRecords cuts data into records of seeded-uniform 64–256 bytes.
func cutRecords(data []byte, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed ^ 0x7ec0))
	var out [][]byte
	for off := 0; off < len(data); {
		n := min(64+r.Intn(193), len(data)-off)
		out = append(out, data[off:off+n])
		off += n
	}
	return out
}

// windowsOf replays the overlap discipline's window boundaries over a
// whole stream pushed in chunk-sized pieces: each window is the carry
// tail plus the new chunk, and the flow ends with a tail-only window.
func windowsOf(data []byte, chunk, overlap int) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += chunk {
		out = append(out, data[max(0, off-overlap):min(off+chunk, len(data))])
	}
	return append(out, data[max(0, len(data)-overlap):])
}

// generate builds the workload's inputs for seed, runs the oracle, and
// walks derived seeds until the traffic is in the workload's regime.
func generate(w *workload, seed int64, sizeDiv int) (*inputs, error) {
	s, err := anmlzoo.ByName(w.suite, w.nRules, 1, ruleSeed)
	if err != nil {
		return nil, err
	}
	rules := s.Patterns
	oracle := make([]*pikevm.Prog, len(rules))
	for i, re := range rules {
		if oracle[i], err = pikevm.Compile(re); err != nil {
			return nil, fmt.Errorf("oracle: rule %d: %w", i, err)
		}
	}
	var why error
	for try := int64(0); try <= seedRetries; try++ {
		in, err := generateOnce(w, rules, oracle, seed+try, sizeDiv)
		if err != nil {
			return nil, err
		}
		if why = w.inRegime(in); why == nil {
			return in, nil
		}
	}
	return nil, fmt.Errorf("%s: no seed in %d…%d is in regime: %w", w.name, seed, seed+seedRetries, why)
}

func generateOnce(w *workload, rules []string, oracle []*pikevm.Prog, seed int64, sizeDiv int) (*inputs, error) {
	data, err := traffic(w.suite, rules, w.size/sizeDiv, seed, w.plantEvery)
	if err != nil {
		return nil, err
	}
	in := &inputs{rules: rules, stream: data, seed: seed}
	for _, piece := range w.cut(data, seed) {
		it := item{data: piece}
		for r, prog := range oracle {
			for _, m := range prog.FindAll(piece, 0) {
				it.want = append(it.want, server.RuleMatch{Rule: uint32(r), Start: uint64(m.Start), End: uint64(m.End)})
				in.longest = max(in.longest, m.End-m.Start)
			}
		}
		it.sum = digestOf(it.want)
		in.items = append(in.items, it)
		in.matches += len(it.want)
	}
	return in, nil
}

// The regime predicates read the oracle's match counts and the shape of
// the admission filter, never a clock.

// highMatch: every unit holds a match of every rule, so the prefilter
// dispatches every rule on every unit, and the filter is too shallow to
// screen anything: the exact engine sees every byte once per rule.
func highMatch(in *inputs) error {
	if d := approx.Build(in.rules, 0).Depth(); d > 3 {
		return fmt.Errorf("approx depth %d > 3", d)
	}
	for i, it := range in.items {
		hit := make([]bool, len(in.rules))
		for _, m := range it.want {
			hit[m.Rule] = true
		}
		for r, ok := range hit {
			if !ok {
				return fmt.Errorf("unit %d has no match of rule %d", i, r)
			}
		}
	}
	return nil
}

// witnessFree: nothing matches and the filter proves every window of
// the pull-mode scan clean, so the exact engine sees no byte.
func witnessFree(in *inputs) error {
	if in.matches != 0 {
		return fmt.Errorf("%d organic matches", in.matches)
	}
	f := approx.Build(in.rules, 0)
	if f.AdmitAll() || f.Depth() < 8 {
		return fmt.Errorf("approx depth %d < 8", f.Depth())
	}
	for i, win := range windowsOf(in.stream, stream.DefaultChunkSize, stream.DefaultOverlap) {
		if f.Suspect(win) {
			return fmt.Errorf("window %d admitted", i)
		}
	}
	return nil
}

func anyTraffic(*inputs) error { return nil }

// sameMatches compares a response with the oracle byte for byte,
// ignoring order (session matches arrive window by window).
func sameMatches(got, want []server.RuleMatch) bool {
	if len(got) != len(want) {
		return false
	}
	got = append([]server.RuleMatch(nil), got...)
	sort.Slice(got, func(a, b int) bool {
		if got[a].Rule != got[b].Rule {
			return got[a].Rule < got[b].Rule
		}
		return got[a].Start < got[b].Start
	})
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
