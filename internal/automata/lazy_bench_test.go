package automata_test

import (
	"math/rand"
	"testing"

	"alveare/internal/anmlzoo"
	"alveare/internal/automata"
)

// BenchmarkLazyFirstAccept is the gate walk as the scan service drives
// it: every rule of a seeded PowerEN set over every 4 KiB slice of its
// data, one warm LazyDFA per rule, each slice walked match by match
// the way core's fast path and the benchmark's layer walk call it.
// Three datasets put the start-state skip's range on record: the
// suite's own traffic (keyword soup with planted witnesses), the same
// soup witness-free, and per rule a run of that rule's own witnesses —
// dense matches, where the walk is in state 0 only for the first byte
// of each call and the skip never pays.
func BenchmarkLazyFirstAccept(b *testing.B) {
	const nRules, size, seed, slice = 20, 1 << 20, 2024, 4096
	suite := anmlzoo.PowerEN(nRules, size, seed)
	low, err := anmlzoo.LowMatch("PowerEN", nRules, size, seed)
	if err != nil {
		b.Fatal(err)
	}
	gates := make([]*automata.LazyDFA, nRules)
	dense := make([][]byte, nRules)
	r := rand.New(rand.NewSource(seed))
	for i, re := range suite.Patterns {
		lp, err := automata.CompileLazy(re)
		if err != nil {
			b.Fatalf("%q: %v", re, err)
		}
		gates[i] = lp.NewDFA(0)
		for len(dense[i]) < size/nRules {
			w, err := anmlzoo.Witness(re, r)
			if err != nil {
				b.Fatalf("%q: %v", re, err)
			}
			dense[i] = append(dense[i], w...)
		}
	}
	same := func(data []byte) [][]byte { // one dataset under every rule
		per := make([][]byte, nRules)
		for i := range per {
			per[i] = data
		}
		return per
	}
	for _, c := range []struct {
		name string
		data [][]byte // per rule
	}{
		{"poweren", same(suite.Dataset)},
		{"lowmatch", same(low.Dataset)},
		{"dense", dense},
	} {
		b.Run(c.name, func(b *testing.B) {
			walk := func() (bytes int64, ends int) {
				for i, g := range gates {
					data := c.data[i]
					bytes += int64(len(data))
					for off := 0; off < len(data); off += slice {
						win := data[off:min(off+slice, len(data))]
						for pos := 0; pos <= len(win); {
							end, found, err := g.FirstAccept(win, pos)
							if err != nil {
								b.Fatal(err)
							}
							if !found {
								break
							}
							ends++
							if end == pos {
								end++ // empty match
							}
							pos = end
						}
					}
				}
				return bytes, ends
			}
			bytes, want := walk() // warms every gate's rows for this dataset
			b.SetBytes(bytes)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, got := walk(); got != want {
					b.Fatalf("walk found %d match ends, the warm-up %d", got, want)
				}
			}
		})
	}
}
