package automata

import (
	"errors"
	"fmt"
)

// DFA is a deterministic automaton over a compressed alphabet: input
// bytes map through Classes to one of NumClasses symbols, and Trans
// holds one row of NumClasses next-state entries per DFA state. State 0
// is the start state; Accept marks match states. A DFA built by
// Determinize recognises "the pattern occurs in the prefix consumed so
// far" (unanchored containment), the form hardware rule engines compile.
type DFA struct {
	Classes    [256]uint8
	NumClasses int
	Trans      []int32 // len = NumStates * NumClasses
	Accept     []bool
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Next returns the successor of state s on input byte c.
func (d *DFA) Next(s int32, c byte) int32 {
	return d.Trans[int(s)*d.NumClasses+int(d.Classes[c])]
}

// ErrDFATooLarge reports subset-construction blowup past the state cap;
// callers fall back to NFA simulation, as real rule compilers do.
var ErrDFATooLarge = errors.New("automata: DFA exceeds the state cap")

// alphabetClasses partitions the 256 byte values into equivalence
// classes that no consuming edge of the NFA distinguishes, shrinking the
// DFA transition table (the same trick production engines use).
func alphabetClasses(n *NFA) ([256]uint8, int, error) {
	// Signature of byte c: the set of consuming states accepting c.
	var classes [256]uint8
	seen := map[string]uint8{}
	numClasses := 0
	var consuming []int
	for i, s := range n.States {
		if s.Consume != nil {
			consuming = append(consuming, i)
		}
	}
	buf := make([]byte, (len(consuming)+7)/8)
	for c := 0; c < 256; c++ {
		for i := range buf {
			buf[i] = 0
		}
		for j, si := range consuming {
			if n.States[si].Consume.Has(byte(c)) {
				buf[j>>3] |= 1 << (j & 7)
			}
		}
		k := string(buf)
		id, ok := seen[k]
		if !ok {
			if numClasses >= 256 {
				return classes, 0, fmt.Errorf("automata: alphabet compression overflow")
			}
			id = uint8(numClasses)
			seen[k] = id
			numClasses++
		}
		classes[c] = id
	}
	return classes, numClasses, nil
}

// Determinize runs the subset construction on the unanchored form of
// the NFA (start closure re-injected in every subset, equivalent to a
// leading ".*"). maxStates caps the construction; non-positive means
// 1<<14 states.
func Determinize(n *NFA, maxStates int) (*DFA, error) {
	if maxStates <= 0 {
		maxStates = 1 << 14
	}
	classes, numClasses, err := alphabetClasses(n)
	if err != nil {
		return nil, err
	}
	// One representative byte per class.
	repr := make([]byte, numClasses)
	seen := make([]bool, numClasses)
	for c := 0; c < 256; c++ {
		id := classes[c]
		if !seen[id] {
			seen[id] = true
			repr[id] = byte(c)
		}
	}

	closures := n.closures()
	start := NewStateSet(len(n.States))
	start.Or(closures[n.Start])

	d := &DFA{Classes: classes, NumClasses: numClasses}
	index := map[string]int32{}
	var subsets []*StateSet

	var key []byte // reused across lookups
	intern := func(s *StateSet) int32 {
		key = s.AppendKey(key[:0])
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := int32(len(subsets))
		cp := NewStateSet(len(n.States))
		cp.CopyFrom(s)
		subsets = append(subsets, cp)
		index[string(key)] = id
		d.Accept = append(d.Accept, s.Has(n.Accept))
		return id
	}
	intern(start)

	next := NewStateSet(len(n.States))
	for si := 0; si < len(subsets); si++ {
		if len(subsets) > maxStates {
			return nil, fmt.Errorf("%w: %d states", ErrDFATooLarge, len(subsets))
		}
		row := make([]int32, numClasses)
		cur := subsets[si]
		for cls := 0; cls < numClasses; cls++ {
			c := repr[cls]
			next.Clear()
			cur.ForEach(func(i int) {
				st := &n.States[i]
				if st.Consume != nil && st.Consume.Has(c) {
					next.Or(closures[st.Next])
				}
			})
			next.Or(start) // unanchored
			row[cls] = intern(next)
		}
		d.Trans = append(d.Trans, row...)
		if len(d.Accept) > maxStates {
			return nil, fmt.Errorf("%w: %d states", ErrDFATooLarge, len(d.Accept))
		}
	}
	return d, nil
}

// Match reports whether the pattern occurs in data, stepping one state
// per input byte.
func (d *DFA) Match(data []byte) bool {
	s := int32(0)
	if d.Accept[0] {
		return true
	}
	for _, c := range data {
		s = d.Next(s, c)
		if d.Accept[s] {
			return true
		}
	}
	return false
}

// CountEnds counts non-overlapping matches with the restart discipline
// (state machine returns to start after each accepting step).
func (d *DFA) CountEnds(data []byte) int {
	count := 0
	s := int32(0)
	if d.Accept[0] {
		count++
	}
	for _, c := range data {
		s = d.Next(s, c)
		if d.Accept[s] {
			count++
			s = 0
		}
	}
	return count
}

// Minimize returns an equivalent DFA with the minimum number of states
// (Moore partition refinement over the compressed alphabet).
func (d *DFA) Minimize() *DFA {
	n := d.NumStates()
	part := make([]int32, n) // state -> block id
	for i := range part {
		if d.Accept[i] {
			part[i] = 1
		}
	}
	numBlocks := 2
	if !anyTrue(d.Accept) || allTrue(d.Accept) {
		numBlocks = 1
		for i := range part {
			part[i] = 0
		}
	}
	for {
		// Refine: states are equivalent if they share a block and their
		// transition rows map to the same blocks.
		sigs := map[string]int32{}
		next := make([]int32, n)
		newBlocks := 0
		buf := make([]byte, 4+4*d.NumClasses)
		for s := 0; s < n; s++ {
			putInt32(buf[0:], part[s])
			for cls := 0; cls < d.NumClasses; cls++ {
				putInt32(buf[4+4*cls:], part[d.Trans[s*d.NumClasses+cls]])
			}
			k := string(buf)
			id, ok := sigs[k]
			if !ok {
				id = int32(newBlocks)
				sigs[k] = id
				newBlocks++
			}
			next[s] = id
		}
		if newBlocks == numBlocks {
			break
		}
		part, numBlocks = next, newBlocks
	}
	// Renumber so that the start state's block is 0.
	remap := make([]int32, numBlocks)
	for i := range remap {
		remap[i] = -1
	}
	var order []int32
	assign := func(b int32) int32 {
		if remap[b] < 0 {
			remap[b] = int32(len(order))
			order = append(order, b)
		}
		return remap[b]
	}
	assign(part[0])
	for s := 0; s < n; s++ {
		assign(part[s])
	}
	out := &DFA{Classes: d.Classes, NumClasses: d.NumClasses}
	out.Accept = make([]bool, numBlocks)
	out.Trans = make([]int32, numBlocks*d.NumClasses)
	rep := make([]int, numBlocks) // block -> representative state
	for s := n - 1; s >= 0; s-- {
		rep[remap[part[s]]] = s
	}
	for b := 0; b < numBlocks; b++ {
		s := rep[b]
		out.Accept[b] = d.Accept[s]
		for cls := 0; cls < d.NumClasses; cls++ {
			out.Trans[b*d.NumClasses+cls] = remap[part[d.Trans[s*d.NumClasses+cls]]]
		}
	}
	return out
}

func putInt32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}
