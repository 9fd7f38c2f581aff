package stream

import "testing"

// TestWindowEdges pins the window machine's arithmetic at the edges the
// property tests only reach by chance. Each step appends bytes, advances
// the resume offset as a match-free window does, and — unless final —
// carries the tail the way its holder does: Scanner from its one resume
// offset, core.Stream (shared) from the owned end, because its rules'
// offsets differ. The expected (pos, base, buffered) triples are what
// the two window machines this type replaced produced.
func TestWindowEdges(t *testing.T) {
	type step struct {
		push                string
		final               bool
		pos, base, buffered int // after the step
	}
	for _, tc := range []struct {
		name    string
		overlap int
		pos     int // resume offset going in
		shared  bool
		steps   []step
	}{
		{"chunk smaller than overlap grows the window across refills", 8, 0, false, []step{
			{"abc", false, 0, 0, 3},
			{"def", false, 0, 0, 6},
			{"ghi", false, 1, 1, 8},
			{"jkl", false, 4, 4, 8},
			{"", true, 13, 4, 8},
		}},
		{"empty push is a no-op window", 4, 0, false, []step{
			{"", false, 0, 0, 0},
			{"abcdefgh", false, 4, 4, 4},
			{"", false, 4, 4, 4},
		}},
		{"final window with an empty carry, fresh stream", 4, 0, false, []step{
			{"", true, 1, 0, 0},
		}},
		{"final window with an empty carry, offset at the limit", 4, 8, false, []step{
			{"abcdefgh", false, 8, 8, 0},
			{"", true, 9, 8, 0},
		}},
		{"offset past the limit clamps the carry", 4, 9, false, []step{
			{"abcdefgh", false, 9, 8, 0},
			{"ij", false, 9, 9, 1},
		}},
		{"offset a retired rule parked past the limit leaves the shared tail alone", 4, 100, true, []step{
			{"abcdefgh", false, 100, 4, 4},
			{"ij", false, 100, 6, 4},
			{"", true, 11, 6, 4},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(tc.overlap, 0, nil)
			pos, flow := tc.pos, ""
			for i, s := range tc.steps {
				w.Append([]byte(s.push))
				flow += s.push
				pos = w.CleanAdvance(pos, s.final)
				switch {
				case s.final:
				case tc.shared:
					w.Carry(w.OwnEnd(false))
				default:
					w.Carry(pos)
				}
				if pos != s.pos || w.Base() != s.base || len(w.Bytes()) != s.buffered {
					t.Fatalf("step %d (push %q, final %v): pos, base, buffered = %d, %d, %d; want %d, %d, %d",
						i, s.push, s.final, pos, w.Base(), len(w.Bytes()), s.pos, s.base, s.buffered)
				}
				if got := string(w.Bytes()); got != flow[w.Base():] {
					t.Fatalf("step %d: window holds %q, want the flow's tail %q", i, got, flow[w.Base():])
				}
			}
		})
	}
}
