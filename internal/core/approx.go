package core

// The over-approximating admission stage: a small deterministic filter
// (internal/approx) derived per rule set whose language provably
// contains the union of all rules. It runs as a first stage ahead of
// everything else — one branch-free table walk over each window — and
// a negative answer skips the prefilter, the lazy-DFA gates and the
// exact engine for that window entirely. The filter only ever answers
// "certainly clean" or "maybe"; matches always come from the exact
// engine, so approx-on and approx-off results are byte-identical by
// construction (the differential battery holds both paths to that).

import "alveare/internal/approx"

// ApproxStats counts the admission stage's behaviour. Precision is
// ExactHitWindows / AdmittedWindows: the fraction of admitted windows
// in which the exact engine actually found something (1.0 means the
// filter never wasted exact-engine work; low values mean the rule set
// over-approximates coarsely at the configured state budget).
type ApproxStats struct {
	// ScreenedWindows / ScreenedBytes count the windows (and their
	// bytes) the admission automaton walked.
	ScreenedWindows int64
	ScreenedBytes   int64
	// AdmittedWindows counts windows the filter flagged suspect — the
	// exact engine ran. ScreenedWindows - AdmittedWindows windows were
	// proven clean and skipped outright.
	AdmittedWindows int64
	// ExactHitWindows counts admitted windows where the exact engine
	// reported at least one match.
	ExactHitWindows int64
}

// Add folds o into s.
func (s *ApproxStats) Add(o ApproxStats) {
	s.ScreenedWindows += o.ScreenedWindows
	s.ScreenedBytes += o.ScreenedBytes
	s.AdmittedWindows += o.AdmittedWindows
	s.ExactHitWindows += o.ExactHitWindows
}

// screen walks f over one unit of input — a whole buffer, one stream
// window or one multi-core chunk — tallying the verdict in ctr, and is
// the only place an admission filter is consulted. A clean verdict
// (false) is a proof that no rule matches in data.
func screen(f *approx.Filter, ctr *ApproxStats, data []byte) (admitted bool) {
	ctr.ScreenedWindows++
	ctr.ScreenedBytes += int64(len(data))
	if !f.Suspect(data) {
		return false
	}
	ctr.AdmittedWindows++
	return true
}
