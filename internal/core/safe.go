package core

import (
	"context"
	"errors"
	"sync"

	"alveare/internal/arch"
	"alveare/internal/baseline/pikevm"
)

// safeVM is the graceful-degradation engine: a Pike VM compiled lazily
// from the rule's pattern source, guaranteed linear time with no
// speculation, substituted for a speculative core when the Degrade
// policy contains a runaway. Compilation happens at most once; the VM
// itself is serialised by a mutex because the degraded path's
// throughput does not matter, its availability does.
type safeVM struct {
	source string

	once sync.Once
	prog *pikevm.Prog
	err  error
	mu   sync.Mutex
}

func newSafeVM(source string) *safeVM { return &safeVM{source: source} }

// vm compiles the fallback program on first use.
func (s *safeVM) vm() (*pikevm.Prog, error) {
	s.once.Do(func() {
		if s.source == "" {
			s.err = errors.New("core: no pattern source for safe-engine fallback")
			return
		}
		s.prog, s.err = pikevm.Compile(s.source)
	})
	return s.prog, s.err
}

// available reports whether the safe engine can serve this rule.
func (s *safeVM) available() bool {
	_, err := s.vm()
	return err == nil
}

// FindFromCtx implements stream.Finder on the safe engine. The VM is
// linear-time, so one coarse cancellation poll per probe suffices.
func (s *safeVM) FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error) {
	p, err := s.vm()
	if err != nil {
		return arch.Match{}, false, err
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return arch.Match{}, false, &arch.ExecError{Offset: from, Err: cerr}
		}
	}
	s.mu.Lock()
	m, ok := p.FindFrom(data, from)
	s.mu.Unlock()
	return arch.Match{Start: m.Start, End: m.End}, ok, nil
}

// guarded wraps an execution core with the failure policy, implementing
// stream.Finder: recoverable faults (runaway, speculation-stack
// overflow) are retried on the safe engine (Degrade) or skipped past
// (Skip); cancellation, integrity and I/O faults propagate untouched.
// After the first fallback a guarded finder goes sticky — subsequent
// probes run straight on the safe engine, so a degraded window does not
// re-pay the runaway budget on every probe.
type guarded struct {
	core      *arch.Core
	vm        *safeVM
	policy    Policy
	fallbacks *int64 // safe-engine engagements, counted for the owner
	degraded  bool
}

func (g *guarded) FindFromCtx(ctx context.Context, data []byte, from int) (arch.Match, bool, error) {
	if g.degraded {
		return g.vm.FindFromCtx(ctx, data, from)
	}
	for {
		m, ok, err := g.core.FindFromCtx(ctx, data, from)
		if err == nil {
			return m, ok, nil
		}
		if g.policy == FailFast || !recoverable(err) {
			return m, ok, err
		}
		off := failOffset(err, from)
		if g.policy == Degrade && g.vm.available() {
			g.degraded = true
			*g.fallbacks++
			// Resume on the safe engine from the probe's own origin: the
			// offsets the core cleared before the fault hold no match, so
			// re-examining them is redundant but never wrong.
			return g.vm.FindFromCtx(ctx, data, from)
		}
		// Skip (or Degrade without a safe engine): drop the poisoned
		// offset and keep searching.
		from = off + 1
		if from > len(data) {
			return arch.Match{}, false, nil
		}
	}
}

// findAll runs the one-shot FindAll discipline on the core's own loop
// with the policy applied: FailFast propagates the first fault, Degrade
// hands the remainder of the scan to the safe engine, Skip resumes past
// each poisoned attempt offset (each resume re-arms the cycle budget).
func (g *guarded) findAll(ctx context.Context, data []byte) ([]Match, error) {
	ms, err := g.core.FindAllFromCtx(ctx, data, 0, 0)
	for err != nil {
		if g.policy == FailFast || !recoverable(err) {
			return ms, err
		}
		off := failOffset(err, len(data))
		if g.policy == Degrade && g.vm.available() {
			*g.fallbacks++
			// The failing attempt's offset is the exact resume point: every
			// earlier offset was either matched or cleared by the core, and
			// the two engines agree on the supported semantics.
			rest, ferr := findAllWith(ctx, g.vm, data, off)
			return append(ms, rest...), ferr
		}
		var more []Match
		more, err = g.core.FindAllFromCtx(ctx, data, off+1, 0)
		ms = append(ms, more...)
	}
	return ms, nil
}
