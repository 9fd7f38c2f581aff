// Package multicore implements the scale-out ALVEARE described in the
// paper's §6: independent cores with private instruction and data
// memories, all loaded with the same compiled RE, each searching a
// different portion of the data stream — parallelism at the data-stream
// level through divide and conquer.
//
// Chunks carry a configurable overlap so matches that begin near a
// boundary can complete inside the owning core's extended window;
// matches longer than the overlap are the scheme's documented blind
// spot (the same trade the DPU's 16 KiB jobs make).
package multicore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"alveare/internal/arch"
	"alveare/internal/isa"
	"alveare/internal/stream"
)

// DefaultOverlap is the boundary overlap in bytes, shared with the
// sequential streaming scanner (internal/stream owns the chunk
// plan/ownership discipline both engines apply).
const DefaultOverlap = stream.DefaultOverlap

// StartupCycles is the fixed per-core cost of arming one run: host
// control writes, pipeline reset and prefetch warm-up. It bounds the
// scale-out efficiency on short, fast workloads (part of why the
// paper's synthetic suite scales worse than the real ones).
const StartupCycles = 3000

// Engine is a multi-core ALVEARE: n cores sharing nothing but the
// compiled program image.
type Engine struct {
	prog    *isa.Program
	cfg     arch.Config
	cores   []*arch.Core
	overlap int
}

// New builds an n-core engine. A non-positive overlap selects
// DefaultOverlap.
func New(p *isa.Program, n int, cfg arch.Config, overlap int) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("multicore: %d cores", n)
	}
	if overlap <= 0 {
		overlap = DefaultOverlap
	}
	e := &Engine{prog: p, cfg: cfg, overlap: overlap}
	for i := 0; i < n; i++ {
		c, err := arch.NewCore(p, cfg)
		if err != nil {
			return nil, err
		}
		e.cores = append(e.cores, c)
	}
	return e, nil
}

// Cores returns the core count.
func (e *Engine) Cores() int { return len(e.cores) }

// SetTracer installs t (or, with nil, removes the tracer) on every
// core. The cores execute concurrently during RunCtx, so t must be safe
// for concurrent use — arch.RingTracer over a shared ring is.
func (e *Engine) SetTracer(t arch.Tracer) {
	for _, c := range e.cores {
		c.SetTracer(t)
	}
}

// CUUtilization sums the cores' per-compute-unit busy counters from the
// last run (populated only when Config.Metrics is enabled).
func (e *Engine) CUUtilization() []int64 {
	var out []int64
	for _, c := range e.cores {
		for i, b := range c.CUUtilization() {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += b
		}
	}
	return out
}

// ChunkFailure records one core's fault during a run: the failing
// chunk, the positional error (offsets rebased to the whole stream),
// and the matches the core had already completed and owned before the
// fault — the raw material of the engine layer's Skip and Degrade
// containment policies.
type ChunkFailure struct {
	Core    int
	Chunk   stream.Chunk
	Err     error
	Partial []arch.Match
}

// Result aggregates one multi-core run.
type Result struct {
	// Matches are the non-overlapping matches found, in stream order,
	// each owned by the core whose chunk contains its start. Chunks
	// listed in Failed contribute no matches here.
	Matches []arch.Match
	// WallCycles is the parallel execution time in cycles: the slowest
	// core bounds the run (cores operate independently).
	WallCycles int64
	// TotalCycles sums all cores' cycles (the energy-relevant count).
	TotalCycles int64
	// PerCore reports each core's counters for this run, including the
	// cycles failing cores burned before their fault.
	PerCore []arch.Stats
	// Chunks is the number of chunks the stream was divided into (one
	// per core when the stream is long enough; fewer on short inputs).
	Chunks int
	// Failed lists the chunks whose core faulted; empty on a clean run.
	// Run still returns a non-nil error when any chunk failed, so
	// callers that ignore Failed keep fail-stop semantics.
	Failed []ChunkFailure
	// Hits is the number of chunks that owned at least one match.
	Hits int
}

// Run searches the whole stream with all cores in parallel and merges
// the results. Each core owns the matches starting inside its chunk and
// may read up to overlap bytes past it to complete them.
func (e *Engine) Run(data []byte) (Result, error) {
	return e.RunCtx(context.Background(), data, nil)
}

// RunCtx is Run with cooperative cancellation: every core polls ctx
// while it executes, so a cancel or deadline stops all chunks. On any
// chunk fault the partial Result (healthy chunks' matches, per-chunk
// failure records) is returned together with the first failure, wrapped
// with its core index.
//
// admit, when non-nil, is asked once per chunk, on the caller's
// goroutine and in stream order, whether the chunk's extended window
// can hold a match; a chunk it rejects is never simulated (its core
// reports zero counters). The verdict must be sound — a rejected window
// is one the core would have found nothing in — so it never changes
// results. nil runs every chunk.
func (e *Engine) RunCtx(ctx context.Context, data []byte, admit func(window []byte) bool) (Result, error) {
	chunks := stream.Plan(len(data), len(e.cores), e.overlap)
	type coreOut struct {
		matches []arch.Match
		stats   arch.Stats
		err     error
	}
	outs := make([]coreOut, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		core := e.cores[i]
		core.Reset()
		if admit != nil && !admit(data[c.Lo:c.Ext]) {
			continue
		}
		wg.Add(1)
		go func(i int, c stream.Chunk) {
			defer wg.Done()
			ms, err := core.FindAllCtx(ctx, data[c.Lo:c.Ext], 0)
			outs[i].stats = core.Stats()
			if err != nil {
				// Rebase the window-relative fault offset to the stream.
				var ee *arch.ExecError
				if errors.As(err, &ee) {
					err = &arch.ExecError{Offset: c.Lo + ee.Offset, Cycle: ee.Cycle, Err: ee.Err}
				}
				outs[i].err = err
			}
			outs[i].matches = stream.OwnMatches(ms, c.Lo, c.Hi)
		}(i, c)
	}
	wg.Wait()

	res := Result{Chunks: len(chunks)}
	var firstErr error
	for i := range outs {
		if len(outs[i].matches) > 0 {
			res.Hits++
		}
		res.PerCore = append(res.PerCore, outs[i].stats)
		cycles := outs[i].stats.Cycles + StartupCycles
		res.TotalCycles += cycles
		if cycles > res.WallCycles {
			res.WallCycles = cycles
		}
		if outs[i].err != nil {
			res.Failed = append(res.Failed, ChunkFailure{
				Core: i, Chunk: chunks[i], Err: outs[i].err, Partial: outs[i].matches,
			})
			if firstErr == nil {
				firstErr = fmt.Errorf("core %d: %w", i, outs[i].err)
			}
			continue
		}
		res.Matches = append(res.Matches, outs[i].matches...)
	}
	sort.Slice(res.Matches, func(a, b int) bool { return res.Matches[a].Start < res.Matches[b].Start })
	return res, firstErr
}

// Count runs the engine and returns only the match count and timing.
func (e *Engine) Count(data []byte) (int, Result, error) {
	res, err := e.Run(data)
	if err != nil {
		return 0, Result{}, err
	}
	return len(res.Matches), res, nil
}
