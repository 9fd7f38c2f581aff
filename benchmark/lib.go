package main

import (
	"bytes"
	"context"
	"time"

	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/stream"
)

// opKind is the shape of one iteration of a caller's loop.
type opKind int

const (
	scanOp    opKind = iota // one one-shot scan of one input
	pullOp                  // one pull-mode scan of the whole stream
	batchOp                 // 64 records scanned together; the op is the record
	sessionOp               // a whole stream pushed frame by frame; the op is the frame
)

const (
	batchRecords = 64
	frameBytes   = 4 << 10
)

// serverOptions is how the scan server builds its rule set: the two
// skip tiers on, everything else at the library's defaults. libOptions
// is how the library workloads build theirs: the same, on one rule
// worker. One worker makes a scan's wall time its work — bytes/s per
// core, which is what the library workloads report — and keeps them off
// the second vCPU, whose wake-up latency on a shared box moved
// lib-exact's p50 by 25 % between identical runs when the rules fanned
// out over two.
var (
	serverOptions = []core.Option{core.WithDFA(), core.WithApprox()}
	libOptions    = []core.Option{core.WithDFA(), core.WithApprox(), core.WithWorkers(1)}
)

// framing is how a service workload's inputs travel: records grouped
// into batch frames, or the stream cut into session frames.
type framing struct {
	batches  [][]*item  // the records of each batch frame
	payloads [][][]byte // their bytes, as ScanBatch takes them
	chunks   [][]byte
	overlap  int // session boundary carry
}

func frame(in *inputs, kind opKind) framing {
	var f framing
	switch kind {
	case batchOp:
		for off := 0; off < len(in.items); off += batchRecords {
			var b []*item
			var p [][]byte
			for i := off; i < min(off+batchRecords, len(in.items)); i++ {
				b, p = append(b, &in.items[i]), append(p, in.items[i].data)
			}
			f.batches, f.payloads = append(f.batches, b), append(f.payloads, p)
		}
	case sessionOp:
		f.chunks = cutFixed(in.stream, frameBytes)
		// The overlap blind spot is documented behaviour, not a benchmark
		// failure: carry at least the longest match.
		f.overlap = max(stream.DefaultOverlap, in.longest+1)
	}
	return f
}

// libStack is the rule set called in process: the two library
// workloads, and the traced run's shell-free twin of a service workload
// (same inputs, same callers, no frames, queues or sockets).
type libStack struct {
	in      *inputs
	rs      *core.RuleSet
	kind    opKind
	nCaller int
	frames  framing
}

func buildLib(kind opKind, callers int, opts []core.Option) func(*inputs) (stack, error) {
	return func(in *inputs) (stack, error) {
		rs, err := core.NewRuleSet(in.rules, backend.Options{}, opts...)
		if err != nil {
			return nil, err
		}
		return &libStack{in: in, rs: rs, kind: kind, nCaller: callers, frames: frame(in, kind)}, nil
	}
}

func (s *libStack) shape() (opKind, framing)      { return s.kind, s.frames }
func (s *libStack) callers() int                  { return s.nCaller }
func (s *libStack) close()                        {}
func (s *libStack) fleet() *metrics.Snapshot      { return nil }
func (s *libStack) ruleSets() []*metrics.Snapshot { return []*metrics.Snapshot{s.rs.MetricsSnapshot()} }

// scan answers one input through the workload's real call. keep also
// returns the matches themselves, for the verification pass.
func (s *libStack) scan(ctx context.Context, data []byte, keep bool) (d digest, ms []server.RuleMatch, err error) {
	note := func(rule int, m core.Match) {
		d.add(uint32(rule), uint64(m.Start), uint64(m.End))
		if keep {
			ms = append(ms, server.RuleMatch{Rule: uint32(rule), Start: uint64(m.Start), End: uint64(m.End)})
		}
	}
	if s.kind == pullOp {
		_, err = s.rs.ScanReaderCtx(ctx, bytes.NewReader(data), func(rule int, m core.Match, _ []byte) bool {
			note(rule, m)
			return true
		})
		return d, ms, err
	}
	out, err := s.rs.ScanCtx(ctx, data)
	for _, rm := range out {
		for _, m := range rm.Matches {
			note(rm.Rule, m)
		}
	}
	return d, ms, err
}

func (s *libStack) verify(ctx context.Context) (ops, bad, bytes int, err error) {
	for _, it := range s.in.items {
		_, ms, err := s.scan(ctx, it.data, true)
		if err != nil {
			return ops, bad, bytes, err
		}
		ops++
		bytes += len(it.data)
		if !sameMatches(ms, it.want) {
			bad++
		}
	}
	return ops, bad, bytes, nil
}

func (s *libStack) iter(ctx context.Context, c, k int, log *callLog) error {
	// Callers interleave so that between them they cover every input.
	n := k*s.nCaller + c
	switch s.kind {
	case scanOp, pullOp:
		it := &s.in.items[n%len(s.in.items)]
		t0 := time.Now()
		d, _, err := s.scan(ctx, it.data, false)
		if err != nil {
			return err
		}
		log.add(t0, len(it.data), 1, bad(log.same(d, it.sum)))
	case batchOp:
		b := s.frames.batches[n%len(s.frames.batches)]
		t0 := time.Now()
		size, wrong := 0, 0
		for _, it := range b {
			d, _, err := s.scan(ctx, it.data, false)
			if err != nil {
				return err
			}
			size += len(it.data)
			wrong += bad(log.same(d, it.sum))
		}
		log.add(t0, size, len(b), wrong)
	case sessionOp:
		first := len(log.samples)
		var d digest
		emit := func(rule int, m core.Match, _ []byte) bool {
			d.add(uint32(rule), uint64(m.Start), uint64(m.End))
			return true
		}
		st := s.rs.NewStream(s.frames.overlap)
		for _, chunk := range s.frames.chunks {
			t0 := time.Now()
			if _, err := st.PushCtx(ctx, chunk, emit); err != nil {
				return err
			}
			st.Export() // the server checkpoints every frame for the gateway
			log.add(t0, len(chunk), 1, 0)
		}
		if _, err := st.FinishCtx(ctx, emit); err != nil {
			return err
		}
		log.failFrom(first, !log.same(d, s.in.items[0].sum))
	}
	return nil
}
