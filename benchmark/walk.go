package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"alveare/internal/approx"
	"alveare/internal/arch"
	"alveare/internal/automata"
	"alveare/internal/backend"
	"alveare/internal/core"
	"alveare/internal/ir"
	"alveare/internal/isa"
	"alveare/internal/prefilter"
	"alveare/internal/server"
	"alveare/internal/stream"
	"alveare/internal/syntax"
)

// Span names of the layer walk: the public function each span times.
const (
	spParse     = "syntax.Parse"
	spLower     = "ir.Lower"
	spEmit      = "backend.Emit"
	spApproxB   = "approx.Build"
	spPrefB     = "prefilter.NewSet"
	spLazyB     = "automata.CompileLazy"
	spSuspect   = "approx.Filter.Suspect"
	spCandidate = "prefilter.Set.Candidates"
	spGate      = "automata.LazyDFA.FirstAccept"
	spFind      = "arch.Core.FindFrom"
	spTiers     = "walk.tiers" // groups one input's tier spans
	spCore      = "core.RuleSet.scan"
	spExport    = "core.Stream.Export"
	spDecode    = "server.decode"
	spEncode    = "server.encode"
)

// tiers is the scan pipeline rebuilt from each layer's public
// constructor, so that each layer can be called, and timed, alone.
type tiers struct {
	progs []*isa.Program
	admit *approx.Filter
	pf    *prefilter.Set
	bits  prefilter.Bits
	gates []*automata.LazyDFA // nil where the rule has no gate
	cores []*arch.Core

	simCycles int64 // cycles the cores have simulated so far
}

// buildTiers compiles the rule set stage by stage, one span per call,
// the way core.NewRuleSet does with the fast path and admission on.
func buildTiers(tr *tracer, rules []string) (*tiers, error) {
	t := &tiers{gates: make([]*automata.LazyDFA, len(rules))}
	var lits []prefilter.Literal
	for i, re := range rules {
		sp := tr.begin(spParse, 0, 0)
		ast, err := syntax.Parse(re)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(spLower, 0, 0)
		op, err := ir.Lower(ast, ir.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(spEmit, 0, 0)
		p, err := backend.Emit(op, re, backend.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		t.progs = append(t.progs, p)
		if p.Hint != nil && len(p.Hint.Literal) >= 2 {
			lits = append(lits, prefilter.Literal{Rule: i, Bytes: p.Hint.Literal})
		}
		c, err := arch.NewCore(p, arch.DefaultConfig())
		if err != nil {
			return nil, err
		}
		t.cores = append(t.cores, c)
	}
	for i, re := range rules {
		sp := tr.begin(spLazyB, 0, 0)
		lp, err := automata.CompileLazy(re)
		tr.end(sp)
		if err == nil { // a rule the lazy DFA cannot hold scans ungated
			t.gates[i] = lp.NewDFA(0)
		}
	}
	sp := tr.begin(spPrefB, 0, 0)
	pf, err := prefilter.NewSet(len(rules), lits)
	tr.end(sp)
	if err == nil { // a trie past the node bound dispatches every rule
		t.pf, t.bits = pf, prefilter.NewBits(len(rules))
	}
	sp = tr.begin(spApproxB, 0, 0)
	t.admit = approx.Build(rules, 0)
	tr.end(sp)
	return t, nil
}

// scan pushes one input through the tiers in pipeline order, one span
// per call, and returns what the exact engine found.
func (t *tiers) scan(ctx context.Context, tr *tracer, op int, data []byte) ([]server.RuleMatch, error) {
	group := tr.begin(spTiers, 0, op)
	defer tr.end(group)
	if !t.admit.AdmitAll() {
		sp := tr.begin(spSuspect, group, op)
		suspect := t.admit.Suspect(data)
		tr.end(sp)
		if !suspect {
			return nil, nil
		}
	}
	if t.pf != nil {
		sp := tr.begin(spCandidate, group, op)
		t.pf.Candidates(data, t.bits)
		tr.end(sp)
	}
	var out []server.RuleMatch
	for i, c := range t.cores {
		if t.pf != nil && !t.bits.Has(i) {
			continue
		}
		c.Reset()
		gate := t.gates[i]
		for pos := 0; pos <= len(data); {
			if gate != nil {
				sp := tr.begin(spGate, group, op)
				_, found, err := gate.FirstAccept(data, pos)
				tr.end(sp)
				if errors.Is(err, automata.ErrDFABail) {
					gate = nil // the real path goes sticky-slow for the rest of the scan
				} else if err != nil {
					return nil, err
				} else if !found {
					break
				}
			}
			sp := tr.begin(spFind, group, op)
			m, ok, err := c.FindFromCtx(ctx, data, pos)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, server.RuleMatch{Rule: uint32(i), Start: uint64(m.Start), End: uint64(m.End)})
			if pos = m.End; m.End == m.Start {
				pos++
			}
		}
		t.simCycles += c.Stats().Cycles // Reset cleared them before this input
	}
	return out, nil
}

func (t *tiers) instructions() (n int) {
	for _, p := range t.progs {
		n += p.Len()
	}
	return n
}

// walked is what the layer walk measured besides its spans.
type walked struct {
	t         *tiers
	ops       int // ops walked
	bytes     int // payload bytes walked
	ckptBytes int // Σ checkpoint sizes (push mode)
}

// layerWalk replays the verification inputs twice, side by side: through
// the real in-process call on a one-worker rule set (so its wall time is
// its work), and through the rebuilt tiers one public call at a time.
// The difference is what the rule-set layer adds itself.
func layerWalk(ctx context.Context, tr *tracer, in *inputs, kind opKind, fr framing, served bool) (*walked, error) {
	t, err := buildTiers(tr, in.rules)
	if err != nil {
		return nil, err
	}
	twin, err := core.NewRuleSet(in.rules, backend.Options{}, libOptions...)
	if err != nil {
		return nil, err
	}
	w := &walked{t: t}
	switch kind {
	case pullOp:
		err = w.walkPull(ctx, tr, twin, in)
	case sessionOp:
		err = w.walkPush(ctx, tr, twin, in, fr)
	default:
		err = w.walkUnits(ctx, tr, twin, in)
	}
	if served && err == nil {
		err = w.walkCodec(tr, kind, in, fr)
	}
	return w, err
}

// walkUnits: one-shot inputs (Scan, SCAN, the records of SCAN-BATCH).
// The tiers' answer is held to the oracle too: if it is wrong, the walk
// no longer mirrors the real path and its times mean nothing.
func (w *walked) walkUnits(ctx context.Context, tr *tracer, twin *core.RuleSet, in *inputs) error {
	for i := range in.items {
		it := &in.items[i]
		op := i + 1
		sp := tr.begin(spCore, 0, op)
		_, err := twin.ScanCtx(ctx, it.data)
		tr.end(sp)
		if err != nil {
			return err
		}
		ms, err := w.t.scan(ctx, tr, op, it.data)
		if err != nil {
			return err
		}
		if !sameMatches(ms, it.want) {
			return fmt.Errorf("layer walk: input %d: the tiers found %d matches, the oracle %d: the walk no longer mirrors the scan path", i, len(ms), len(it.want))
		}
		w.ops++
		w.bytes += len(it.data)
	}
	return nil
}

// walkPull: ScanReader's windows over the whole stream.
func (w *walked) walkPull(ctx context.Context, tr *tracer, twin *core.RuleSet, in *inputs) error {
	sp := tr.begin(spCore, 0, 1)
	_, err := twin.ScanReaderCtx(ctx, bytes.NewReader(in.stream), func(int, core.Match, []byte) bool { return true })
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, win := range windowsOf(in.stream, stream.DefaultChunkSize, stream.DefaultOverlap) {
		if _, err := w.t.scan(ctx, tr, 1, win); err != nil {
			return err
		}
	}
	w.ops, w.bytes = 1, len(in.stream)
	return nil
}

// walkPush: a session's windows, one frame at a time, with the
// checkpoint the server exports after every frame.
func (w *walked) walkPush(ctx context.Context, tr *tracer, twin *core.RuleSet, in *inputs, fr framing) error {
	sink := func(int, core.Match, []byte) bool { return true }
	s := twin.NewStream(fr.overlap)
	wins := windowsOf(in.stream, frameBytes, fr.overlap)
	for i, frame := range fr.chunks {
		op := i + 1
		sp := tr.begin(spCore, 0, op)
		_, err := s.PushCtx(ctx, frame, sink)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(spExport, 0, op)
		w.ckptBytes += len(s.Export())
		tr.end(sp)
		if _, err := w.t.scan(ctx, tr, op, wins[i]); err != nil {
			return err
		}
		w.ops++
		w.bytes += len(frame)
	}
	_, err := s.FinishCtx(ctx, sink)
	return err
}

// walkCodec times the frame codec on the verification inputs' real
// frames: what the server reads and parses per request, and what it
// encodes and writes per response (the oracle's matches stand in for the
// scan's, which the verification pass proved equal).
func (w *walked) walkCodec(tr *tracer, kind opKind, in *inputs, fr framing) error {
	var wire bytes.Buffer
	roundTrip := func(op int, req server.Frame, parse func(body []byte) error, respond func() server.Frame) error {
		wire.Reset()
		if err := server.WriteFrame(&wire, req); err != nil {
			return err
		}
		sp := tr.begin(spDecode, 0, op)
		got, err := server.ReadFrame(&wire, 0)
		if err == nil {
			err = parse(got.Body)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(spEncode, 0, op)
		err = server.WriteFrame(io.Discard, respond())
		tr.end(sp)
		return err
	}
	none := func([]byte) error { return nil }
	switch kind {
	case scanOp:
		for i := range in.items {
			it := &in.items[i]
			err := roundTrip(i+1, server.Frame{Op: server.OpScan, Body: it.data}, none, func() server.Frame {
				return server.Frame{Op: server.OpMatches, Body: server.EncodeMatches(it.want)}
			})
			if err != nil {
				return err
			}
		}
	case batchOp:
		for i, b := range fr.batches {
			body, err := server.EncodeScanBatch(fr.payloads[i])
			if err != nil {
				return err
			}
			err = roundTrip(i*batchRecords+1, server.Frame{Op: server.OpScanBatch, Body: body},
				func(body []byte) error { _, err := server.DecodeScanBatch(body); return err },
				func() server.Frame {
					res := make([]server.BatchItemResult, len(b))
					for j, it := range b {
						res[j].Matches = it.want
					}
					return server.Frame{Op: server.OpBatchResp, Body: server.EncodeBatchResults(res)}
				})
			if err != nil {
				return err
			}
		}
	case sessionOp:
		ckpt := make([]byte, w.ckptBytes/max(len(fr.chunks), 1))
		want := in.items[0].want
		for i, frame := range fr.chunks {
			err := roundTrip(i+1, server.Frame{Op: server.OpSessionData, Body: server.EncodeSessionData(1, frame)},
				func(body []byte) error { _, _, err := server.DecodeSessionData(body); return err },
				func() server.Frame {
					// The matches a frame finalises are the stream's share.
					lo, hi := i*len(want)/len(fr.chunks), (i+1)*len(want)/len(fr.chunks)
					return server.Frame{Op: server.OpSessionMatches,
						Body: server.EncodeSessionMatchesCkpt(false, uint64((i+1)*frameBytes), want[lo:hi], ckpt)}
				})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
