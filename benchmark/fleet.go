package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"alveare/internal/gateway"
	"alveare/internal/metrics"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// The service workloads are sized for two cores: every stack runs in
// this process on loopback, with two closed-loop callers, one request
// in flight each.
const (
	fleetCallers = 2
	shardWorkers = 2
	namespace    = "default"
)

// fleetStack is a service operator's stack: shards, optionally a
// gateway in front, and one client connection per caller.
type fleetStack struct {
	in      *inputs
	kind    opKind
	shards  []*server.Server
	gw      *gateway.Gateway
	gwAddr  string
	clients []*client.Client
	// direct[c] talks straight to the shard that owns caller c's
	// tenant: the paired call the gateway hop is measured against.
	direct  []*client.Client
	clientM *metrics.Registry
	serving sync.WaitGroup

	frames framing
}

// serve runs an accept loop until its owner closes it.
func (f *fleetStack) serve(loop func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = loop(ln) // Close below is the only way it returns
	}()
	return ln.Addr().String(), nil
}

// buildFleet brings up nShards replicas of the rule set, a gateway over
// them when asked, and a dialed client per caller.
func buildFleet(kind opKind, nShards int, viaGateway bool) func(*inputs) (stack, error) {
	return func(in *inputs) (st stack, err error) {
		f := &fleetStack{in: in, kind: kind, clientM: metrics.New(), frames: frame(in, kind)}
		defer func() {
			if err != nil {
				f.close()
			}
		}()
		addrs, err := f.startShards(in.rules, nShards)
		if err != nil {
			return nil, err
		}
		var route *routing
		if viaGateway {
			if route, err = tenantRouting(nShards); err != nil {
				return nil, err
			}
			if err = f.startGateway(addrs, route.tenants); err != nil {
				return nil, err
			}
		}
		for c := 0; c < fleetCallers; c++ {
			addr, opts := addrs[0], []client.Option{client.WithMetrics(f.clientM)}
			if viaGateway {
				addr, opts = f.gwAddr, append(opts, client.WithTenant(route.tenants[c], namespace))
				// Dialed on first use: only the traced run pairs calls.
				f.direct = append(f.direct, client.New(addrs[route.owners[c]]))
			}
			cl, err := client.Dial(addr, opts...)
			if err != nil {
				return nil, err
			}
			f.clients = append(f.clients, cl)
		}
		return f, nil
	}
}

func (f *fleetStack) startShards(rules []string, n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Rules: rules, Workers: shardWorkers})
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, srv)
		addr, err := f.serve(srv.Serve)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

func (f *fleetStack) startGateway(shards, tenants []string) error {
	cfg := gateway.Config{Backends: shards, DefaultTenant: tenants[0]}
	for _, t := range tenants {
		cfg.Tenants = append(cfg.Tenants, gateway.Tenant{Name: t})
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	f.gw = gw
	f.gwAddr, err = f.serve(gw.Serve)
	return err
}

func (f *fleetStack) close() {
	for _, c := range append(f.clients, f.direct...) {
		c.Close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
	f.serving.Wait()
}

func (f *fleetStack) shape() (opKind, framing) { return f.kind, f.frames }
func (f *fleetStack) callers() int             { return len(f.clients) }

func (f *fleetStack) ruleSets() []*metrics.Snapshot {
	var out []*metrics.Snapshot
	for _, s := range f.shards {
		out = append(out, s.MetricsSnapshot())
	}
	return out
}

func (f *fleetStack) fleet() *metrics.Snapshot {
	if f.gw == nil {
		return nil
	}
	return f.gw.MetricsSnapshot()
}

// routing is which tenants the callers use and which shard the ring
// gives each of them.
type routing struct {
	tenants []string
	owners  []int
}

var (
	routeOnce sync.Once
	route     *routing
	routeErr  error
)

// tenantRouting picks one tenant per caller such that the ring places
// them on different shards, so every shard serves traffic. The ring
// hashes (tenant, namespace) over shard indices only, so a throwaway
// fleet with a one-byte rule finds the placement once per process. That
// lands in the first of the timed builds, which the median ignores.
func tenantRouting(nShards int) (*routing, error) {
	routeOnce.Do(func() { route, routeErr = probeRouting(nShards) })
	return route, routeErr
}

func probeRouting(nShards int) (*routing, error) {
	f := &fleetStack{}
	defer f.close()
	addrs, err := f.startShards([]string{"a"}, nShards)
	if err != nil {
		return nil, err
	}
	var candidates []string
	for i := 0; i < 16; i++ {
		candidates = append(candidates, fmt.Sprintf("tenant%d", i))
	}
	if err := f.startGateway(addrs, candidates); err != nil {
		return nil, err
	}
	r := &routing{}
	taken := map[int]bool{}
	for _, t := range candidates {
		cl := client.New(f.gwAddr, client.WithTenant(t, namespace))
		f.clients = append(f.clients, cl)
		before := f.ruleSets()
		if _, err := cl.Scan([]byte("a")); err != nil {
			return nil, fmt.Errorf("routing probe: %w", err)
		}
		for i, after := range f.ruleSets() {
			if after.Get("server.scan.requests") > before[i].Get("server.scan.requests") && !taken[i] {
				taken[i] = true
				r.tenants, r.owners = append(r.tenants, t), append(r.owners, i)
			}
		}
		if len(r.tenants) == fleetCallers {
			return r, nil
		}
	}
	return nil, errors.New("routing probe: the ring puts every candidate tenant on one shard")
}

// shed turns an admission refusal into a failed sample; any other
// error ends the run.
func shed(err error) (refused bool, fatal error) {
	if err == nil {
		return false, nil
	}
	if errors.Is(err, client.ErrShed) {
		return true, nil
	}
	return false, err
}

func (f *fleetStack) verify(ctx context.Context) (ops, bad, bytes int, err error) {
	switch f.kind {
	case scanOp:
		for i := range f.in.items {
			it := &f.in.items[i]
			ms, err := f.clients[i%len(f.clients)].ScanCtx(ctx, it.data)
			if err != nil {
				return ops, bad, bytes, err
			}
			ops++
			bytes += len(it.data)
			if !sameMatches(ms, it.want) {
				bad++
			}
		}
	case batchOp:
		for i, b := range f.frames.batches {
			res, err := f.clients[i%len(f.clients)].ScanBatchCtx(ctx, f.frames.payloads[i])
			if err != nil {
				return ops, bad, bytes, err
			}
			for j, it := range b {
				ops++
				bytes += len(it.data)
				if res[j].Err != nil || !sameMatches(res[j].Matches, it.want) {
					bad++
				}
			}
		}
	case sessionOp:
		// Every caller streams once, so every shard sees a whole stream.
		for _, cl := range f.clients {
			var got []server.RuleMatch
			n, err := f.streamOnce(ctx, cl, nil, func(ms []server.RuleMatch) { got = append(got, ms...) })
			if err != nil {
				return ops, bad, bytes, err
			}
			ops += n
			bytes += len(f.in.stream)
			if !sameMatches(got, f.in.items[0].want) {
				bad += n
			}
		}
	}
	return ops, bad, bytes, nil
}

func (f *fleetStack) iter(ctx context.Context, c, k int, log *callLog) error {
	cl := f.clients[c]
	// Callers interleave so that between them they cover every input.
	n := k*len(f.clients) + c
	pair := log.pair && f.gw != nil
	switch f.kind {
	case scanOp:
		it := &f.in.items[n%len(f.in.items)]
		t0 := time.Now()
		ms, err := cl.ScanCtx(ctx, it.data)
		refused, err := shed(err)
		if err != nil {
			return err
		}
		log.add(t0, len(it.data), 1, bad(!refused && log.same(digestOf(ms), it.sum)))
		if pair {
			t1 := time.Now()
			if _, err := f.direct[c].ScanCtx(ctx, it.data); err != nil {
				return err
			}
			log.direct = append(log.direct, sample{start: t1.Sub(log.t0), lat: time.Since(t1)})
		}
	case batchOp:
		i := n % len(f.frames.batches)
		b := f.frames.batches[i]
		t0 := time.Now()
		res, err := cl.ScanBatchCtx(ctx, f.frames.payloads[i])
		refused, err := shed(err)
		if err != nil {
			return err
		}
		bytes, bad := 0, 0
		for j, it := range b {
			bytes += len(it.data)
			if refused || res[j].Err != nil || !log.same(digestOf(res[j].Matches), it.sum) {
				bad++
			}
		}
		// Every record of the frame waited for the frame's round trip.
		log.add(t0, bytes, len(b), bad)
	case sessionOp:
		first := len(log.samples)
		var d digest
		_, err := f.streamOnce(ctx, cl, log, func(ms []server.RuleMatch) {
			for _, m := range ms {
				d.add(m.Rule, m.Start, m.End)
			}
		})
		if err != nil {
			return err
		}
		// The oracle speaks for the whole stream: a wrong stream fails
		// every frame it was made of.
		log.failFrom(first, !log.same(d, f.in.items[0].sum))
		if pair {
			return f.pairStream(ctx, c, log)
		}
	}
	return nil
}

// streamOnce pushes the whole stream through one session, frame by
// frame, handing every acked match list to emit. With a log, each frame
// ack is one sample. It returns the number of frames pushed.
func (f *fleetStack) streamOnce(ctx context.Context, cl *client.Client, log *callLog, emit func([]server.RuleMatch)) (int, error) {
	sess, err := cl.OpenSessionCtx(ctx, f.frames.overlap)
	if err != nil {
		return 0, err
	}
	for _, frame := range f.frames.chunks {
		t0 := time.Now()
		ms, _, err := sess.WriteCtx(ctx, frame)
		refused, err := shed(err)
		if err != nil {
			return 0, err
		}
		if log != nil {
			log.add(t0, len(frame), 1, bad(!refused))
		}
		emit(ms)
	}
	ms, _, err := sess.CloseCtx(ctx)
	emit(ms)
	return len(f.frames.chunks), err
}

// pairStream replays the stream directly against the owning shard, with
// the checkpoint negotiation the gateway itself uses, logging each frame
// beside its via-gateway sample.
func (f *fleetStack) pairStream(ctx context.Context, c int, log *callLog) error {
	sess, err := f.direct[c].OpenSessionCheckpointCtx(ctx, f.frames.overlap)
	if err != nil {
		return err
	}
	for _, frame := range f.frames.chunks {
		t0 := time.Now()
		if _, _, err := sess.WriteCtx(ctx, frame); err != nil {
			return err
		}
		log.direct = append(log.direct, sample{start: t0.Sub(log.t0), lat: time.Since(t0)})
	}
	_, _, err = sess.CloseCtx(ctx)
	return err
}
