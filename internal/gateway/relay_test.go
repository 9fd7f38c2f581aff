package gateway_test

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"

	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// frameTap is a loopback proxy that records every frame it carries,
// each way, as the receiving side reads it off the wire.
type frameTap struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	up    []server.Frame // toward target
	down  []server.Frame // back from target
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFrameTap(t *testing.T, target string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &frameTap{ln: ln, target: target}
	tp.wg.Add(1)
	go tp.accept()
	t.Cleanup(tp.Close)
	return tp
}

func (tp *frameTap) Addr() string { return tp.ln.Addr().String() }

func (tp *frameTap) accept() {
	defer tp.wg.Done()
	for {
		in, err := tp.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", tp.target)
		if err != nil {
			in.Close()
			continue
		}
		tp.mu.Lock()
		tp.conns = append(tp.conns, in, out)
		tp.mu.Unlock()
		tp.wg.Add(2)
		go tp.pipe(in, out, &tp.up)
		go tp.pipe(out, in, &tp.down)
	}
}

// pipe relays frames from src to dst, recording each into log.
func (tp *frameTap) pipe(src, dst net.Conn, log *[]server.Frame) {
	defer tp.wg.Done()
	defer dst.Close()
	br := bufio.NewReader(src)
	for {
		f, err := server.ReadFrame(br, 0)
		if err != nil {
			return
		}
		tp.mu.Lock()
		*log = append(*log, f)
		tp.mu.Unlock()
		if server.WriteFrame(dst, f) != nil {
			return
		}
	}
}

// Close cuts every connection through the tap, as a dead host would.
func (tp *frameTap) Close() {
	tp.ln.Close()
	tp.mu.Lock()
	for _, c := range tp.conns {
		c.Close()
	}
	tp.mu.Unlock()
	tp.wg.Wait()
}

// frames returns the recorded frames of op, one direction.
func (tp *frameTap) frames(up bool, op byte) []server.Frame {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	log := tp.down
	if up {
		log = tp.up
	}
	var out []server.Frame
	for _, f := range log {
		if f.Op == op {
			out = append(out, f)
		}
	}
	return out
}

// TestGatewaySessionRelayWireBytes pins the bytes of the session relay,
// which forwards a chunk behind a head instead of re-encoding it. The
// client's frame is its TENANT envelope around EncodeSessionData under
// the gateway id; what a shard receives is EncodeSessionData under that
// shard's own id — also after a failover has moved the session, when
// the head carries the new shard's id.
func TestGatewaySessionRelayWireBytes(t *testing.T) {
	t.Cleanup(leakCheck(t))
	var taps []*frameTap
	var addrs, shards []string
	for i := 0; i < 2; i++ {
		_, saddr := startShard(t, server.Config{Rules: sessRules, Workers: 2})
		tp := newFrameTap(t, saddr)
		taps, addrs, shards = append(taps, tp), append(addrs, tp.Addr()), append(shards, saddr)
	}
	_, gaddr := startGateway(t, gateway.Config{Backends: addrs, Seed: 2024})
	front := newFrameTap(t, gaddr)
	h := server.TenantHeader{Tenant: "t0", Namespace: "default"}
	c := client.New(front.Addr(), client.WithTenant(h.Tenant, h.Namespace))
	defer c.Close()

	sess, err := c.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := sessPayload("t0", 4<<10)
	chunks := [][]byte{payload[:1024], payload[1024:2048], payload[2048:3072], payload[3072:]}
	for _, ch := range chunks[:2] {
		if _, _, err := sess.Write(ch); err != nil {
			t.Fatal(err)
		}
	}

	// shardFrames checks that tap's SESSION-DATA frames are want, each
	// under the id its SESSION-OK gave the gateway.
	shardFrames := func(tp *frameTap, want [][]byte) {
		t.Helper()
		oks := tp.frames(false, server.OpSessionOK)
		if len(oks) != 1 {
			t.Fatalf("shard answered %d SESSION-OKs, want 1", len(oks))
		}
		sid, _, _, err := server.DecodeSessionOK(oks[0].Body, server.SessionOpenFlagCheckpoint)
		if err != nil {
			t.Fatal(err)
		}
		got := tp.frames(true, server.OpSessionData)
		if len(got) != len(want) {
			t.Fatalf("shard received %d SESSION-DATA frames, want %d", len(got), len(want))
		}
		for i, f := range got {
			if exp := server.EncodeSessionData(sid, want[i]); !bytes.Equal(f.Body, exp) {
				t.Errorf("shard frame %d: % x..., want % x...", i, f.Body[:12], exp[:12])
			}
		}
	}
	owner := 0
	if len(taps[1].frames(true, server.OpSessionOpen)) == 1 {
		owner = 1
	}
	shardFrames(taps[owner], chunks[:2])

	// Every shard numbers its sessions from 1: take two ids on the other
	// shard first, so the session's id there differs from the owner's.
	direct := client.New(shards[1-owner])
	defer direct.Close()
	for i := 0; i < 2; i++ {
		if _, err := direct.OpenSession(0); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the owner's transport: the next frame fails over, restores on
	// the other shard and is replayed there under that shard's id.
	taps[owner].Close()
	for _, ch := range chunks[2:] {
		if _, _, err := sess.Write(ch); err != nil {
			t.Fatal(err)
		}
	}
	other := taps[1-owner]
	if n := len(other.frames(true, server.OpSessionRestore)); n != 1 {
		t.Fatalf("other shard received %d SESSION-RESTOREs, want 1", n)
	}
	shardFrames(other, chunks[2:])

	got := front.frames(true, server.OpTenant)
	var data [][]byte
	for _, f := range got {
		if _, op, _, err := server.DecodeTenant(f.Body); err == nil && op == server.OpSessionData {
			data = append(data, f.Body)
		}
	}
	if len(data) != len(chunks) {
		t.Fatalf("client sent %d SESSION-DATA frames, want %d", len(data), len(chunks))
	}
	for i, body := range data {
		exp, err := server.EncodeTenant(h, server.OpSessionData, server.EncodeSessionData(sess.ID(), chunks[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, exp) {
			t.Errorf("client frame %d differs from the tenant-wrapped EncodeSessionData", i)
		}
	}
}
