package server_test

import (
	"bytes"
	"context"
	"testing"

	"alveare/internal/server"
)

// servedAllocRules are three literal-led rules: a 4 KiB payload of
// padding with one witness of each costs the scan itself almost
// nothing, so the budgets below are the serving path's own.
var servedAllocRules = []string{`alpha[0-9]+`, `beta-(secret|token)`, `[a-f0-9]{8}-dead`}

// servedPayload is size bytes of padding with one witness of each
// servedAllocRules pattern in it.
func servedPayload(size int) []byte {
	p := bytes.Repeat([]byte("pad "), size/4)
	copy(p[100:], "alpha42")
	copy(p[size/2:], "beta-token")
	copy(p[size-100:], "cafebabe-dead")
	return p
}

// TestServedAllocationBudget pins what one request costs the allocator
// end to end over loopback — the client, the server's reader, worker
// and writer — once both sides are warm. The counts at the parent of
// the change that added this test are in each budget's comment.
func TestServedAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so borrows allocate")
	}
	_, addr := startServer(t, server.Config{Rules: servedAllocRules, Workers: 2})
	c := dial(t, addr)
	payload := servedPayload(4 << 10)

	t.Run("scan", func(t *testing.T) {
		n := testing.AllocsPerRun(200, func() {
			if ms, err := c.Scan(payload); err != nil || len(ms) != 3 {
				t.Fatalf("Scan = %d matches, %v; want 3", len(ms), err)
			}
		})
		// Parent: 12 (a 4 KiB SCAN with three matches; 16 before that).
		// Left: the frame body each side reads (2), the rule set's match
		// lists and result (4), scanRules' one wire list (1) and the
		// client's decoded list (1). The worker job queues by value and
		// MATCHES is encoded into the frame buffer.
		if n > 8 {
			t.Errorf("one SCAN allocates %v times, want <= %d", n, 8)
		}
	})
	t.Run("batch", func(t *testing.T) {
		items := [][]byte{payload[:1024], payload[1024:2048], payload[2048:3072], payload[3072:]}
		n := testing.AllocsPerRun(200, func() {
			rs, err := c.ScanBatch(items)
			if err != nil || len(rs) != len(items) {
				t.Fatalf("ScanBatch = %d results, %v; want %d", len(rs), err, len(items))
			}
		})
		// Parent: 21 (four 1 KiB items, three matches between them; 25
		// before that). The job and the BATCH-RESP body are gone.
		if n > 19 {
			t.Errorf("one SCAN-BATCH allocates %v times, want <= %d", n, 19)
		}
	})
	t.Run("session", func(t *testing.T) {
		sess, err := c.OpenSessionCheckpointCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		// The last witness sits in the overlap carry, so each frame
		// reports it for the frame before: warm the carry up first.
		if _, _, err := sess.Write(payload); err != nil {
			t.Fatal(err)
		}
		got := 0
		n := testing.AllocsPerRun(200, func() {
			ms, _, err := sess.Write(payload)
			if err != nil {
				t.Fatalf("session Write: %v", err)
			}
			got += len(ms)
		})
		if got != 3*201 || sess.Checkpoint() == nil {
			t.Fatalf("%d matches over 201 frames (checkpoint %v), want %d", got, sess.Checkpoint() != nil, 3*201)
		}
		// Parent: 16 (a checkpointed 4 KiB frame with three matches).
		// Left: the frame body each side reads (2), the stream's
		// per-rule match lists (3), the exported checkpoint (1) and the
		// client's decoded list (1). The chunk follows the session's
		// encoded head, jobs queue by value, the session FIFO reuses its
		// array, the session reuses its match array, and SESSION-MATCHES
		// is encoded into the frame buffer.
		if n > 7 {
			t.Errorf("one SESSION-DATA allocates %v times, want <= %d", n, 7)
		}
	})
}
