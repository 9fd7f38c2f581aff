package server_test

import (
	"bytes"
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
		// Parent: 16 (a 4 KiB SCAN with three matches). Left: the frame
		// body each side reads (2), the rule set's match lists and result
		// (4), scanRules appending three wire matches (3), the worker job
		// (1), the MATCHES body and its decoding (2).
		if n > 12 {
			t.Errorf("one SCAN allocates %v times, want <= %d", n, 12)
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
		// Parent: 25 (four 1 KiB items, three matches between them).
		if n > 21 {
			t.Errorf("one SCAN-BATCH allocates %v times, want <= %d", n, 21)
		}
	})
}
