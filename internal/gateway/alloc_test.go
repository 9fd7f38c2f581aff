package gateway_test

import (
	"bytes"
	"testing"

	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// allocPayload is 4 KiB of padding with one witness of each testRules
// pattern in it.
func allocPayload() []byte {
	p := bytes.Repeat([]byte("pad "), 1<<10)
	copy(p[100:], "alpha42")
	copy(p[2048:], "beta-token")
	copy(p[4000:], "cafebabe-dead")
	return p
}

// TestGatewayAllocationBudget pins what one tenant-wrapped 4 KiB request
// through the gateway costs the allocator end to end over loopback —
// the client, the gateway's reader, fair queue, router and shard
// client, and the shard — once everything is warm. The count at the
// parent of the change that added each case is in its budget's comment.
func TestGatewayAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so borrows allocate")
	}
	_, s0 := startShard(t, server.Config{Workers: 2})
	_, s1 := startShard(t, server.Config{Workers: 2})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0, s1}})
	c := client.New(gaddr, client.WithTenant("t0", "default"))
	defer c.Close()
	payload := allocPayload()

	t.Run("scan", func(t *testing.T) {
		n := testing.AllocsPerRun(200, func() {
			if ms, err := c.Scan(payload); err != nil || len(ms) != 3 {
				t.Fatalf("Scan = %d matches, %v; want 3", len(ms), err)
			}
		})
		// Parent: 14 (41 before that). Left, and outside the gateway: the
		// four frame bodies read on the way (client, gateway, shard,
		// gateway), the shard's match lists and result, its one wire list,
		// and the client's decoded list.
		if n > 10 {
			t.Errorf("one gateway SCAN allocates %v times, want <= %d", n, 10)
		}
	})
	t.Run("session", func(t *testing.T) {
		sess, err := c.OpenSession(0)
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
		if got != 3*201 {
			t.Fatalf("%d matches over 201 frames, want %d", got, 3*201)
		}
		// Parent: 23. Left: the four frame bodies read on the way, the
		// shard stream's per-rule match lists (3), the checkpoint it
		// exports for the gateway (1) and the client's decoded list (1).
		// Nothing is re-encoded or queued by pointer on the way.
		if n > 9 {
			t.Errorf("one gateway SESSION-DATA allocates %v times, want <= %d", n, 9)
		}
	})
}
