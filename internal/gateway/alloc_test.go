package gateway_test

import (
	"bytes"
	"testing"

	"alveare/internal/gateway"
	"alveare/internal/server"
	"alveare/internal/server/client"
)

// TestGatewayAllocationBudget pins what one tenant-wrapped 4 KiB SCAN
// through the gateway costs the allocator end to end over loopback —
// the client, the gateway's reader, fair queue, router and shard
// client, and the shard — once everything is warm. The count at the
// parent of the change that added this test is in the budget's comment.
func TestGatewayAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so borrows allocate")
	}
	_, s0 := startShard(t, server.Config{Workers: 2})
	_, s1 := startShard(t, server.Config{Workers: 2})
	_, gaddr := startGateway(t, gateway.Config{Backends: []string{s0, s1}})
	c := client.New(gaddr, client.WithTenant("t0", "default"))
	defer c.Close()

	payload := bytes.Repeat([]byte("pad "), 1<<10)
	copy(payload[100:], "alpha42")
	copy(payload[2048:], "beta-token")
	copy(payload[4000:], "cafebabe-dead")
	n := testing.AllocsPerRun(200, func() {
		if ms, err := c.Scan(payload); err != nil || len(ms) != 3 {
			t.Fatalf("Scan = %d matches, %v; want 3", len(ms), err)
		}
	})
	// Parent: 41. Left, and outside the gateway: the four frame bodies
	// read on the way (client, gateway, shard, gateway), the shard's
	// match lists, result and worker job, and the MATCHES encoding and
	// its decoding.
	if n > 14 {
		t.Errorf("one gateway SCAN allocates %v times, want <= %d", n, 14)
	}
}
