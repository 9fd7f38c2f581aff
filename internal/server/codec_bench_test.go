package server_test

import (
	"bytes"
	"testing"

	"alveare/internal/server"
)

// codecSink keeps a benchmarked encode whose result is otherwise unused.
var codecSink []byte

// BenchmarkCodec times the bodies the served path encodes and decodes
// per request, shaped like the benchmark's codec walk: a 4 KiB SCAN
// answered by 16 matches, a SCAN-BATCH of 64 records of 160 B answered
// one match each, and a 4 KiB SESSION-DATA answered by a SESSION-MATCHES
// with a 512 B checkpoint piggyback. It only calls functions whose
// signatures predate the table-driven codec, so it runs unchanged on an
// older checkout for a before/after comparison.
func BenchmarkCodec(b *testing.B) {
	ms := make([]server.RuleMatch, 16)
	for i := range ms {
		ms[i] = server.RuleMatch{Rule: uint32(i), Start: uint64(i * 200), End: uint64(i*200 + 12)}
	}
	payload := bytes.Repeat([]byte("GET /index.html "), 256)
	records := make([][]byte, 64)
	results := make([]server.BatchItemResult, 64)
	for i := range records {
		records[i] = payload[:160]
		results[i].Matches = ms[:1]
	}
	ckpt := make([]byte, 512)
	tenant, _ := server.EncodeTenant(server.TenantHeader{Tenant: "acme", Namespace: "prod"}, server.OpScan, payload)

	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := server.DecodeMatches(server.EncodeMatches(ms)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tenant", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, _, err := server.DecodeTenant(tenant); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			body, err := server.EncodeScanBatch(records)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := server.DecodeScanBatch(body); err != nil {
				b.Fatal(err)
			}
			if _, err := server.DecodeBatchResults(server.EncodeBatchResults(results)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := server.DecodeSessionData(server.EncodeSessionData(1, payload)); err != nil {
				b.Fatal(err)
			}
			codecSink = server.EncodeSessionMatchesCkpt(false, 4096, ms, ckpt)
		}
	})
}
