package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// mustTenant builds a TENANT envelope body or fails the test.
func mustTenant(t *testing.T, h TenantHeader, op byte, inner []byte) []byte {
	t.Helper()
	body, err := EncodeTenant(h, op, inner)
	if err != nil {
		t.Fatalf("EncodeTenant: %v", err)
	}
	return body
}

// Golden bytes for the gateway extensions: TENANT envelopes,
// MATCHES-PARTIAL and reasoned SHED. Changing any of these bytes is a
// protocol break — docs/PROTOCOL.md documents each layout.
func TestGoldenTenantFrames(t *testing.T) {
	tenantBody := []byte{
		4, 'a', 'c', 'm', 'e', // u8 len, tenant
		2, 'n', 's', // u8 len, namespace
		0x02,          // inner op SCAN
		'p', 'a', 'y', // inner body
	}
	cases := []struct {
		name  string
		frame Frame
		wire  []byte
	}{
		{
			name:  "tenant-scan",
			frame: Frame{Op: OpTenant, ID: 6, Body: tenantBody},
			wire:  append([]byte{0, 0, 0, 17, 0x08, 0, 0, 0, 6}, tenantBody...),
		},
		{
			name: "tenant-empty-namespace",
			frame: Frame{Op: OpTenant, ID: 7,
				Body: []byte{1, 't', 0, 0x03, 'x'}},
			wire: []byte{0, 0, 0, 10, 0x08, 0, 0, 0, 7, 1, 't', 0, 0x03, 'x'},
		},
		{
			name: "matches-partial",
			frame: Frame{Op: OpMatchesPartial, ID: 8,
				Body: EncodeMatchesPartial(true, 2, 1, []RuleMatch{{Rule: 1, Start: 2, End: 5}})},
			wire: []byte{0, 0, 0, 34, 0x8A, 0, 0, 0, 8,
				0x01, // flags: partial
				0, 2, // shards answered
				0, 1, // shards missed
				0, 0, 0, 1, // match count
				0, 0, 0, 1, // rule
				0, 0, 0, 0, 0, 0, 0, 2, // start
				0, 0, 0, 0, 0, 0, 0, 5, // end
			},
		},
		{
			name:  "shed-reason-quota",
			frame: Frame{Op: OpShed, ID: 9, Body: EncodeShed(ShedReasonQuota)},
			wire:  []byte{0, 0, 0, 6, 0xEE, 0, 0, 0, 9, 0x02},
		},
		{
			name:  "shed-reason-capacity",
			frame: Frame{Op: OpShed, ID: 10, Body: EncodeShed(ShedReasonCapacity)},
			wire:  []byte{0, 0, 0, 6, 0xEE, 0, 0, 0, 10, 0x04},
		},
		{
			name:  "error-unknown-tenant",
			frame: Frame{Op: OpError, ID: 11, Body: EncodeError(ErrCodeUnknownTenant, "unknown tenant x")},
			wire: append([]byte{0, 0, 0, 22, 0xE0, 0, 0, 0, 11, 5},
				[]byte("unknown tenant x")...),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.frame); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), tc.wire) {
				t.Errorf("wire bytes\n got %v\nwant %v", buf.Bytes(), tc.wire)
			}
			got, err := ReadFrame(bytes.NewReader(tc.wire), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.Op != tc.frame.Op || got.ID != tc.frame.ID || !bytes.Equal(got.Body, tc.frame.Body) {
				t.Errorf("ReadFrame round-trip mismatch: %+v", got)
			}
		})
	}
}

func TestTenantRoundTrip(t *testing.T) {
	h := TenantHeader{Tenant: "acme", Namespace: "prod"}
	body := mustTenant(t, h, OpScanPattern, []byte{0, 2, 'a', 'b', 'x'})
	got, op, inner, err := DecodeTenant(body)
	if err != nil {
		t.Fatalf("DecodeTenant: %v", err)
	}
	if got != h || op != OpScanPattern || !bytes.Equal(inner, []byte{0, 2, 'a', 'b', 'x'}) {
		t.Errorf("round trip: %+v op 0x%02X inner %v", got, op, inner)
	}
	if got.Key() != "acme/prod" {
		t.Errorf("Key() = %q, want acme/prod", got.Key())
	}
}

// Every truncation and garbage shape of a TENANT envelope must decode
// to ErrMalformedFrame — not a panic, not a silent misparse.
func TestDecodeTenantMalformed(t *testing.T) {
	long := strings.Repeat("x", MaxTenantName+1)
	ok := mustTenant(t, TenantHeader{Tenant: "ab", Namespace: "cd"}, OpScan, []byte("p"))
	cases := []struct {
		name string
		body []byte
	}{
		{"empty envelope", nil},
		{"empty tenant", []byte{0, 0, OpScan}},
		{"oversized tenant length", append([]byte{65}, long...)},
		{"truncated in tenant", []byte{4, 'a', 'b'}},
		{"tenant only, no namespace length", []byte{2, 'a', 'b'}},
		{"oversized namespace length", []byte{1, 't', 65}},
		{"truncated in namespace", []byte{1, 't', 4, 'n', 'n'}},
		{"missing inner opcode", []byte{1, 't', 1, 'n'}},
		{"non-queue-class inner op PING", []byte{1, 't', 0, OpPing}},
		{"non-queue-class inner op STATS", []byte{1, 't', 0, OpStats}},
		{"response opcode as inner op", []byte{1, 't', 0, OpMatches}},
		{"nested tenant envelope", []byte{1, 't', 0, OpTenant, 1, 'u', 0, OpScan}},
		{"truncated golden", ok[:len(ok)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeTenant(tc.body)
			if !errors.Is(err, ErrMalformedFrame) {
				t.Errorf("DecodeTenant(%v) err = %v, want ErrMalformedFrame", tc.body, err)
			}
		})
	}
	// The truncated-golden case above loses inner-body bytes silently
	// only if the envelope still parses; assert it does not round-trip
	// to the same inner body.
	if _, _, inner, err := DecodeTenant(ok); err != nil || string(inner) != "p" {
		t.Fatalf("golden envelope no longer parses: %v", err)
	}
}

func TestEncodeTenantRejects(t *testing.T) {
	long := strings.Repeat("x", MaxTenantName+1)
	cases := []struct {
		name string
		h    TenantHeader
		op   byte
	}{
		{"empty tenant", TenantHeader{}, OpScan},
		{"oversized tenant", TenantHeader{Tenant: long}, OpScan},
		{"oversized namespace", TenantHeader{Tenant: "t", Namespace: long}, OpScan},
		{"non-queue-class op", TenantHeader{Tenant: "t"}, OpPing},
		{"response op", TenantHeader{Tenant: "t"}, OpMatches},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := EncodeTenant(tc.h, tc.op, nil); !errors.Is(err, ErrMalformedFrame) {
				t.Errorf("EncodeTenant err = %v, want ErrMalformedFrame", err)
			}
		})
	}
}

func TestMatchesPartialRoundTrip(t *testing.T) {
	ms := []RuleMatch{{Rule: 0, Start: 1, End: 4}, {Rule: 3, Start: 9, End: 12}}
	body := EncodeMatchesPartial(true, 2, 1, ms)
	partial, ok, failed, got, err := DecodeMatchesPartial(body)
	if err != nil {
		t.Fatalf("DecodeMatchesPartial: %v", err)
	}
	if !partial || ok != 2 || failed != 1 || len(got) != 2 || got[0] != ms[0] || got[1] != ms[1] {
		t.Errorf("round trip: partial=%v ok=%d failed=%d ms=%v", partial, ok, failed, got)
	}
	// The complete form (flag clear) also round-trips.
	body = EncodeMatchesPartial(false, 3, 0, ms)
	partial, ok, failed, _, err = DecodeMatchesPartial(body)
	if err != nil || partial || ok != 3 || failed != 0 {
		t.Errorf("complete form: partial=%v ok=%d failed=%d err=%v", partial, ok, failed, err)
	}
}

func TestDecodeMatchesPartialMalformed(t *testing.T) {
	good := EncodeMatchesPartial(true, 1, 0, []RuleMatch{{Rule: 1, Start: 2, End: 3}})
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0, 1, 0}},
		{"unknown flag bits", append([]byte{0x82}, good[1:]...)},
		{"truncated match list", good[:len(good)-5]},
		{"garbage count", []byte{1, 0, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := DecodeMatchesPartial(tc.body); !errors.Is(err, ErrMalformedFrame) {
				t.Errorf("DecodeMatchesPartial(%v) err = %v, want ErrMalformedFrame", tc.body, err)
			}
		})
	}
}

func TestShedReasonNames(t *testing.T) {
	cases := map[byte]string{
		0:                  "unspecified",
		ShedReasonQueue:    "queue-full",
		ShedReasonQuota:    "quota",
		ShedReasonFairQ:    "fair-queue",
		ShedReasonCapacity: "capacity",
		0x7F:               "reason-0x7F",
	}
	for r, want := range cases {
		if got := ShedReasonName(r); got != want {
			t.Errorf("ShedReasonName(%d) = %q, want %q", r, got, want)
		}
	}
}

func TestTenantOpNames(t *testing.T) {
	if got := OpName(OpTenant); got != "TENANT" {
		t.Errorf("OpName(OpTenant) = %q", got)
	}
	if got := OpName(OpMatchesPartial); got != "MATCHES-PARTIAL" {
		t.Errorf("OpName(OpMatchesPartial) = %q", got)
	}
}
