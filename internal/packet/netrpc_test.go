package packet

import (
	"errors"
	"testing"
)

func TestNetRPCRoundTrip(t *testing.T) {
	h := NetRPC{
		Op:         NetRPCResponse,
		Flags:      NetRPCFlagCached | NetRPCFlagCoalesced,
		ClientID:   0x1234,
		Method:     7,
		PayloadLen: 24,
		RPCID:      0xDEADBEEFCAFEF00D,
	}
	buf := make([]byte, NetRPCHeaderLen)
	if n := h.MarshalTo(buf); n != NetRPCHeaderLen {
		t.Fatalf("marshal = %d bytes", n)
	}
	var got NetRPC
	rest, err := got.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != h {
		t.Fatalf("round-trip = %+v, want %+v", got, h)
	}
}

func TestNetRPCTruncated(t *testing.T) {
	var h NetRPC
	if _, err := h.Unmarshal(make([]byte, NetRPCHeaderLen-1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildNetRPCFrame(t *testing.T) {
	spec := UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 30000,
	}
	payload := []byte("the-answer")
	raw := BuildNetRPC(spec, NetRPC{Op: NetRPCRequest, ClientID: 3, Method: 9, RPCID: 42}, payload)

	f, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.UDP.DstPort != NetRPCPort {
		t.Fatalf("dst port = %d", f.UDP.DstPort)
	}
	if !f.VerifyUDPChecksum() {
		t.Fatal("bad UDP checksum")
	}
	var h NetRPC
	rest, err := h.Unmarshal(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Op != NetRPCRequest || h.ClientID != 3 || h.Method != 9 || h.RPCID != 42 {
		t.Fatalf("header = %+v", h)
	}
	if h.PayloadLen != uint16(len(payload)) || string(rest) != string(payload) {
		t.Fatalf("payload = %q (len field %d)", rest, h.PayloadLen)
	}
}

// TestNetRPCOffsetsMatchMarshal pins the exported field offsets the
// microcode program generator builds its lmem defines from.
func TestNetRPCOffsetsMatchMarshal(t *testing.T) {
	h := NetRPC{Op: 0x11, Flags: 0x22, ClientID: 0x3344, Method: 0x5566, PayloadLen: 0x7788, RPCID: 0x99AABBCCDDEEFF00}
	buf := make([]byte, NetRPCHeaderLen)
	h.MarshalTo(buf)
	if buf[NetRPCOpOff] != 0x11 || buf[NetRPCFlagsOff] != 0x22 {
		t.Fatalf("op/flags bytes = % x", buf[:2])
	}
	if buf[NetRPCClientOff] != 0x33 || buf[NetRPCMethodOff] != 0x55 || buf[NetRPCPlenOff] != 0x77 {
		t.Fatalf("u16 field offsets wrong: % x", buf)
	}
	if buf[NetRPCIDOff] != 0x99 || buf[NetRPCIDOff+7] != 0x00 {
		t.Fatalf("rpc_id offset wrong: % x", buf)
	}
	if NetRPCPayloadOff != NetRPCHeaderLen {
		t.Fatal("payload offset drifted from header length")
	}
}
