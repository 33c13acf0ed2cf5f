package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testSpec() UDPSpec {
	return UDPSpec{
		SrcIP:   [4]byte{10, 0, 0, 1},
		DstIP:   [4]byte{10, 0, 0, 254},
		SrcPort: 40000,
		DstPort: 9999,
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 discussions.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	even := Checksum([]byte{0xAB, 0x00}, 0)
	odd := Checksum([]byte{0xAB}, 0)
	if even != odd {
		t.Fatalf("odd-length padding mismatch: %#x vs %#x", odd, even)
	}
}

func TestMACString(t *testing.T) {
	m := MACFromUint64(0x0A0B0C0D0E0F)
	if m.String() != "0a:0b:0c:0d:0e:0f" {
		t.Fatalf("MAC string = %s", m)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), EtherType: EtherTypeIPv4}
	b := make([]byte, EthernetLen)
	e.MarshalTo(b)
	var got Ethernet
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if _, err := e.Unmarshal(make([]byte, 13)); err == nil {
		t.Fatal("want truncation error")
	}
}

func TestIPv4RoundTripWithOptions(t *testing.T) {
	ip := IPv4{
		TOS: 0x10, ID: 42, Flags: 2, FragOff: 0,
		TTL: 17, Protocol: ProtoUDP,
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
		Options: []byte{0x94, 0x04, 0x00, 0x00}, // router alert
	}
	ip.TotalLen = uint16(ip.HeaderLen())
	if ip.IHL() != 6 {
		t.Fatalf("IHL = %d, want 6", ip.IHL())
	}
	b := make([]byte, ip.HeaderLen())
	ip.MarshalTo(b)
	var got IPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	if !bytes.Equal(got.Options, ip.Options) || got.TTL != 17 || got.ID != 42 || got.Flags != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, TotalLen: 20}
	b := make([]byte, ip.HeaderLen())
	ip.MarshalTo(b)
	b[8] ^= 0xFF // corrupt TTL
	var got IPv4
	if _, err := got.Unmarshal(b); err == nil {
		t.Fatal("corrupted header decoded without error")
	}
}

func TestIPv4RejectsVersion6(t *testing.T) {
	b := make([]byte, 20)
	b[0] = 6<<4 | 5
	var ip IPv4
	if _, err := ip.Unmarshal(b); err == nil {
		t.Fatal("want version error")
	}
}

func TestIPv4RejectsShortIHL(t *testing.T) {
	ip := IPv4{TTL: 1, TotalLen: 20}
	b := make([]byte, 20)
	ip.MarshalTo(b)
	b[0] = 4<<4 | 3 // IHL 3 words = 12 bytes < 20
	var got IPv4
	if _, err := got.Unmarshal(b); err == nil {
		t.Fatal("want IHL error")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 1234, DstPort: TrioMLPort, Length: 20, Checksum: 0xBEEF}
	b := make([]byte, UDPLen)
	u.MarshalTo(b)
	var got UDP
	if _, err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("%+v != %+v", got, u)
	}
}

func TestTrioMLHeaderRoundTrip(t *testing.T) {
	h := TrioML{
		JobID: 3, BlockID: 0xCAFEBABE, AgeOp: 0xA, Final: true, Degraded: true,
		SrcID: 5, SrcCnt: 6, GenID: 0x55AA, GradCnt: 1024,
	}
	b := make([]byte, TrioMLHeaderLen)
	h.MarshalTo(b)
	var got TrioML
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestTrioMLHeaderProperty(t *testing.T) {
	f := func(job uint8, block uint32, age uint8, fin, deg bool, src, cnt uint8, gen uint16, grads uint16) bool {
		h := TrioML{
			JobID: job, BlockID: block, AgeOp: age & 0xF, Final: fin, Degraded: deg,
			SrcID: src, SrcCnt: cnt, GenID: gen, GradCnt: grads & 0xFFF,
		}
		b := make([]byte, TrioMLHeaderLen)
		h.MarshalTo(b)
		var got TrioML
		if _, err := got.Unmarshal(b); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGradientsRoundTrip(t *testing.T) {
	grads := []int32{0, 1, -1, 1 << 30, -(1 << 30), 123456789}
	b := make([]byte, 4*len(grads))
	PutGradients(b, grads)
	got, err := Gradients(b, len(grads))
	if err != nil {
		t.Fatal(err)
	}
	for i := range grads {
		if got[i] != grads[i] {
			t.Fatalf("gradient %d: %d != %d", i, got[i], grads[i])
		}
	}
}

func TestGradientsTruncated(t *testing.T) {
	if _, err := Gradients(make([]byte, 7), 2); err == nil {
		t.Fatal("want truncation error")
	}
}

func TestBuildAndDecodeUDP(t *testing.T) {
	payload := []byte("hello trio")
	raw := BuildUDP(testSpec(), payload)
	f, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.IsTrioML() {
		t.Fatal("plain UDP decoded as Trio-ML")
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Fatalf("payload = %q", f.Payload)
	}
	if f.UDP.SrcPort != 40000 || f.UDP.DstPort != 9999 {
		t.Fatalf("ports = %d->%d", f.UDP.SrcPort, f.UDP.DstPort)
	}
	if int(f.UDP.Length) != UDPLen+len(payload) {
		t.Fatalf("udp length = %d", f.UDP.Length)
	}
	if int(f.IP.TotalLen) != len(raw)-EthernetLen {
		t.Fatalf("ip total length = %d, frame = %d", f.IP.TotalLen, len(raw))
	}
	if !f.VerifyUDPChecksum() {
		t.Fatal("UDP checksum does not verify")
	}
}

func TestBuildAndDecodeTrioML(t *testing.T) {
	grads := make([]int32, 256)
	for i := range grads {
		grads[i] = int32(i * 7)
	}
	spec := testSpec()
	spec.DstPort = 0 // defaulted to TrioMLPort
	raw := BuildTrioML(spec, TrioML{JobID: 1, BlockID: 9, SrcID: 2, GenID: 4}, grads)
	f, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsTrioML() {
		t.Fatal("not decoded as Trio-ML")
	}
	if f.ML.GradCnt != 256 {
		t.Fatalf("grad_cnt = %d", f.ML.GradCnt)
	}
	got, err := Gradients(f.Payload, int(f.ML.GradCnt))
	if err != nil {
		t.Fatal(err)
	}
	for i := range grads {
		if got[i] != grads[i] {
			t.Fatalf("gradient %d mismatch", i)
		}
	}
	// Fig. 7 layout: 14 + 20 + 8 + 12 + 4*1024 max.
	if want := EthernetLen + IPv4MinLen + UDPLen + TrioMLHeaderLen + 4*256; len(raw) != want {
		t.Fatalf("frame = %d bytes, want %d", len(raw), want)
	}
}

func TestBuildTrioMLMaxPacketSize(t *testing.T) {
	raw := BuildTrioML(testSpec(), TrioML{JobID: 1}, make([]int32, MaxGradientsPerPacket))
	if want := EthernetLen + IPv4MinLen + UDPLen + TrioMLHeaderLen + 4096; len(raw) != want {
		t.Fatalf("frame = %d, want %d (Fig. 7: up to 4096 gradient bytes)", len(raw), want)
	}
}

func TestBuildTrioMLTooManyGradientsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildTrioML(testSpec(), TrioML{}, make([]int32, MaxGradientsPerPacket+1))
}

func TestDecodeNonIPPassesThrough(t *testing.T) {
	e := Ethernet{EtherType: EtherTypeARP}
	raw := make([]byte, EthernetLen+4)
	e.MarshalTo(raw)
	f, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Eth.EtherType != EtherTypeARP || len(f.Payload) != 4 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestDecodeCorruptIPFails(t *testing.T) {
	raw := BuildUDP(testSpec(), []byte("x"))
	raw[EthernetLen+8] ^= 0x55 // corrupt TTL within IP header
	if _, err := Decode(raw); err == nil {
		t.Fatal("want checksum error")
	}
}

func TestUDPChecksumNeverZeroOnWire(t *testing.T) {
	// Build many frames; serialized checksum field must never be zero
	// (RFC 768 mandates 0xFFFF substitution).
	spec := testSpec()
	for i := 0; i < 200; i++ {
		spec.SrcPort = uint16(i)
		raw := BuildUDP(spec, []byte{byte(i)})
		f, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.UDP.Checksum == 0 {
			t.Fatal("zero UDP checksum on wire")
		}
	}
}

func TestDecodeBuildPropertyRoundTrip(t *testing.T) {
	f := func(payload []byte, sport, dport uint16) bool {
		if dport == TrioMLPort && len(payload) < TrioMLHeaderLen {
			return true // trio-ml decode legitimately fails on short payloads
		}
		spec := testSpec()
		spec.SrcPort, spec.DstPort = sport, dport
		if spec.DstPort == 0 {
			spec.DstPort = 1
		}
		raw := BuildUDP(spec, payload)
		fr, err := Decode(raw)
		if err != nil {
			return false
		}
		if fr.IsTrioML() {
			return bytes.Equal(fr.Raw[EthernetLen+IPv4MinLen+UDPLen:], payload)
		}
		return bytes.Equal(fr.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddGradientsAddsInPlaceUpToDst(t *testing.T) {
	b := make([]byte, 4*4)
	PutGradients(b, []int32{1, -2, 3, 1 << 30})
	dst := []int32{10, 10, 10}
	AddGradients(dst, b, 4) // only len(dst) values land
	if dst[0] != 11 || dst[1] != 8 || dst[2] != 13 {
		t.Fatalf("dst = %v, want [11 8 13]", dst)
	}
	AddGradients(dst, b, 1)
	if dst[0] != 12 || dst[1] != 8 {
		t.Fatalf("dst = %v after adding one gradient", dst)
	}
}
