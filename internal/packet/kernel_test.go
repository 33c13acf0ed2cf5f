package packet

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refChecksum is the byte-pair loop Checksum used to be, the oracle for the
// word-folding kernel. Its accumulator is widened to 64 bits: the old 32-bit
// one dropped a carry once initial plus the data passed 2^32, which no caller
// reaches (initial is a pseudo-header sum) and the kernel does not reproduce.
func refChecksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for len(b) >= 2 {
		sum += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// refVerifyUDP is VerifyUDPChecksum as it was: copy the segment, zero the
// checksum field, recompute, compare.
func refVerifyUDP(f *Frame) bool {
	if f.Eth.EtherType != EtherTypeIPv4 || f.IP.Protocol != ProtoUDP {
		return true
	}
	ip := f.Raw[EthernetLen:]
	seg := append([]byte(nil), ip[f.IP.HeaderLen():]...)
	seg[6], seg[7] = 0, 0
	pseudo := uint32(ProtoUDP) + uint32(len(seg))
	for i := 12; i < 20; i += 2 {
		pseudo += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	sum := refChecksum(seg, pseudo)
	if sum == 0 {
		sum = 0xFFFF
	}
	return sum == f.UDP.Checksum
}

func TestChecksumMatchesBytePairLoop(t *testing.T) {
	// Every length 0..9000 (jumbo frame) at every alignment of a shared
	// buffer, so each mix of 32-byte blocks, 8-byte words, pairs and odd tail
	// is hit at each load alignment.
	buf := make([]byte, 9000+8)
	rand.New(rand.NewSource(1)).Read(buf)
	copy(buf[100:], bytes.Repeat([]byte{0xFF}, 300)) // a run that carries at every step
	for _, initial := range []uint32{0, 0xFFFF, 0xFFFFFFFF} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 9000; n++ {
				b := buf[off : off+n]
				if got, want := Checksum(b, initial), refChecksum(b, initial); got != want {
					t.Fatalf("Checksum(len %d at offset %d, initial %#x) = %#04x, byte-pair loop %#04x", n, off, initial, got, want)
				}
			}
		}
	}
	if got := Checksum(nil, 0); got != 0xFFFF {
		t.Errorf("Checksum of nothing = %#04x, want 0xFFFF", got)
	}
}

func TestBuildTrioMLFusedChecksumMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	special := []int32{math.MinInt32, -1, 0, math.MaxInt32, 1}
	spec := testSpec()
	spec.DstPort = TrioMLPort
	for n := 0; n <= MaxGradientsPerPacket; n++ {
		grads := make([]int32, n)
		for i := range grads {
			if grads[i] = int32(rng.Uint32()); rng.Intn(4) == 0 {
				grads[i] = special[rng.Intn(len(special))]
			}
		}
		spec.IPOptions = make([]byte, 4*(n%3)) // move the payload's alignment in the frame
		hdr := TrioML{JobID: uint8(n), BlockID: rng.Uint32(), SrcID: 3, GenID: uint16(n), Degraded: n%2 == 0}
		got := BuildTrioML(spec, hdr, grads)

		// Two passes: marshal header and gradients, then checksum the segment.
		hdr.GradCnt = uint16(n)
		payload := make([]byte, TrioMLHeaderLen+4*n)
		hdr.MarshalTo(payload)
		for i, g := range grads {
			binary.BigEndian.PutUint32(payload[TrioMLHeaderLen+4*i:], uint32(g))
		}
		want := BuildUDP(spec, payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d gradients: fused frame differs from build-then-checksum", n)
		}
		f, err := Decode(got)
		if err != nil || !f.VerifyUDPChecksum() || !refVerifyUDP(f) {
			t.Fatalf("%d gradients: frame does not verify (err %v)", n, err)
		}
	}
}

func TestPutGradientsMatchesLaneLoop(t *testing.T) {
	for n := 0; n <= 70; n++ {
		grads := make([]int32, n)
		want := make([]byte, 4*n)
		for i := range grads {
			grads[i] = int32(0x81020304 * uint32(i+1))
			binary.BigEndian.PutUint32(want[4*i:], uint32(grads[i]))
		}
		got := bytes.Repeat([]byte{0xEE}, 4*n+4)
		if PutGradients(got, grads) != 4*n || !bytes.Equal(got[:4*n], want) || got[4*n] != 0xEE {
			t.Fatalf("PutGradients of %d lanes wrote %x, want %x", n, got, want)
		}
	}
}

// refLanes is the lane-at-a-time int32 reference for the lane kernels: the
// big-endian lanes of b, each plus the matching lane of add (if any),
// wrapping as int32 does.
func refLanes(b, add []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
		if add != nil {
			out[i] += int32(binary.BigEndian.Uint32(add[4*i:]))
		}
	}
	return out
}

// TestAddLanesCarries pins the carry isolation of the two-lane word add:
// sums that carry out of a lane (0x7FFFFFFF+1, 0xFFFFFFFF+1,
// 0x80000000+0x80000000) in the high and the low half of a word, at odd lane
// counts and through the unrolled 64-byte chunks, equal the lane-at-a-time
// add and leave the bytes past the lanes alone.
func TestAddLanesCarries(t *testing.T) {
	pairs := [][2]uint32{{0x7FFFFFFF, 1}, {0xFFFFFFFF, 1}, {0x80000000, 0x80000000}, {0xFFFFFFFF, 0xFFFFFFFF}}
	for _, n := range []int{1, 2, 3, 5, 15, 16, 17, 31, 33} {
		for _, p := range pairs {
			dst, src := bytes.Repeat([]byte{0xDD}, 4*n+4), make([]byte, 4*n)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint32(dst[4*i:], p[i%2])
				binary.BigEndian.PutUint32(src[4*i:], p[(i+1)%2])
			}
			want := refLanes(dst[:4*n], src)
			AddLanes(dst[:4*n], src)
			got := make([]int32, n)
			DecodeLanes(got, dst)
			if !slices.Equal(got, want) || !bytes.Equal(dst[4*n:], []byte{0xDD, 0xDD, 0xDD, 0xDD}) {
				t.Fatalf("n=%d %#x+%#x: got % x, want %x", n, p[0], p[1], dst, want)
			}
		}
	}
}

// FuzzLanes checks both lane kernels against the lane-at-a-time int32
// reference on arbitrary bytes: DecodeLanes reads each lane of a, and
// AddLanes of b into a leaves each lane of a their int32 sum.
func FuzzLanes(f *testing.F) {
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0, 0, 0, 1, 0, 0, 0, 1})
	f.Add([]byte{0x80, 0, 0, 0, 0x80, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0x80, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 132), bytes.Repeat([]byte{0x01}, 132))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := min(len(a), len(b)) &^ 3
		a, b = a[:n], b[:n]
		got := make([]int32, n/4)
		if DecodeLanes(got, a); !slices.Equal(got, refLanes(a, nil)) {
			t.Fatalf("DecodeLanes(% x) = %x", a, got)
		}
		want := refLanes(a, b)
		AddLanes(a, b)
		if DecodeLanes(got, a); !slices.Equal(got, want) {
			t.Fatalf("AddLanes: lanes %x, int32 sums %x", got, want)
		}
	})
}

func TestVerifyUDPChecksumInPlace(t *testing.T) {
	grads := make([]int32, 1024)
	for i := range grads {
		grads[i] = int32(i * 2654435761)
	}
	frame := BuildTrioML(testSpec(), TrioML{JobID: 1, SrcID: 2}, grads)
	f, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), frame...)
	if allocs := testing.AllocsPerRun(100, func() {
		if !f.VerifyUDPChecksum() {
			t.Fatal("a built frame does not verify")
		}
	}); allocs != 0 {
		t.Errorf("VerifyUDPChecksum allocates %v times per frame, want 0", allocs)
	}
	if !bytes.Equal(frame, orig) {
		t.Error("VerifyUDPChecksum modified the frame")
	}

	// Single-bit corruption anywhere in the UDP segment or the pseudo-header
	// addresses must be caught, and agree with the copy-and-zero method.
	udpStart := EthernetLen + f.IP.HeaderLen()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		pos := udpStart + rng.Intn(len(frame)-udpStart)
		if i%10 == 0 {
			pos = udpStart + 6 + i/10%2 // the checksum field itself
		}
		frame[pos] ^= 1 << rng.Intn(8)
		g, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.VerifyUDPChecksum(), refVerifyUDP(g); got != want || got {
			t.Fatalf("bit flip at byte %d: VerifyUDPChecksum %v, copy-and-zero %v, want both false", pos, got, want)
		}
		copy(frame, orig)
	}
}

// TestVerifyUDPChecksumZeroAlias pins RFC 768's special case: a computed
// checksum of zero travels as 0xFFFF, and a stored zero ("no checksum") never
// verifies, as before.
func TestVerifyUDPChecksumZeroAlias(t *testing.T) {
	spec := testSpec()
	for v := 0; v < 1<<16; v++ {
		frame := BuildUDP(spec, []byte{byte(v >> 8), byte(v)})
		f, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if f.UDP.Checksum == 0 || !f.VerifyUDPChecksum() {
			t.Fatalf("payload %#04x: checksum %#04x does not verify", v, f.UDP.Checksum)
		}
		if f.UDP.Checksum != 0xFFFF {
			continue
		}
		frame[EthernetLen+IPv4MinLen+6], frame[EthernetLen+IPv4MinLen+7] = 0, 0
		if f, _ = Decode(frame); f.VerifyUDPChecksum() || refVerifyUDP(f) {
			t.Fatal("a zero checksum field verified")
		}
		return
	}
	t.Fatal("no 2-byte payload produced the all-ones checksum")
}

// refMarshalML and refUnmarshalML are the Trio-ML header codec written by
// name: one string-keyed layout lookup per field. They are the oracle for the
// fixed-offset codec (and keep the by-name path the assembler listings and
// docs use under test).
func refMarshalML(h *TrioML, b []byte) {
	rec := b[:TrioMLHeaderLen]
	clear(rec)
	TrioMLLayout.Put(rec, "job_id", uint64(h.JobID))
	TrioMLLayout.Put(rec, "block_id", uint64(h.BlockID))
	TrioMLLayout.Put(rec, "age_op", uint64(h.AgeOp))
	TrioMLLayout.Put(rec, "final", boolBit(h.Final))
	TrioMLLayout.Put(rec, "degraded", boolBit(h.Degraded))
	TrioMLLayout.Put(rec, "src_id", uint64(h.SrcID))
	TrioMLLayout.Put(rec, "src_cnt", uint64(h.SrcCnt))
	TrioMLLayout.Put(rec, "gen_id", uint64(h.GenID))
	TrioMLLayout.Put(rec, "grad_cnt", uint64(h.GradCnt))
}

func refUnmarshalML(b []byte) TrioML {
	rec := b[:TrioMLHeaderLen]
	return TrioML{
		JobID:    uint8(TrioMLLayout.Get(rec, "job_id")),
		BlockID:  uint32(TrioMLLayout.Get(rec, "block_id")),
		AgeOp:    uint8(TrioMLLayout.Get(rec, "age_op")),
		Final:    TrioMLLayout.Get(rec, "final") != 0,
		Degraded: TrioMLLayout.Get(rec, "degraded") != 0,
		SrcID:    uint8(TrioMLLayout.Get(rec, "src_id")),
		SrcCnt:   uint8(TrioMLLayout.Get(rec, "src_cnt")),
		GenID:    uint16(TrioMLLayout.Get(rec, "gen_id")),
		GradCnt:  uint16(TrioMLLayout.Get(rec, "grad_cnt")),
	}
}

// TestTrioMLCodecMatchesLayoutByName: MarshalTo writes the bytes the by-name
// layout writes, over whatever the buffer held, and Unmarshal reads any 12
// bytes as the by-name layout reads them — at the 4-bit age_op and 12-bit
// grad_cnt edges (values wider than the field truncate the same way) and on
// random headers and random wire bytes, reserved bits set included.
func TestTrioMLCodecMatchesLayoutByName(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	hdrs := []TrioML{
		{},
		{AgeOp: 0xF, GradCnt: 0xFFF},
		{AgeOp: 0x10, GradCnt: 0x1000}, // one past each field: truncates to zero
		{AgeOp: 0xFF, GradCnt: 0xFFFF, Final: true, Degraded: true},
		{JobID: 0xFF, BlockID: math.MaxUint32, SrcID: 0xFF, SrcCnt: 0xFF, GenID: 0xFFFF},
		{AgeOp: 8, Final: true, GradCnt: 0x800},
		{AgeOp: 1, Degraded: true, GradCnt: 1},
	}
	for i := 0; i < 2000; i++ {
		hdrs = append(hdrs, TrioML{
			JobID: uint8(rng.Uint32()), BlockID: rng.Uint32(), AgeOp: uint8(rng.Uint32()),
			Final: rng.Intn(2) == 0, Degraded: rng.Intn(2) == 0, SrcID: uint8(rng.Uint32()),
			SrcCnt: uint8(rng.Uint32()), GenID: uint16(rng.Uint32()), GradCnt: uint16(rng.Uint32()),
		})
	}
	got, want := make([]byte, TrioMLHeaderLen+2), make([]byte, TrioMLHeaderLen+2)
	for _, h := range hdrs {
		rng.Read(got) // stale bytes the marshal must overwrite, and two it must not touch
		copy(want, got)
		if n := h.MarshalTo(got); n != TrioMLHeaderLen {
			t.Fatalf("MarshalTo = %d", n)
		}
		refMarshalML(&h, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: codec wrote %x, names %x", h, got, want)
		}
	}
	wire := make([]byte, TrioMLHeaderLen)
	for i := 0; i < 2000; i++ {
		rng.Read(wire)
		var h TrioML
		if rest, err := h.Unmarshal(wire); err != nil || len(rest) != 0 {
			t.Fatalf("Unmarshal: %v, %d bytes left", err, len(rest))
		}
		if want := refUnmarshalML(wire); h != want {
			t.Fatalf("%x: codec read %+v, names %+v", wire, h, want)
		}
	}
	var h TrioML
	if a := testing.AllocsPerRun(100, func() { h.MarshalTo(wire); h.Unmarshal(wire) }); a != 0 {
		t.Fatalf("header round trip allocates %.1f times", a)
	}
}

// TestTrioMLCodecFieldOffsets: the offsets MarshalTo and Unmarshal hard-code
// are TrioMLLayout's. A header with one field all ones marshals to exactly
// the bits [Offset, Offset+Width) the layout gives that field, and those bits
// unmarshal to that header; the named fields and Fig. 8's six reserved bits
// tile the header.
func TestTrioMLCodecFieldOffsets(t *testing.T) {
	fields := []struct {
		name string
		h    TrioML
	}{
		{"job_id", TrioML{JobID: 0xFF}},
		{"block_id", TrioML{BlockID: math.MaxUint32}},
		{"age_op", TrioML{AgeOp: 0xF}},
		{"final", TrioML{Final: true}},
		{"degraded", TrioML{Degraded: true}},
		{"src_id", TrioML{SrcID: 0xFF}},
		{"src_cnt", TrioML{SrcCnt: 0xFF}},
		{"gen_id", TrioML{GenID: 0xFFFF}},
		{"grad_cnt", TrioML{GradCnt: 0xFFF}},
	}
	bits := uint(6)
	for _, f := range fields {
		off, width := TrioMLLayout.Offset(f.name), TrioMLLayout.Width(f.name)
		want := make([]byte, TrioMLHeaderLen)
		for i := off; i < off+width; i++ {
			want[i/8] |= 0x80 >> (i % 8)
		}
		got := make([]byte, TrioMLHeaderLen)
		f.h.MarshalTo(got)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: marshals to %x, layout bits [%d,%d) are %x", f.name, got, off, off+width, want)
		}
		var back TrioML
		if _, err := back.Unmarshal(want); err != nil || back != f.h {
			t.Errorf("%s: layout bits [%d,%d) unmarshal to %+v (%v)", f.name, off, off+width, back, err)
		}
		bits += width
	}
	if bits != TrioMLLayout.Bits() {
		t.Errorf("fields and reserved bits cover %d bits, the layout has %d", bits, TrioMLLayout.Bits())
	}
}

func fuzzSeeds(f *testing.F) {
	spec := testSpec()
	opts := spec
	opts.IPOptions = []byte{1, 1, 1, 1}
	f.Add(BuildTrioML(spec, TrioML{JobID: 1, BlockID: 7, SrcID: 2, GenID: 3}, []int32{1, -1, math.MinInt32}))
	f.Add(BuildTrioML(opts, TrioML{JobID: 9, Degraded: true, AgeOp: 2}, make([]int32, 64)))
	f.Add(BuildUDP(spec, []byte("hello")))
	f.Add(BuildUDP(spec, nil))
	f.Add(BuildNetRPC(spec, NetRPC{Op: 1, ClientID: 4, Method: 2, RPCID: 99}, []byte{1, 2, 3}))
	f.Add([]byte{})
}

// FuzzDecode: the wire decoder never panics; a frame it accepts as Trio-ML
// re-marshals, layer by layer, to the bytes it was decoded from (but for the
// header's reserved bits and the 0xFFFF alias of a zero IP checksum, which
// marshalling canonicalizes); and the in-place UDP verification agrees with
// copy-zero-recompute.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fr Frame
		if err := DecodeInto(&fr, raw); err != nil {
			return
		}
		if fr.Eth.EtherType == EtherTypeIPv4 && fr.IP.Protocol == ProtoUDP {
			if got, want := fr.VerifyUDPChecksum(), refVerifyUDP(&fr); got != want {
				t.Fatalf("VerifyUDPChecksum %v, copy-and-zero %v", got, want)
			}
		}
		if !fr.IsTrioML() {
			return
		}
		want := append([]byte(nil), raw...)
		ip := want[EthernetLen:]
		if binary.BigEndian.Uint16(ip[10:12]) == 0xFFFF {
			ip[10], ip[11] = 0, 0
		}
		ml := ip[fr.IP.HeaderLen()+UDPLen:]
		ml[5] &^= 0x03
		ml[10] &^= 0xF0

		got := make([]byte, len(raw))
		n := fr.Eth.MarshalTo(got)
		n += fr.IP.MarshalTo(got[n:])
		n += fr.UDP.MarshalTo(got[n:])
		n += fr.ML.MarshalTo(got[n:])
		if n+len(fr.Payload) != len(raw) {
			t.Fatalf("headers %d + payload %d != frame %d", n, len(fr.Payload), len(raw))
		}
		copy(got[n:], fr.Payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("re-marshalled frame differs:\n got  %x\n want %x", got, want)
		}
	})
}

// FuzzChecksum: the word-folding kernel equals the byte-pair loop on any
// bytes, any initial sum, and any alignment of the slice.
func FuzzChecksum(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var initial uint32
		if len(b) >= 4 {
			initial = binary.LittleEndian.Uint32(b)
		}
		for off := 0; off < 8 && off <= len(b); off++ {
			if got, want := Checksum(b[off:], initial), refChecksum(b[off:], initial); got != want {
				t.Fatalf("Checksum(%d bytes at offset %d, initial %#x) = %#04x, byte-pair loop %#04x", len(b)-off, off, initial, got, want)
			}
		}
	})
}

// FuzzNetRPCHeader: the netrpc_hdr_t decoder never panics, rejects exactly
// the inputs shorter than the header, and decode -> encode -> decode is the
// identity: the re-marshalled header equals the wire bytes it came from (the
// layout has no reserved bits) and decodes to the same struct.
func FuzzNetRPCHeader(f *testing.F) {
	fuzzSeeds(f)
	hdr := make([]byte, NetRPCHeaderLen)
	(&NetRPC{Op: NetRPCResponse, Flags: NetRPCFlagCached, ClientID: 7, Method: 3, PayloadLen: 2, RPCID: 1 << 63}).MarshalTo(hdr)
	f.Add(append(hdr, 0xAA, 0xBB))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h NetRPC
		rest, err := h.Unmarshal(b)
		if (err != nil) != (len(b) < NetRPCHeaderLen) {
			t.Fatalf("%d bytes: err %v", len(b), err)
		}
		if err != nil {
			return
		}
		if len(rest) != len(b)-NetRPCHeaderLen {
			t.Fatalf("rest %d of %d bytes", len(rest), len(b))
		}
		out := make([]byte, NetRPCHeaderLen)
		if n := h.MarshalTo(out); n != NetRPCHeaderLen || !bytes.Equal(out, b[:NetRPCHeaderLen]) {
			t.Fatalf("re-marshalled %x (%d bytes), decoded from %x", out, n, b[:NetRPCHeaderLen])
		}
		var again NetRPC
		if _, err := again.Unmarshal(out); err != nil || again != h {
			t.Fatalf("second decode %+v (%v), first %+v", again, err, h)
		}
	})
}

// FuzzRetryAfter: a retry-after NACK body — the echoed Trio-ML header and the
// 4-byte record behind it — decodes without panicking from any bytes, and
// what decodes survives BuildRetryAfter: the control packet carries the same
// job, block and generation, the reason in age_op (its low four bits), the
// control source id, no gradients, and the same back-off.
func FuzzRetryAfter(f *testing.F) {
	fuzzSeeds(f)
	f.Add(BuildRetryAfter(TrioML{JobID: 7, BlockID: 42, GenID: 9, SrcID: 3, GradCnt: 128}, RetryReasonQuota, 25))
	f.Add(BuildRetryAfter(TrioML{Final: true, Degraded: true}, RetryReasonOverload, math.MaxUint32))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h TrioML
		rest, err := h.Unmarshal(b)
		if err != nil {
			return
		}
		var ra RetryAfter
		tail, err := ra.Unmarshal(rest)
		if (err != nil) != (len(rest) < RetryAfterLen) {
			t.Fatalf("%d record bytes: err %v", len(rest), err)
		}
		if err != nil {
			return
		}
		if len(tail) != len(rest)-RetryAfterLen {
			t.Fatalf("tail %d of %d bytes", len(tail), len(rest))
		}
		nack := BuildRetryAfter(h, h.AgeOp, ra.Millis)
		var h2 TrioML
		var ra2 RetryAfter
		rest2, err := h2.Unmarshal(nack)
		if err == nil {
			_, err = ra2.Unmarshal(rest2)
		}
		want := h
		want.SrcID, want.GradCnt = CtrlSrcID, 0
		if err != nil || h2 != want || ra2 != ra {
			t.Fatalf("rebuilt NACK decodes to %+v %+v (%v), want %+v %+v", h2, ra2, err, want, ra)
		}
	})
}

var sinkSum uint16

func BenchmarkChecksum4K(b *testing.B) {
	frame := BuildTrioML(testSpec(), TrioML{JobID: 1}, make([]int32, 1024))
	for _, side := range []struct {
		name string
		sum  func([]byte, uint32) uint16
	}{{"kernel", Checksum}, {"bytepair", refChecksum}} {
		b.Run(side.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				sinkSum += side.sum(frame, 0)
			}
		})
	}
}

var sinkFrame []byte

func BenchmarkBuildTrioML1024(b *testing.B) {
	grads := make([]int32, 1024)
	spec, hdr := testSpec(), TrioML{JobID: 1, SrcID: 1, GenID: 1}
	b.ReportAllocs()
	for b.Loop() {
		sinkFrame = BuildTrioML(spec, hdr, grads)
	}
}

var sinkML TrioML

// BenchmarkTrioMLHeaderCodec times one MarshalTo and one Unmarshal of a
// header, which must allocate nothing.
func BenchmarkTrioMLHeaderCodec(b *testing.B) {
	h := TrioML{JobID: 3, BlockID: 77, AgeOp: 2, Final: true, SrcID: 5, SrcCnt: 6, GenID: 9, GradCnt: 1024}
	buf := make([]byte, TrioMLHeaderLen)
	if a := testing.AllocsPerRun(100, func() { h.MarshalTo(buf); sinkML.Unmarshal(buf) }); a != 0 {
		b.Fatalf("header round trip allocates %.1f times", a)
	}
	for b.Loop() {
		h.BlockID++
		h.MarshalTo(buf)
		sinkML.Unmarshal(buf)
	}
}

func BenchmarkChecksum20(b *testing.B) {
	hdr := BuildUDP(testSpec(), nil)[EthernetLen : EthernetLen+IPv4MinLen]
	for _, side := range []struct {
		name string
		sum  func([]byte, uint32) uint16
	}{{"kernel", Checksum}, {"bytepair", refChecksum}} {
		b.Run(side.name, func(b *testing.B) {
			for b.Loop() {
				sinkSum += side.sum(hdr, 0)
			}
		})
	}
}
