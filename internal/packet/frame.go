package packet

import (
	"encoding/binary"
	"fmt"
)

// Frame is a fully decoded Ethernet/IPv4/UDP packet, with the Trio-ML header
// additionally decoded when the UDP destination port matches TrioMLPort.
type Frame struct {
	Eth     Ethernet
	IP      IPv4
	UDP     UDP
	ML      *TrioML // nil unless a Trio-ML aggregation packet
	Payload []byte  // bytes after the innermost decoded header (view into Raw)
	Raw     []byte  // the complete frame

	mlBuf TrioML // storage ML points at, so DecodeInto reuse allocates nothing
}

// UDPSpec names the endpoints of a UDP packet to build. Every built frame
// carries zero Ethernet addresses: the simulated links deliver by port.
type UDPSpec struct {
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	TTL              uint8 // 0 means 64
	IPOptions        []byte
}

// udpRoom allocates and header-fills a frame with room for payloadLen bytes
// of UDP payload, returning the frame, the payload view, and the header
// offsets finishUDP needs. Callers write the payload in place and then call
// finishUDP — one allocation per frame, no payload staging copy.
func udpRoom(spec UDPSpec, payloadLen int) (buf, payload []byte, ipStart, udpStart int) {
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip := IPv4{
		TTL:      ttl,
		Protocol: ProtoUDP,
		Src:      spec.SrcIP,
		Dst:      spec.DstIP,
		Options:  spec.IPOptions,
	}
	udp := UDP{
		SrcPort: spec.SrcPort,
		DstPort: spec.DstPort,
		Length:  uint16(UDPLen + payloadLen),
	}
	ip.TotalLen = uint16(ip.HeaderLen() + UDPLen + payloadLen)
	eth := Ethernet{EtherType: EtherTypeIPv4}

	buf = make([]byte, EthernetLen+int(ip.TotalLen))
	off := eth.MarshalTo(buf)
	ipStart = off
	off += ip.MarshalTo(buf[off:])
	udpStart = off
	off += udp.MarshalTo(buf[off:])
	return buf, buf[off:], ipStart, udpStart
}

// finishUDP stores the UDP checksum once the payload is in place. A caller
// that summed the last tailLen bytes of the segment as it wrote them passes
// that partial sum as tail (tailLen even, so the 16-bit words stay aligned);
// the bytes before them are summed here.
func finishUDP(buf []byte, ipStart, udpStart int, tail uint64, tailLen int) {
	seg := buf[udpStart:]
	acc := sum16(seg[:len(seg)-tailLen], tail+pseudoSum(buf[ipStart:], len(seg)))
	binary.BigEndian.PutUint16(seg[6:8], udpChecksum(acc))
}

// BuildUDP serializes a complete Ethernet/IPv4/UDP frame around payload,
// filling in lengths and both checksums.
func BuildUDP(spec UDPSpec, payload []byte) []byte {
	buf, room, ipStart, udpStart := udpRoom(spec, len(payload))
	copy(room, payload)
	finishUDP(buf, ipStart, udpStart, 0, 0)
	return buf
}

// BuildTrioML serializes a Trio-ML aggregation packet: UDP payload is the
// 12-byte trio_ml_hdr_t followed by hdr.GradCnt big-endian int32 gradients.
// If hdr.GradCnt is zero it is set from len(grads). The gradients are
// marshalled straight into the frame's gradient room, summed for the UDP
// checksum as they are written so the payload is traversed once.
func BuildTrioML(spec UDPSpec, hdr TrioML, grads []int32) []byte {
	frame, room := TrioMLFrame(spec, hdr, len(grads))
	setUDPChecksum(frame, putGradients(room, grads), len(room))
	return frame
}

// TrioMLFrame lays out a Trio-ML frame with room for grads gradients: every
// header is in place (hdr.GradCnt set from grads when zero) and room is the
// frame's gradient bytes, left for the caller to fill before SetUDPChecksum
// finishes the frame. The frame is the one allocation.
func TrioMLFrame(spec UDPSpec, hdr TrioML, grads int) (frame, room []byte) {
	if grads > MaxGradientsPerPacket {
		panic(fmt.Sprintf("packet: %d gradients exceeds max %d per packet", grads, MaxGradientsPerPacket))
	}
	if hdr.GradCnt == 0 {
		hdr.GradCnt = uint16(grads)
	}
	if spec.DstPort == 0 {
		spec.DstPort = TrioMLPort
	}
	frame, payload, _, _ := udpRoom(spec, TrioMLHeaderLen+4*grads)
	hdr.MarshalTo(payload)
	return frame, payload[TrioMLHeaderLen:]
}

// SetUDPChecksum stores the UDP checksum of a frame TrioMLFrame laid out,
// once, after its gradient room is filled.
func SetUDPChecksum(frame []byte) { setUDPChecksum(frame, 0, 0) }

// setUDPChecksum is SetUDPChecksum for a caller that summed the segment's
// last tailLen bytes as it wrote them (see finishUDP).
func setUDPChecksum(frame []byte, tail uint64, tailLen int) {
	udpStart := EthernetLen + 4*int(frame[EthernetLen]&0x0f)
	finishUDP(frame, EthernetLen, udpStart, tail, tailLen)
}

// pseudoSum is the partial checksum of the UDP pseudo-header: the addresses
// from the serialized IP header, the protocol, and the segment length.
func pseudoSum(ipHdr []byte, segLen int) uint64 {
	return sum16(ipHdr[12:20], uint64(ProtoUDP)+uint64(segLen))
}

// udpChecksum folds the partial sum of pseudo-header and segment into the
// checksum as UDP transmits it.
func udpChecksum(acc uint64) uint16 {
	if csum := ^fold(acc); csum != 0 {
		return csum
	}
	return 0xFFFF // RFC 768: transmitted all-ones when computed zero
}

// Decode parses a complete Ethernet frame. Non-IPv4 and non-UDP packets
// decode successfully with Payload holding the undecoded remainder; header
// corruption returns an error identifying the failing layer.
func Decode(raw []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeInto(f, raw); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses raw into f, reusing f's storage — the per-packet
// allocation-free variant of Decode for hot receive paths. On error f's
// contents are unspecified.
func DecodeInto(f *Frame, raw []byte) error {
	f.ML = nil
	f.Raw = raw
	rest, err := f.Eth.Unmarshal(raw)
	if err != nil {
		return err
	}
	f.Payload = rest
	if f.Eth.EtherType != EtherTypeIPv4 {
		return nil
	}
	if rest, err = f.IP.Unmarshal(rest); err != nil {
		return err
	}
	f.Payload = rest
	if f.IP.Protocol != ProtoUDP {
		return nil
	}
	if rest, err = f.UDP.Unmarshal(rest); err != nil {
		return err
	}
	f.Payload = rest
	if f.UDP.DstPort == TrioMLPort {
		if rest, err = f.mlBuf.Unmarshal(rest); err != nil {
			return err
		}
		f.ML = &f.mlBuf
		f.Payload = rest
	}
	return nil
}

// IsTrioML reports whether the frame carries a Trio-ML aggregation header.
func (f *Frame) IsTrioML() bool { return f.ML != nil }

// VerifyUDPChecksum recomputes the UDP checksum of a decoded frame and
// reports whether it matches. Frames without UDP report true. The segment is
// summed in place, as received: adding the complement of the checksum word
// takes that word back out (in one's-complement arithmetic x + ^x is zero),
// which leaves the sum the sender computed over a zeroed field.
func (f *Frame) VerifyUDPChecksum() bool {
	if f.Eth.EtherType != EtherTypeIPv4 || f.IP.Protocol != ProtoUDP {
		return true
	}
	ipStart := EthernetLen
	seg := f.Raw[ipStart+f.IP.HeaderLen():]
	sent := binary.BigEndian.Uint16(seg[6:8])
	return udpChecksum(sum16(seg, pseudoSum(f.Raw[ipStart:], len(seg))+uint64(^sent))) == f.UDP.Checksum
}
