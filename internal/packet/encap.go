package packet

import (
	"encoding/binary"
	"fmt"
)

// Encapsulation layers beyond the Trio-ML fast path. Trio's PPEs parse and
// rewrite arbitrary header stacks in a run-to-completion pass — the §8
// comparison with dRMT singles out MPLS-encapsulated packets, whose inner
// headers depend on lookup results, as a case where pipeline architectures
// must recirculate while Trio simply keeps executing. These layers exist so
// examples and tests can build such stacks.

// EtherTypes for the encapsulation layers.
const (
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeMPLS uint16 = 0x8847
)

// VLAN is an 802.1Q tag.
type VLAN struct {
	PCP       uint8  // 3-bit priority code point
	DEI       bool   // drop eligible indicator
	VID       uint16 // 12-bit VLAN id
	EtherType uint16 // encapsulated protocol
}

// VLANLen is the serialized 802.1Q tag size.
const VLANLen = 4

func (v *VLAN) HeaderLen() int { return VLANLen }

func (v *VLAN) MarshalTo(b []byte) int {
	tci := uint16(v.PCP&0x7) << 13
	if v.DEI {
		tci |= 1 << 12
	}
	tci |= v.VID & 0x0FFF
	binary.BigEndian.PutUint16(b[0:2], tci)
	binary.BigEndian.PutUint16(b[2:4], v.EtherType)
	return VLANLen
}

func (v *VLAN) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < VLANLen {
		return nil, fmt.Errorf("vlan: %w (%d bytes)", ErrTruncated, len(b))
	}
	tci := binary.BigEndian.Uint16(b[0:2])
	v.PCP = uint8(tci >> 13)
	v.DEI = tci&(1<<12) != 0
	v.VID = tci & 0x0FFF
	v.EtherType = binary.BigEndian.Uint16(b[2:4])
	return b[VLANLen:], nil
}

// MPLSLabel is one entry of an MPLS label stack.
type MPLSLabel struct {
	Label  uint32 // 20 bits
	TC     uint8  // 3-bit traffic class
	Bottom bool   // bottom-of-stack flag
	TTL    uint8
}

// MPLSLabelLen is the serialized label-stack-entry size.
const MPLSLabelLen = 4

func (m *MPLSLabel) HeaderLen() int { return MPLSLabelLen }

func (m *MPLSLabel) MarshalTo(b []byte) int {
	v := m.Label&0xFFFFF<<12 | uint32(m.TC&0x7)<<9 | uint32(m.TTL)
	if m.Bottom {
		v |= 1 << 8
	}
	binary.BigEndian.PutUint32(b[0:4], v)
	return MPLSLabelLen
}

func (m *MPLSLabel) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < MPLSLabelLen {
		return nil, fmt.Errorf("mpls: %w (%d bytes)", ErrTruncated, len(b))
	}
	v := binary.BigEndian.Uint32(b[0:4])
	m.Label = v >> 12
	m.TC = uint8(v >> 9 & 0x7)
	m.Bottom = v&(1<<8) != 0
	m.TTL = uint8(v)
	return b[MPLSLabelLen:], nil
}

// MPLSStack parses a full label stack from b, stopping after the
// bottom-of-stack entry, and returns the stack and the remaining bytes.
func MPLSStack(b []byte) ([]MPLSLabel, []byte, error) {
	var stack []MPLSLabel
	for {
		var l MPLSLabel
		rest, err := l.Unmarshal(b)
		if err != nil {
			return nil, nil, fmt.Errorf("label %d: %w", len(stack), err)
		}
		stack = append(stack, l)
		b = rest
		if l.Bottom {
			return stack, b, nil
		}
		if len(stack) > 16 {
			return nil, nil, fmt.Errorf("mpls: label stack exceeds 16 entries without bottom-of-stack")
		}
	}
}

// PushMPLS prepends a label stack and an MPLS Ethernet header to an inner
// IPv4 packet (the bytes after an Ethernet header), producing a full frame.
func PushMPLS(dst, src MAC, stack []MPLSLabel, inner []byte) []byte {
	if len(stack) == 0 {
		panic("packet: empty MPLS stack")
	}
	frame := make([]byte, EthernetLen+MPLSLabelLen*len(stack)+len(inner))
	eth := Ethernet{Dst: dst, Src: src, EtherType: EtherTypeMPLS}
	off := eth.MarshalTo(frame)
	for i := range stack {
		stack[i].Bottom = i == len(stack)-1
		off += stack[i].MarshalTo(frame[off:])
	}
	copy(frame[off:], inner)
	return frame
}

// PushVLAN inserts an 802.1Q tag into frame after its Ethernet header.
func PushVLAN(frame []byte, tag VLAN) []byte {
	var eth Ethernet
	rest, err := eth.Unmarshal(frame)
	if err != nil {
		panic(fmt.Sprintf("packet: PushVLAN on invalid frame: %v", err))
	}
	tag.EtherType = eth.EtherType
	eth.EtherType = EtherTypeVLAN
	out := make([]byte, len(frame)+VLANLen)
	off := eth.MarshalTo(out)
	off += tag.MarshalTo(out[off:])
	copy(out[off:], rest)
	return out
}

// DecodeEncap decodes a frame that may carry VLAN tags and an MPLS stack in
// front of IPv4, returning the tags, stack, and the decoded inner frame
// layers. It demonstrates the run-to-completion parse: the loop keeps
// consuming headers until it reaches a protocol it knows, however deep.
type Encap struct {
	Eth   Ethernet
	VLANs []VLAN
	MPLS  []MPLSLabel
	IP    *IPv4
	UDP   *UDP
	Rest  []byte
}

// DecodeEncap parses an encapsulated frame.
func DecodeEncap(raw []byte) (*Encap, error) {
	e := &Encap{}
	rest, err := e.Eth.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	etype := e.Eth.EtherType
	for etype == EtherTypeVLAN {
		var v VLAN
		if rest, err = v.Unmarshal(rest); err != nil {
			return nil, err
		}
		e.VLANs = append(e.VLANs, v)
		etype = v.EtherType
	}
	if etype == EtherTypeMPLS {
		var stack []MPLSLabel
		if stack, rest, err = MPLSStack(rest); err != nil {
			return nil, err
		}
		e.MPLS = stack
		// Below the bottom of an MPLS stack the payload type is implicit;
		// IPv4 is sniffed from the version nibble, as forwarding code does.
		if len(rest) > 0 && rest[0]>>4 == 4 {
			etype = EtherTypeIPv4
		} else {
			e.Rest = rest
			return e, nil
		}
	}
	if etype != EtherTypeIPv4 {
		e.Rest = rest
		return e, nil
	}
	var ip IPv4
	if rest, err = ip.Unmarshal(rest); err != nil {
		return nil, err
	}
	e.IP = &ip
	if ip.Protocol == ProtoUDP {
		var u UDP
		if rest, err = u.Unmarshal(rest); err != nil {
			return nil, err
		}
		e.UDP = &u
	}
	e.Rest = rest
	return e, nil
}
