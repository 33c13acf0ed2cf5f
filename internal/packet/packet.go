// Package packet implements the wire formats used throughout the Trio
// reproduction: Ethernet, IPv4, UDP, and the Trio-ML aggregation header of
// Fig. 7/8. The design follows gopacket's layered model — each header is a
// typed layer that can decode itself from bytes and serialize itself back —
// but only carries the protocols this system needs, implemented on the
// standard library alone.
//
// Both the simulated data path (internal/trio, internal/trioml) and the real
// UDP host aggregator (internal/hostagg) use these exact bytes, so a packet
// built for the simulator can be replayed on a socket unchanged.
package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// EtherType values understood by the decoders.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers understood by the decoders.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TrioMLPort is the pre-defined UDP destination port that addresses
// aggregation packets to the router (the paper uses 12000 as its example).
const TrioMLPort = 12000

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v, useful for generating
// stable test and simulation addresses.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// Checksum computes the RFC 1071 Internet checksum over b with an initial
// partial sum (used to fold in the UDP pseudo-header).
func Checksum(b []byte, initial uint32) uint16 {
	return ^fold(sum16(b, uint64(initial)))
}

// sum16 adds b's big-endian 16-bit words (an odd last byte padded with zero)
// to acc without folding. The bulk is summed 8 bytes per add-with-carry, 32
// bytes per step: 2^16 ≡ 1 (mod 0xFFFF), so a 64-bit word is congruent to the
// sum of its 16-bit pieces and a carry out of bit 63 to one more 1 (the
// end-around carries are counted and added back last). The words are loaded
// little-endian, which needs no byte swap per load: the one's-complement sum
// of byte-swapped words is the byte-swapped sum (RFC 1071 §2B), so one swap
// of the folded total puts it back in network order.
func sum16(b []byte, acc uint64) uint64 {
	var sum, carries uint64
	for len(b) >= 32 {
		var c uint64
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b), 0)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:]), c)
		carries += c
		b = b[32:]
	}
	acc += uint64(bits.ReverseBytes16(fold(sum>>32 + sum&0xFFFFFFFF + carries)))
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		acc += v>>32 + v&0xFFFFFFFF
		b = b[8:]
	}
	for len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	return acc
}

// fold reduces a partial sum to 16 bits with end-around carry.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xFFFFFFFF
	for acc > 0xFFFF {
		acc = acc>>16 + acc&0xFFFF
	}
	return uint16(acc)
}
