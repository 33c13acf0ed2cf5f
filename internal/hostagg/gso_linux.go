//go:build linux

package hostagg

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"net"
	"net/netip"
	"syscall"
)

// gsoSupported reports whether the kernel can take a run of equal-sized
// datagrams in one write (UDP generic segmentation offload).
const gsoSupported = true

// udpSegment and udpGRO are UDP_SEGMENT and UDP_GRO from linux/udp.h; the
// frozen syscall package predates both.
const (
	udpSegment = 103
	udpGRO     = 104
)

// wordSize is sizeof(long): the width of cmsg_len and the alignment of every
// control message.
const wordSize = bits.UintSize / 8

// enableGRO asks the kernel to hand conn coalesced runs — one buffer plus a
// UDP_GRO control message carrying the segment size — instead of cutting a
// GSO run back into datagrams. A kernel without UDP_GRO refuses, and the
// socket keeps receiving one datagram per read, which its reader handles the
// same way.
func enableGRO(conn *net.UDPConn) {
	if rc, err := conn.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
		})
	}
}

// gsoRefused reports whether a GSO write failed because the path cannot do
// GSO at all — EIO from a device without checksum offload, EINVAL or
// ENOPROTOOPT from a kernel without UDP_SEGMENT — rather than for a reason
// the same datagrams would also hit one at a time.
func gsoRefused(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOPROTOOPT)
}

// runWriter is how a batch reaches conn: p goes out as one datagram, or, with
// seg > 0, as one GSO run the kernel cuts into seg-byte datagrams (the last
// may be shorter). An invalid to writes on a connected socket. The control
// message is built in a buffer the writer owns, so a writer belongs to one
// goroutine at a time, like its batch.
func runWriter(conn *net.UDPConn) func(p []byte, seg int, to netip.AddrPort) error {
	oob := make([]byte, syscall.CmsgSpace(2))
	return func(p []byte, seg int, to netip.AddrPort) error {
		var err error
		switch {
		case seg > 0 && to.IsValid():
			_, _, err = conn.WriteMsgUDPAddrPort(p, putSegmentSize(oob, seg), to)
		case seg > 0:
			_, _, err = conn.WriteMsgUDP(p, putSegmentSize(oob, seg), nil)
		case to.IsValid():
			_, err = conn.WriteToUDPAddrPort(p, to)
		default:
			_, err = conn.Write(p)
		}
		return err
	}
}

// putSegmentSize writes the UDP_SEGMENT control message for seg-byte
// segments into oob, which has room for it, and returns it.
func putSegmentSize(oob []byte, seg int) []byte {
	oob = oob[:syscall.CmsgSpace(2)]
	clear(oob)
	putWord(oob, uint64(syscall.CmsgLen(2)))
	binary.NativeEndian.PutUint32(oob[wordSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(oob[wordSize+4:], udpSegment)
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	return oob
}

// groSegmentSize walks the control messages a read returned and reports the
// segment size of a coalesced run (the UDP_GRO message's int), or 0 when
// there is none and the buffer is one datagram. Malformed input — a length
// shorter than the header or past the end, a truncated payload — ends the
// walk with 0 rather than a panic.
func groSegmentSize(oob []byte) int {
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		n := word(oob)
		if n < uint64(hdr) || n > uint64(len(oob)) {
			return 0
		}
		level := int32(binary.NativeEndian.Uint32(oob[wordSize:]))
		typ := int32(binary.NativeEndian.Uint32(oob[wordSize+4:]))
		if level == syscall.IPPROTO_UDP && typ == udpGRO && n >= uint64(syscall.CmsgLen(4)) {
			return max(int(int32(binary.NativeEndian.Uint32(oob[hdr:]))), 0)
		}
		next := (n + wordSize - 1) &^ (wordSize - 1)
		if next >= uint64(len(oob)) {
			return 0
		}
		oob = oob[next:]
	}
	return 0
}

// word and putWord read and write a native cmsg_len.
func word(b []byte) uint64 {
	if wordSize == 8 {
		return binary.NativeEndian.Uint64(b)
	}
	return uint64(binary.NativeEndian.Uint32(b))
}

func putWord(b []byte, v uint64) {
	if wordSize == 8 {
		binary.NativeEndian.PutUint64(b, v)
	} else {
		binary.NativeEndian.PutUint32(b, uint32(v))
	}
}
