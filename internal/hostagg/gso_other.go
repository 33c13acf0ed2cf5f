//go:build !linux

package hostagg

import (
	"net"
	"net/netip"
)

// gsoSupported reports whether the kernel can take a run of equal-sized
// datagrams in one write. Off Linux every batch run is one datagram.
const gsoSupported = false

func enableGRO(*net.UDPConn) {}

func gsoRefused(error) bool { return false }

// groSegmentSize is 0: without UDP_GRO every read is one datagram.
func groSegmentSize([]byte) int { return 0 }

// runWriter is how a batch reaches conn. Batches here never form runs, so
// seg is always 0 and p is one datagram; an invalid to writes on a connected
// socket.
func runWriter(conn *net.UDPConn) func(p []byte, seg int, to netip.AddrPort) error {
	return func(p []byte, _ int, to netip.AddrPort) error {
		var err error
		if to.IsValid() {
			_, err = conn.WriteToUDPAddrPort(p, to)
		} else {
			_, err = conn.Write(p)
		}
		return err
	}
}
