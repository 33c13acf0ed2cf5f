//go:build linux

package hostagg

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"testing"
)

// cmsg builds one control message the way the kernel lays it out: native
// cmsg_len, level, type, data, padded to the word size.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	putWord(b, uint64(syscall.CmsgLen(len(data))))
	binary.NativeEndian.PutUint32(b[wordSize:], uint32(level))
	binary.NativeEndian.PutUint32(b[wordSize+4:], uint32(typ))
	copy(b[syscall.CmsgLen(0):], data)
	return b
}

// groCmsg is the UDP_GRO message a coalesced read carries: an int segment size.
func groCmsg(seg int32) []byte {
	return cmsg(syscall.IPPROTO_UDP, udpGRO, binary.NativeEndian.AppendUint32(nil, uint32(seg)))
}

func TestGROSegmentSize(t *testing.T) {
	ts := cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, make([]byte, 16))
	for _, tc := range []struct {
		name string
		oob  []byte
		want int
	}{
		{"none", nil, 0},
		{"gro", groCmsg(144), 144},
		{"after another message", append(ts, groCmsg(4112)...), 4112},
		{"only another message", ts, 0},
		{"negative size", groCmsg(-5), 0},
		{"truncated data", groCmsg(144)[:syscall.CmsgLen(2)], 0},
		{"udp segment, not gro", putSegmentSize(make([]byte, 64), 144), 0},
	} {
		if got := groSegmentSize(tc.oob); got != tc.want {
			t.Errorf("%s: groSegmentSize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// FuzzGROSplit feeds the control-message parser and the splitter arbitrary
// out-of-band bytes and payloads, as a receive loop does with every read:
// neither may panic, the size is never negative, every datagram but the last
// is exactly one segment, and the datagrams re-concatenate to the payload.
// The seed corpus in testdata/fuzz/FuzzGROSplit adds hand-made boundaries:
// cmsg_len zero, shorter than the header and past the end, a second message
// after an odd-length first, a segment longer than the payload.
func FuzzGROSplit(f *testing.F) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 60)
	f.Add(groCmsg(144), payload)
	f.Add(append(cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, make([]byte, 16)), groCmsg(100)...), payload)
	f.Add(groCmsg(0), payload)
	f.Add(groCmsg(1<<20), payload)
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, oob, payload []byte) {
		seg := groSegmentSize(oob)
		if seg < 0 {
			t.Fatalf("segment size %d", seg)
		}
		var joined []byte
		for p := payload; ; {
			var d []byte
			d, p = nextSegment(p, seg)
			if len(p) > 0 && len(d) != seg {
				t.Fatalf("%d-byte datagram in mid-buffer, segment size %d", len(d), seg)
			}
			joined = append(joined, d...)
			if len(p) == 0 {
				break
			}
		}
		if !bytes.Equal(joined, payload) {
			t.Fatalf("datagrams re-join to %d bytes, payload was %d", len(joined), len(payload))
		}
	})
}
