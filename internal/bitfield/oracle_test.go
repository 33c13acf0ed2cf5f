package bitfield

import (
	"bytes"
	"testing"
)

// getLoop and putLoop are Get and Put as they stood before the word window:
// a byte-aligned fast path and a byte-at-a-time bit loop. They are kept as
// the oracle the window code is checked against; the caller checks bounds.
func getLoop(b []byte, off, width uint) uint64 {
	if off%8 == 0 && width%8 == 0 {
		var v uint64
		for idx, end := off/8, (off+width)/8; idx < end; idx++ {
			v = v<<8 | uint64(b[idx])
		}
		return v
	}
	var v uint64
	for i := uint(0); i < width; {
		byteIdx := (off + i) / 8
		bitIdx := (off + i) % 8
		take := 8 - bitIdx // bits available in this byte
		if take > width-i {
			take = width - i
		}
		chunk := uint64(b[byteIdx]>>(8-bitIdx-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		i += take
	}
	return v
}

func putLoop(b []byte, off, width uint, v uint64) {
	if off%8 == 0 && width%8 == 0 {
		for idx := (off + width) / 8; idx > off/8; idx-- {
			b[idx-1] = byte(v)
			v >>= 8
		}
		return
	}
	for i := width; i > 0; {
		byteIdx := (off + i - 1) / 8
		bitIdx := (off + i - 1) % 8
		take := bitIdx + 1 // bits writable at the tail of this byte
		if take > i {
			take = i
		}
		shift := 8 - bitIdx - 1 // LSB position of the chunk within the byte
		mask := byte((1<<take)-1) << shift
		b[byteIdx] = b[byteIdx]&^mask | byte(v&((1<<take)-1))<<shift
		v >>= take
		i -= take
	}
}

// checkAgainstLoop compares Get and Put with the loop oracle on one field:
// Get must read what getLoop reads, and Put must write what putLoop writes,
// leaving every bit outside [off, off+width) as it was.
func checkAgainstLoop(t *testing.T, buf []byte, off, width uint, v uint64) {
	t.Helper()
	if got, want := Get(buf, off, width), getLoop(buf, off, width); got != want {
		t.Fatalf("Get(%d-byte buf, %d, %d) = %#x, loop reads %#x", len(buf), off, width, got, want)
	}
	got := bytes.Clone(buf)
	Put(got, off, width, v)
	want := bytes.Clone(buf)
	putLoop(want, off, width, v)
	if !bytes.Equal(got, want) {
		t.Fatalf("Put(%d-byte buf, %d, %d, %#x) = %x, loop writes %x", len(buf), off, width, v, got, want)
	}
	for i := uint(0); i < uint(len(buf))*8; i++ {
		if i >= off && i < off+width {
			continue
		}
		if got[i/8]>>(7-i%8)&1 != buf[i/8]>>(7-i%8)&1 {
			t.Fatalf("Put(%d-byte buf, %d, %d) changed bit %d outside the field", len(buf), off, width, i)
		}
	}
}

// TestWindowMatchesLoop sweeps every offset and width on buffers shorter
// than, equal to and longer than one 8-byte window.
func TestWindowMatchesLoop(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{1, 3, 7, 8, 9, 12, 17} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(next())
		}
		for width := uint(1); width <= MaxWidth; width++ {
			for off := uint(0); off+width <= uint(n)*8; off++ {
				checkAgainstLoop(t, buf, off, width, next())
			}
		}
	}
}

// FuzzLayout checks Get and Put against the loop oracle at random offsets,
// widths, buffers and values.
func FuzzLayout(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x56, 0x78}, uint(0), uint(32), uint64(0xdeadbeef))
	f.Add([]byte{0xb6, 0x5a}, uint(4), uint(8), uint64(0x65))
	f.Add(make([]byte, 12), uint(44), uint(4), uint64(0xf))
	f.Add(bytes.Repeat([]byte{0xff}, 9), uint(7), uint(64), uint64(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 24), uint(131), uint(57), ^uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, off, width uint, v uint64) {
		if len(buf) == 0 || len(buf) > 64 {
			return
		}
		width = width%MaxWidth + 1
		if span := uint(len(buf)) * 8; width > span {
			width = span
		}
		off %= uint(len(buf))*8 - width + 1
		checkAgainstLoop(t, buf, off, width, v)
	})
}
