// Package bitfield reads and writes integer fields of arbitrary bit width at
// arbitrary bit offsets within byte slices.
//
// Trio's Microcode lets every ALU operand and result be "a bit-field of
// arbitrary length (up to 32 bits) and an arbitrary bit offset" (§2.2 of the
// paper), and the Trio-ML header and record structures (Fig. 8, Appendix A.1)
// are declared as ordered lists of field widths. This package is the single
// implementation of that addressing model, run by the Microcode ALUs. The
// Trio-ML header and record codecs bake their Layout's offsets into
// fixed-offset code, as the Microcode assembler does; their Layouts stay the
// spec, and the by-name oracle their tests hold them to.
//
// Bit order is big-endian and MSB-first within each byte, matching network
// header conventions: bit offset 0 is the most significant bit of b[0].
package bitfield

import (
	"encoding/binary"
	"fmt"
)

// MaxWidth is the widest field Get/Put support.
const MaxWidth = 64

// Get extracts a width-bit unsigned integer starting at absolute bit offset
// off. It panics if the field overflows the slice or width is out of range;
// field geometry is static in every caller, so a failure is a programming
// error rather than an input error.
func Get(b []byte, off, width uint) uint64 {
	if s, ok := window(b, off, width); ok {
		return binary.BigEndian.Uint64(b[s:]) << (off - 8*s) >> (64 - width)
	}
	return getSlow(b, off, width)
}

// Put stores the low width bits of v starting at absolute bit offset off.
// Bits of v above width are ignored. Put rewrites the whole 8-byte window
// around the field with the bits it read, so it must not race with a write
// to neighbouring bytes of b.
func Put(b []byte, off, width uint, v uint64) {
	if s, ok := window(b, off, width); ok {
		sh := 64 - (off - 8*s) - width
		m := (uint64(1)<<width - 1) << sh
		binary.BigEndian.PutUint64(b[s:], binary.BigEndian.Uint64(b[s:])&^m|v<<sh&m)
		return
	}
	putSlow(b, off, width, v)
}

// window returns the byte index of the 8-byte big-endian window that holds
// an in-bounds field in a slice of at least 8 bytes: the field's first byte,
// moved back when fewer than 8 bytes follow it. ok is false when no window
// holds the field, which Get and Put then hand to their slow paths. Every
// field of up to 57 bits fits (one starting at bit 7 of a byte spans 8 bytes
// at 57 bits), and so does a byte-aligned one of up to 64. window is small
// enough to inline into Get and Put.
func window(b []byte, off, width uint) (s uint, ok bool) {
	n := uint(len(b))
	s = min(off/8, n-8)
	return s, n >= 8 && width-1 < MaxWidth && off+width <= 8*n && off-8*s+width <= 64
}

// getSlow panics on a bad field, and otherwise reads a field no window holds
// as two halves of at most 32 bits, or pads a slice shorter than one window.
func getSlow(b []byte, off, width uint) uint64 {
	check(len(b), off, width)
	if len(b) >= 8 {
		return Get(b, off, width-32)<<32 | Get(b, off+width-32, 32)
	}
	var buf [8]byte
	copy(buf[:], b)
	return Get(buf[:], off, width)
}

func putSlow(b []byte, off, width uint, v uint64) {
	check(len(b), off, width)
	if len(b) >= 8 {
		Put(b, off, width-32, v>>32)
		Put(b, off+width-32, 32, v)
		return
	}
	var buf [8]byte
	copy(buf[:], b)
	Put(buf[:], off, width, v)
	copy(b, buf[:])
}

func check(n int, off, width uint) {
	if width == 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitfield: width %d out of range [1,%d]", width, MaxWidth))
	}
	if end := off + width; end > uint(n)*8 {
		panic(fmt.Sprintf("bitfield: field [%d,%d) overflows %d-byte buffer", off, end, n))
	}
}
