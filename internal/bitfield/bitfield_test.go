package bitfield

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGetByteAligned(t *testing.T) {
	b := []byte{0x12, 0x34, 0x56, 0x78}
	if got := Get(b, 0, 8); got != 0x12 {
		t.Fatalf("Get(0,8) = %#x", got)
	}
	if got := Get(b, 8, 16); got != 0x3456 {
		t.Fatalf("Get(8,16) = %#x", got)
	}
	if got := Get(b, 0, 32); got != 0x12345678 {
		t.Fatalf("Get(0,32) = %#x", got)
	}
}

func TestGetUnaligned(t *testing.T) {
	// 0b1011_0110 0b0101_1010
	b := []byte{0xB6, 0x5A}
	if got := Get(b, 0, 1); got != 1 {
		t.Fatalf("MSB = %d", got)
	}
	if got := Get(b, 1, 3); got != 0b011 {
		t.Fatalf("Get(1,3) = %#b", got)
	}
	if got := Get(b, 4, 8); got != 0b0110_0101 {
		t.Fatalf("Get(4,8) = %#b", got)
	}
	if got := Get(b, 13, 3); got != 0b010 {
		t.Fatalf("Get(13,3) = %#b", got)
	}
}

func TestPutThenGetRoundTrips(t *testing.T) {
	b := make([]byte, 8)
	Put(b, 3, 12, 0xABC)
	if got := Get(b, 3, 12); got != 0xABC {
		t.Fatalf("round trip = %#x", got)
	}
	// Neighbouring bits must stay zero.
	if Get(b, 0, 3) != 0 || Get(b, 15, 17) != 0 {
		t.Fatal("Put disturbed neighbouring bits")
	}
}

func TestPutMasksHighBits(t *testing.T) {
	b := make([]byte, 2)
	Put(b, 4, 4, 0xFFF) // only low 4 bits should land
	if got := Get(b, 4, 4); got != 0xF {
		t.Fatalf("field = %#x", got)
	}
	if got := Get(b, 0, 4); got != 0 {
		t.Fatalf("prefix disturbed: %#x", got)
	}
}

func TestPutPreservesSurroundingBits(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF}
	Put(b, 6, 9, 0)
	if got := Get(b, 6, 9); got != 0 {
		t.Fatalf("cleared field = %#x", got)
	}
	if got := Get(b, 0, 6); got != 0x3F {
		t.Fatalf("prefix = %#x", got)
	}
	if got := Get(b, 15, 9); got != 0x1FF {
		t.Fatalf("suffix = %#x", got)
	}
}

func TestGetPutPropertyRoundTrip(t *testing.T) {
	f := func(off8, width8 uint8, v uint64, background []byte) bool {
		width := uint(width8%64) + 1
		off := uint(off8) % 64
		n := int(off+width+7)/8 + 2
		b := make([]byte, n)
		if len(background) > 0 {
			for i := range b {
				b[i] = background[i%len(background)]
			}
		}
		orig := append([]byte(nil), b...)
		Put(b, off, width, v)
		want := v
		if width < 64 {
			want &= (1 << width) - 1
		}
		if Get(b, off, width) != want {
			return false
		}
		// Restoring the original value must restore the original buffer.
		Put(b, off, width, Get(orig, off, width))
		return bytes.Equal(b, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGetOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get(make([]byte, 2), 10, 8)
}

func TestZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Get(make([]byte, 2), 0, 0)
}
