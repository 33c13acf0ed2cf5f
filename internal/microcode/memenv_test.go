package microcode

import (
	"bytes"
	"testing"
)

// TestMemEnvAddressesExactly pins what the cost runs rely on: no two
// addresses alias (not 8 KiB apart, not across a page edge) and unwritten
// memory reads zero.
func TestMemEnvAddressesExactly(t *testing.T) {
	e := newMemEnv()
	e.MemWrite(0, 0, []byte{1})
	e.MemWrite(0, 8192, []byte{2})
	e.MemWrite(0, 60, []byte{3, 4, 5, 6, 7, 8, 9, 10})
	e.MemWrite(0, ^uint64(0)-1, []byte{11, 12, 13})
	for _, c := range []struct {
		addr uint64
		want []byte
	}{
		{0, []byte{13}},
		{8192, []byte{2}},
		{58, []byte{0, 0, 3, 4, 5, 6, 7, 8, 9, 10, 0}},
		{^uint64(0) - 1, []byte{11, 12}},
		{1 << 40, []byte{0, 0, 0, 0}},
	} {
		if got, _ := e.MemRead(0, c.addr, len(c.want)); !bytes.Equal(got, c.want) {
			t.Errorf("read %#x: %v, want %v", c.addr, got, c.want)
		}
	}
}

// TestEnvsShareSemantics holds the cost runs' memEnv and the chip's ChipEnv
// to the same XTXN semantics: tail reads clip as ClipTail does, a tail write
// starting outside the tail is ignored and one running past its end is cut,
// the counter keeps smem's big-endian packet/byte layout, and inserting a
// present key or deleting an absent one fails.
func TestEnvsShareSemantics(t *testing.T) {
	mem, chip := newMemEnv(), newChipEnv()
	for _, c := range []struct {
		name string
		env  Env
		tail *[]byte
	}{{"memEnv", mem, &mem.tail}, {"ChipEnv", chip, &chip.Tail}} {
		t.Run(c.name, func(t *testing.T) {
			e, tail := c.env, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
			*c.tail = tail
			for _, r := range []struct {
				off, size int
				want      []byte
			}{{2, 4, []byte{7, 6, 5, 4}}, {-4, 8, nil}, {8, 8, []byte{1, 0}}, {10, 4, nil}, {11, 4, nil}} {
				if got, _ := e.ReadTail(0, r.off, r.size); !bytes.Equal(got, r.want) {
					t.Errorf("tail read [%d,+%d): %v, want %v", r.off, r.size, got, r.want)
				}
			}
			e.WriteTail(0, -1, []byte{0xEE, 0xEE})
			e.WriteTail(0, 10, []byte{0xEE})
			e.WriteTail(0, 8, []byte{0xAA, 0xBB, 0xCC})
			if !bytes.Equal(tail, []byte{9, 8, 7, 6, 5, 4, 3, 2, 0xAA, 0xBB}) {
				t.Errorf("tail after writes: %v", tail)
			}
			e.CounterInc(0, 4096, 100)
			e.CounterInc(0, 4096, 28)
			if got, _ := e.MemRead(0, 4096, 16); !bytes.Equal(got, []byte{0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 128}) {
				t.Errorf("counter: %v", got)
			}
			ins1, _ := e.HashInsert(0, 7, 1)
			ins2, _ := e.HashInsert(0, 7, 2)
			v, hit, _ := e.HashLookup(0, 7)
			del1, _ := e.HashDelete(0, 7)
			del2, _ := e.HashDelete(0, 7)
			if !ins1 || ins2 || !hit || v != 1 || !del1 || del2 {
				t.Errorf("insert %v then %v, lookup %d %v, delete %v then %v; want true false 1 true true false", ins1, ins2, v, hit, del1, del2)
			}
		})
	}
}

// RunPackets splits each frame at headBytes: the head is in local memory and
// unloaded back into the frame, the rest is the tail, a tail write starting
// outside the tail is ignored, and memory carries over to the next packet.
func TestRunPacketsSplitsFrames(t *testing.T) {
	p := MustAssemble(`
program split;

ld:
begin
    mem_read(0x40, 4, 0);
    goto rd;
end

rd:
begin
    tail_read(0, 8, 256);
    goto wr;
end

wr:
begin
    mem_write(0x40, 4, 256);
    goto tw;
end

tw:
begin
    tail_write(r3, 8, 0);
    goto tw2;
end

tw2:
begin
    tail_write(0, 4, 0);
    exit(forward);
end
`)
	frames := [][]byte{{1, 2, 3, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, {1, 2}}
	st, err := RunPackets(p, "ld", frames, 4, func(i int, th *Thread) { th.Regs[3] = 100 })
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0] != (Stats{Instructions: 5, XTXNs: 5}) || st[1] != st[0] {
		t.Errorf("stats %+v", st)
	}
	// Packet 0 loaded empty memory over its head and copied that head to
	// tail offset 0; its write at offset 100 went nowhere. Packet 1's head is
	// what packet 0 stored from its tail.
	if !bytes.Equal(frames[0], []byte{0, 0, 0, 0, 0, 0, 0, 0, 14, 15, 16, 17, 18}) {
		t.Errorf("frame 0: %v", frames[0])
	}
	if !bytes.Equal(frames[1], []byte{10, 11}) {
		t.Errorf("frame 1: %v", frames[1])
	}
}
