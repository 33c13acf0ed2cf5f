package microcode

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

// memEnv is an in-memory Env with no timing model: every XTXN completes at
// its issue time. Shared memory is a sparse byte map, so no two addresses
// alias; the hash engine is a map; the packet tail is clipped through
// ClipTail as the PFE clips its own. Applications read their cost off the
// Stats of their program run on it (RunPackets), and FuzzAssemble holds the
// two engines to each other on it.
type memEnv struct {
	mem  map[uint64]byte
	hash map[uint64]uint64
	tail []byte
}

func newMemEnv() *memEnv {
	return &memEnv{mem: map[uint64]byte{}, hash: map[uint64]uint64{}}
}

// RunPackets compiles p and runs frames through it in order, as a PFE
// dispatches packets but with no simulator: each on a fresh thread from
// entry, the first headBytes of the frame in local memory and the rest the
// tail its XTXNs reach, against one in-memory Env whose memory and hash
// records carry over from packet to packet. setup, when non-nil, sets a
// frame's registers first (a dispatcher's Setup hand-off). Each frame is
// left as the PFE would send it, its head unloaded from local memory. It
// returns each thread's statistics.
func RunPackets(p *Program, entry string, frames [][]byte, headBytes int, setup func(i int, t *Thread)) ([]Stats, error) {
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	e := newMemEnv()
	stats := make([]Stats, len(frames))
	for i, frame := range frames {
		n := min(len(frame), headBytes)
		e.tail = frame[n:]
		t := NewThread(e, 0)
		t.LoadHead(frame[:n])
		if setup != nil {
			setup(i, t)
		}
		if _, err := RunCompiled(c, t, entry); err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		copy(frame[:n], t.LMem[:n])
		stats[i] = t.Stats
	}
	return stats, nil
}

func (e *memEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	b := make([]byte, size)
	for i := range b {
		b[i] = e.mem[addr+uint64(i)]
	}
	return b, now
}

func (e *memEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	for i, v := range data {
		e.mem[addr+uint64(i)] = v
	}
	return now
}

// CounterInc adds one packet and pktLen bytes to the 16-byte big-endian
// Packet/Byte Counter at addr, the layout smem keeps.
func (e *memEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	b, _ := e.MemRead(now, addr, 16)
	binary.BigEndian.PutUint64(b[:8], binary.BigEndian.Uint64(b[:8])+1)
	binary.BigEndian.PutUint64(b[8:], binary.BigEndian.Uint64(b[8:])+uint64(pktLen))
	return e.MemWrite(now, addr, b)
}

func (e *memEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	return ClipTail(e.tail, off, size), now
}

// WriteTail ignores a write that starts outside the tail and cuts one that
// runs past its end.
func (e *memEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.tail) {
		copy(e.tail[off:], data)
	}
	return now
}

func (e *memEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	v, ok := e.hash[key]
	return v, ok, now
}

// HashInsert fails if the key exists, as the hash engine's does.
func (e *memEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	if _, ok := e.hash[key]; ok {
		return false, now
	}
	e.hash[key] = val
	return true, now
}

func (e *memEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	_, ok := e.hash[key]
	delete(e.hash, key)
	return ok, now
}
