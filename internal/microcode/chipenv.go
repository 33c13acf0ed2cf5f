package microcode

import (
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// TailLatency is a tail XTXN's round trip: tail data crosses the crossbar
// with SRAM-class latency (§2.3). pfe.Ctx.ReadTail charges the same.
const TailLatency = smem.SRAMLatency

// ChipEnv is the Env of a thread on the chip: shared memory and its counter
// block (Mem), the hash engine (Hash) and the packet tail held in the Packet
// Buffer (Tail), each XTXN timed by its target, a tail XTXN by TailLatency.
// pfe.MicrocodeApp sets the three fields for every packet.
type ChipEnv struct {
	Mem  *smem.Memory
	Hash *hasheng.Table
	Tail []byte

	reply [smem.MaxTxnBytes]byte
}

// MemRead stages the reply in the environment's own buffer; Env lets a
// reply live only until the next call.
func (e *ChipEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	return e.Mem.ReadStaged(now, addr, size, &e.reply)
}
func (e *ChipEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	return e.Mem.Write(now, addr, data)
}
func (e *ChipEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	return e.Mem.CounterInc(now, addr, pktLen)
}
func (e *ChipEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	return ClipTail(e.Tail, off, size), now + TailLatency
}

// WriteTail ignores a write that starts outside the tail and cuts one that
// runs past its end, as memEnv does.
func (e *ChipEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.Tail) {
		copy(e.Tail[off:], data)
	}
	return now + TailLatency
}
func (e *ChipEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	return e.Hash.Lookup(now, key)
}
func (e *ChipEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	return e.Hash.Insert(now, key, val)
}
func (e *ChipEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	return e.Hash.Delete(now, key)
}
