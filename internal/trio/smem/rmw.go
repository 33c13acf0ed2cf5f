package smem

import (
	"encoding/binary"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// This file implements the "rich variety of read-modify-write operations"
// of §2.3: Packet/Byte Counters, Logical Fetch-and-Ops
// (And/Or/Xor/Clear), Fetch-and-Swap, Masked Write, and 32-bit add. Each
// runs inside the owning RMW engine: the data never moves to the requesting
// thread, and concurrent requests to one location serialize at the engine.

// AddCycles is the engine occupancy of one 8-byte add: "each add operation
// takes two cycles" (§6.3).
const AddCycles = 2

// CounterInc implements the CounterIncPhys XTXN (§3.2): a 16-byte
// Packet/Byte Counter at addr has its packet half incremented by 1 and its
// byte half incremented by pktLen.
func (m *Memory) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	var b [16]byte
	m.load(addr, b[:])
	binary.BigEndian.PutUint64(b[0:8], binary.BigEndian.Uint64(b[0:8])+1)
	binary.BigEndian.PutUint64(b[8:16], binary.BigEndian.Uint64(b[8:16])+uint64(pktLen))
	m.store(addr, b[:])
	return m.issueOne(now, addr, serviceCycles(16, AddCycles))
}

// Counter reads back a Packet/Byte Counter via the control plane.
func (m *Memory) Counter(addr uint64) (packets, bytes uint64) {
	var b [16]byte
	m.load(addr, b[:])
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// FetchOp is a logical read-modify-write operator.
type FetchOp int

// Logical fetch-and-operations supported by the engines.
const (
	FetchAnd FetchOp = iota
	FetchOr
	FetchXor
	FetchClear // clear the bits set in the operand (AND NOT)
)

// FetchAndOp atomically applies op(old, operand) to the 8-byte word at addr
// and returns the previous value.
func (m *Memory) FetchAndOp(now sim.Time, addr uint64, op FetchOp, operand uint64) (old uint64, done sim.Time) {
	var b [8]byte
	m.load(addr, b[:])
	old = binary.BigEndian.Uint64(b[:])
	var nv uint64
	switch op {
	case FetchAnd:
		nv = old & operand
	case FetchOr:
		nv = old | operand
	case FetchXor:
		nv = old ^ operand
	case FetchClear:
		nv = old &^ operand
	default:
		panic("smem: unknown fetch op")
	}
	binary.BigEndian.PutUint64(b[:], nv)
	m.store(addr, b[:])
	return old, m.issueOne(now, addr, AddCycles)
}

// FetchAndSwap atomically replaces the 8-byte word at addr and returns the
// previous value.
func (m *Memory) FetchAndSwap(now sim.Time, addr uint64, v uint64) (old uint64, done sim.Time) {
	var b [8]byte
	m.load(addr, b[:])
	old = binary.BigEndian.Uint64(b[:])
	binary.BigEndian.PutUint64(b[:], v)
	m.store(addr, b[:])
	return old, m.issueOne(now, addr, AddCycles)
}

// MaskedWrite writes (old &^ mask) | (v & mask) to the 8-byte word at addr.
func (m *Memory) MaskedWrite(now sim.Time, addr uint64, v, mask uint64) sim.Time {
	var b [8]byte
	m.load(addr, b[:])
	old := binary.BigEndian.Uint64(b[:])
	binary.BigEndian.PutUint64(b[:], old&^mask|v&mask)
	m.store(addr, b[:])
	return m.issueOne(now, addr, AddCycles)
}

// Add32 atomically adds delta to the 32-bit word at addr (4-byte aligned)
// and returns the new value. This is the primitive Trio-ML's gradient
// summation is built on.
func (m *Memory) Add32(now sim.Time, addr uint64, delta int32) (newVal int32, done sim.Time) {
	var b [4]byte
	m.load(addr, b[:])
	nv := int32(binary.BigEndian.Uint32(b[:])) + delta
	binary.BigEndian.PutUint32(b[:], uint32(nv))
	m.store(addr, b[:])
	return nv, m.issueOne(now, addr, AddCycles)
}

// Add64 atomically adds delta to the 8-byte word at addr.
func (m *Memory) Add64(now sim.Time, addr uint64, delta uint64) (newVal uint64, done sim.Time) {
	var b [8]byte
	m.load(addr, b[:])
	nv := binary.BigEndian.Uint64(b[:]) + delta
	binary.BigEndian.PutUint64(b[:], nv)
	m.store(addr, b[:])
	return nv, m.issueOne(now, addr, AddCycles)
}

// AddVector32BE adds big-endian int32 lanes — gradients as the wire carries
// them — to consecutive 32-bit words starting at addr; len(lanes) is a
// multiple of 4. Each 8-byte pair of lanes is one engine add (two cycles),
// so a 16-gradient chunk costs 8 engine-word operations — the accounting
// behind the 6×10⁹ adds/s/PFE figure of §6.3. It returns the completion time
// of the last word (engines work in parallel across banks).
func (m *Memory) AddVector32BE(now sim.Time, addr uint64, lanes []byte) sim.Time {
	return m.addVector32BE(now, nil, addr, lanes)
}

// AddVector32BEAt is AddVector32BE issued as a thread's tail loop issues it:
// one vector-add transaction per MaxTxnBytes of lanes (16 gradients, 8
// engine words), transaction i at at[i]. done, when non-nil, receives each
// transaction's completion time. A packet's whole gradient run takes one
// call: one add pass over the bytes and one engine walk, booking exactly
// what one AddVector32BE per 64-byte chunk at its own time would.
func (m *Memory) AddVector32BEAt(at []sim.Time, addr uint64, lanes []byte, done []sim.Time) sim.Time {
	return m.addVector32BE(0, &pace{at: at, per: MaxTxnBytes / 8, done: done}, addr, lanes)
}

// addVector32BE is the kernel under both vector adds, issued at now or
// paced by p. The lanes are added in place on the backing page by
// packet.AddLanes, one run per page; a lane straddling a page end (addr not
// 4-byte aligned) goes through load/store. The engine words are charged by
// issueAt in one walk.
func (m *Memory) addVector32BE(now sim.Time, p *pace, addr uint64, lanes []byte) sim.Time {
	for a, l := addr, lanes; len(l) > 0; {
		b := m.run(a, len(l))
		if len(b) < 4 {
			var w [4]byte
			m.load(a, w[:])
			binary.BigEndian.PutUint32(w[:], binary.BigEndian.Uint32(w[:])+binary.BigEndian.Uint32(l))
			m.store(a, w[:])
			a, l = a+4, l[4:]
			continue
		}
		k := len(b) &^ 3
		packet.AddLanes(b[:k], l[:k])
		a, l = a+uint64(k), l[k:]
	}
	return m.issueAt(now, p, addr, 8, (len(lanes)/4+1)/2, AddCycles)
}

// AddVector32 is AddVector32BE over host-order deltas, encoded to wire lanes
// one 16-lane chunk at a time.
func (m *Memory) AddVector32(now sim.Time, addr uint64, deltas []int32) sim.Time {
	var lanes [64]byte
	var latest sim.Time
	for len(deltas) > 0 {
		k := min(len(deltas), len(lanes)/4)
		for i, d := range deltas[:k] {
			binary.BigEndian.PutUint32(lanes[4*i:], uint32(d))
		}
		latest = max(latest, m.AddVector32BE(now, addr, lanes[:4*k]))
		addr, deltas = addr+uint64(4*k), deltas[k:]
	}
	return latest
}

// ReadVector32BE reads len(dst)/4 consecutive 32-bit words starting at addr
// into dst as big-endian lanes, via the data path in 64-byte transactions,
// and returns the completion time. The transactions — 64 bytes each, the
// last one the remainder rounded up to 8 — are charged in address order,
// then the bytes are copied straight from the backing pages.
func (m *Memory) ReadVector32BE(now sim.Time, addr uint64, dst []byte) sim.Time {
	if len(dst) == 0 {
		return 0
	}
	full, rest := len(dst)/MaxTxnBytes, len(dst)%MaxTxnBytes
	latest := m.issueAt(now, nil, addr, MaxTxnBytes, full, MaxTxnBytes/8)
	if rest > 0 {
		latest = max(latest, m.issueOne(now, addr+uint64(MaxTxnBytes*full), serviceCycles(rest, 1)))
	}
	m.load(addr, dst)
	return latest
}
