package smem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

// The reference data path: the per-word accounting the issue kernel replaced
// (one engineFor → occupy → complete round per 8-byte word, tier looked up
// per word, page looked up per word), kept verbatim as the oracle the vector
// kernels must match bit for bit. It works on host-order lanes: the twins
// feed it the kernel's big-endian wire lanes decoded.

func (m *Memory) refEngineFor(addr uint64) *engine {
	return &m.engines[(addr/8)%uint64(len(m.engines))]
}

func (m *Memory) refWord(addr uint64) []byte {
	off := addr % pageSize
	if off+8 > pageSize {
		return nil
	}
	p := m.page(addr)
	return p[off : off+8 : off+8]
}

func (m *Memory) refOccupy(e *engine, now sim.Time, cycles uint64) sim.Time {
	if m.faults != nil {
		cycles += m.faults.BankError()
	}
	if now > e.lastTime {
		elapsed := uint64((now - e.lastTime) / CycleTime)
		if elapsed >= e.backlog {
			e.backlog = 0
		} else {
			e.backlog -= elapsed
		}
		e.lastTime = now
	}
	queue := sim.Time(e.backlog) * CycleTime
	if queue > 0 {
		e.backlogged++
		if queue > e.maxQueueing {
			e.maxQueueing = queue
		}
	}
	if m.obsOn {
		m.queueHist.Observe(float64(queue))
	}
	e.backlog += cycles
	e.ops++
	e.busyCycles += cycles
	return now + queue + sim.Time(cycles)*CycleTime
}

func (m *Memory) refLatencyOf(addr uint64) sim.Time {
	if addr < tiers[TierCache].Base {
		return tiers[TierSRAM].Latency
	}
	if addr < tiers[TierDRAM].Base {
		return tiers[TierCache].Latency
	}
	if addr < tiers[TierDRAM].Base+tiers[TierDRAM].Size {
		return tiers[TierDRAM].Latency
	}
	panic(fmt.Sprintf("smem: address %#x outside unified address space", addr))
}

func (m *Memory) refTierIdx(addr uint64) TierKind {
	if addr < tiers[TierCache].Base {
		return TierSRAM
	}
	if addr < tiers[TierDRAM].Base {
		return TierCache
	}
	return TierDRAM
}

func (m *Memory) refComplete(now sim.Time, addr uint64, engineDone sim.Time) sim.Time {
	done := engineDone + m.refLatencyOf(addr)
	if m.obsOn {
		m.tierHist[m.refTierIdx(addr)].Observe(float64(done - now))
	}
	return done
}

func (m *Memory) refAddVector32(now sim.Time, addr uint64, deltas []int32) sim.Time {
	var latest sim.Time
	for i := 0; i < len(deltas); i += 2 {
		wordAddr := addr + uint64(4*i)
		if w := m.refWord(wordAddr); w != nil {
			v0 := int32(binary.BigEndian.Uint32(w[0:4])) + deltas[i]
			binary.BigEndian.PutUint32(w[0:4], uint32(v0))
			if i+1 < len(deltas) {
				v1 := int32(binary.BigEndian.Uint32(w[4:8])) + deltas[i+1]
				binary.BigEndian.PutUint32(w[4:8], uint32(v1))
			}
		} else {
			var b [8]byte
			m.load(wordAddr, b[:])
			v0 := int32(binary.BigEndian.Uint32(b[0:4])) + deltas[i]
			binary.BigEndian.PutUint32(b[0:4], uint32(v0))
			if i+1 < len(deltas) {
				v1 := int32(binary.BigEndian.Uint32(b[4:8])) + deltas[i+1]
				binary.BigEndian.PutUint32(b[4:8], uint32(v1))
			}
			m.store(wordAddr, b[:])
		}
		done := m.refComplete(now, wordAddr, m.refOccupy(m.refEngineFor(wordAddr), now, AddCycles))
		if done > latest {
			latest = done
		}
	}
	return latest
}

func (m *Memory) refReadInto(now sim.Time, addr uint64, b []byte) sim.Time {
	checkTxnSize(len(b))
	m.load(addr, b)
	done := m.refOccupy(m.refEngineFor(addr), now, serviceCycles(len(b), 1))
	return m.refComplete(now, addr, done)
}

func (m *Memory) refReadVector32Append(now sim.Time, addr uint64, count int, dst []int32) ([]int32, sim.Time) {
	var latest sim.Time
	var b [64]byte
	read := 0
	for off := 0; off < 4*count; off += 64 {
		n := 4*count - off
		if n > 64 {
			n = 64
		}
		n = (n + 7) &^ 7
		done := m.refReadInto(now, addr+uint64(off), b[:n])
		if done > latest {
			latest = done
		}
		for i := 0; i*4 < n && read < count; i++ {
			dst = append(dst, int32(binary.BigEndian.Uint32(b[4*i:])))
			read++
		}
	}
	return dst, latest
}

// twinRig is one side of a differential run: a memory, its registry (nil
// when obs is off) and its fault plan (nil when faults are off).
type twinRig struct {
	m    *Memory
	reg  *obs.Registry
	plan *faults.Plan
}

func newTwinRig(engines int, withFaults, withObs bool, seed uint64) *twinRig {
	r := &twinRig{m: New(Config{NumRMWEngines: engines})}
	if withFaults {
		r.plan = faults.NewPlan(seed, faults.Config{Mem: faults.MemConfig{BankErrorProb: 0.3}})
		r.m.SetFaults(r.plan.Mem(0))
	}
	if withObs {
		r.reg = obs.NewRegistry()
		r.m.RegisterObs(r.reg)
	}
	return r
}

// state is everything an operation may touch besides its return values.
func (r *twinRig) state() (engines []engine, hist map[string]any, bankErrors uint64) {
	if r.reg != nil {
		hist = r.reg.Snapshot()
	}
	if r.plan != nil {
		bankErrors = r.plan.Stats().MemBankErrors
	}
	return r.m.engines, hist, bankErrors
}

// twinLanes draws n big-endian lanes: mostly random, often the values that
// carry out of a lane (0x7FFFFFFF, 0xFFFFFFFF, 0x80000000, 1), so a carry
// leaking into the neighbouring lane of an 8-byte word shows.
func twinLanes(rng *rand.Rand, n int) []byte {
	edges := []uint32{0x7FFFFFFF, 0xFFFFFFFF, 0x80000000, 1, 0}
	b := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := rng.Uint32()
		if rng.Intn(3) == 0 {
			v = edges[rng.Intn(len(edges))]
		}
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// decodeLanes is the host-order view of big-endian lanes.
func decodeLanes(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return v
}

// addLanesScalar is the lane-at-a-time add the vector add must equal: each
// big-endian lane of lanes added into mem modulo 2³².
func addLanesScalar(mem, lanes []byte) {
	for i := 0; i+4 <= len(lanes); i += 4 {
		binary.BigEndian.PutUint32(mem[i:], binary.BigEndian.Uint32(mem[i:])+binary.BigEndian.Uint32(lanes[i:]))
	}
}

// TestAddVector32BEPageWalk pins the page walk around packet.AddLanes (whose
// carry edges packet's TestAddLanesCarries pins): at odd lane counts,
// unaligned addresses and with lanes straddling a page end, sums that carry
// out of a lane equal the lane-at-a-time add and leave every other byte
// alone.
func TestAddVector32BEPageWalk(t *testing.T) {
	pairs := [][2]uint32{{0xFFFFFFFF, 1}, {0x80000000, 0x80000000}}
	for _, n := range []int{1, 2, 3, 5, 16, 17, 31, 33} {
		for _, addr := range []uint64{0, 4, 8, 1, 2, 3, 6, pageSize - 8, pageSize - 4, pageSize - 2, pageSize - 3, pageSize - 60, pageSize - 62} {
			for _, p := range pairs {
				m := New(Config{})
				mem, lanes := make([]byte, 4*n), make([]byte, 4*n)
				for i := 0; i < n; i++ {
					binary.BigEndian.PutUint32(mem[4*i:], p[i%2])
					binary.BigEndian.PutUint32(lanes[4*i:], p[(i+1)%2])
				}
				m.WriteRaw(addr, mem)
				m.WriteRaw(addr-min(addr, 4), []byte{0xEE, 0xEE, 0xEE, 0xEE}[:min(addr, 4)])
				m.WriteRaw(addr+uint64(4*n), []byte{0xDD, 0xDD, 0xDD, 0xDD})
				m.AddVector32BE(0, addr, lanes)
				addLanesScalar(mem, lanes)
				if got := m.ReadRaw(addr, 4*n); !bytes.Equal(got, mem) {
					t.Fatalf("n=%d addr=%#x %#x+%#x: got % x, want % x", n, addr, p[0], p[1], got, mem)
				}
				if m.ReadRaw(addr+uint64(4*n), 4)[0] != 0xDD || (addr >= 4 && m.ReadRaw(addr-4, 4)[3] != 0xEE) {
					t.Fatalf("n=%d addr=%#x: a byte outside the lanes changed", n, addr)
				}
			}
		}
	}
}

// FuzzAddVector32Lanes checks, over arbitrary memory and lane bytes at any
// address near a page end, that the kernel equals the lane-at-a-time add on
// the bytes and the reference word loop on the completion time.
func FuzzAddVector32Lanes(f *testing.F) {
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{0, 0, 0, 1, 0, 0, 0, 1}, uint16(0))
	f.Add([]byte{0x80, 0, 0, 0, 0x80, 0, 0, 0, 0xFF}, []byte{0x80, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 1}, uint16(61))
	f.Add(bytes.Repeat([]byte{0xFF}, 130), bytes.Repeat([]byte{0x01}, 130), uint16(127))
	f.Fuzz(func(t *testing.T, init, lanes []byte, off uint16) {
		lanes = lanes[:min(len(lanes), 4*300)&^3]
		mem := make([]byte, len(lanes))
		copy(mem, init)
		// Start up to 64 bytes before a page end, or past it: lanes that
		// straddle it at every alignment.
		addr := 2*pageSize - 64 + uint64(off%128)
		kern, ref := New(Config{NumRMWEngines: 12}), New(Config{NumRMWEngines: 12})
		kern.WriteRaw(addr, mem)
		ref.WriteRaw(addr, mem)
		got, want := kern.AddVector32BE(7, addr, lanes), ref.refAddVector32(7, addr, decodeLanes(lanes))
		addLanesScalar(mem, lanes)
		if b := kern.ReadRaw(addr, len(mem)); !bytes.Equal(b, mem) {
			t.Fatalf("addr=%#x: kernel % x, lane-at-a-time % x", addr, b, mem)
		}
		if got != want || !reflect.DeepEqual(kern.engines, ref.engines) {
			t.Fatalf("addr=%#x: done %d, reference %d (or engines differ)", addr, got, want)
		}
	})
}

// twinAddr draws a base address for a vector of n lanes: mostly 8- or 4-byte
// aligned, sometimes not at all; near a page end, straddling either tier
// boundary, or anywhere.
func twinAddr(rng *rand.Rand, m *Memory, n int) uint64 {
	span := uint64(4*n + 8)
	limit := tiers[TierDRAM].Base + 8*pageSize - span
	var a uint64
	switch rng.Intn(4) {
	case 0: // within 64 B of a page end
		a = uint64(1+rng.Intn(10))*pageSize - uint64(rng.Intn(65))
	case 1: // the vector crosses SRAM -> cache
		a = tiers[TierCache].Base - uint64(rng.Intn(int(span)+1))
	case 2: // the vector crosses cache -> DRAM
		a = tiers[TierDRAM].Base - uint64(rng.Intn(int(span)+1))
	default:
		a = uint64(rng.Int63n(int64(limit)))
	}
	switch rng.Intn(8) {
	case 0: // unaligned: lanes may straddle a page end
	case 1, 2, 3:
		a &^= 3
	default:
		a &^= 7
	}
	return min(a, limit)
}

// TestVectorKernelsMatchWordLoop is the gate for the chunk kernels: the
// reference word loop and the kernel run the same random operation sequence
// on twin memories and must agree on every return value, memory byte,
// per-engine counter (including the private backlog), histogram and fault
// draw, at every engine count, with fault injection and obs on and off.
func TestVectorKernelsMatchWordLoop(t *testing.T) {
	for _, engines := range []int{1, 3, 8, 12, 16} {
		for _, withFaults := range []bool{false, true} {
			for _, withObs := range []bool{false, true} {
				t.Run(fmt.Sprintf("engines=%d/faults=%v/obs=%v", engines, withFaults, withObs), func(t *testing.T) {
					seed := int64(engines) // same operation sequence with faults and obs on or off
					rng := rand.New(rand.NewSource(seed))
					ref, kern := newTwinRig(engines, withFaults, withObs, uint64(seed)), newTwinRig(engines, withFaults, withObs, uint64(seed))
					var now sim.Time
					for op := 0; op < 600; op++ {
						// Time mostly advances (by less than a backlog
						// drains, so queues form), sometimes stands still or
						// runs backwards: threads issue with future stamps.
						switch rng.Intn(6) {
						case 0:
							now = max(0, now-sim.Time(rng.Intn(300)))
						case 1:
						default:
							now += sim.Time(rng.Intn(40))
						}
						n := rng.Intn(71)
						addr := twinAddr(rng, ref.m, n)
						what := fmt.Sprintf("op %d now=%d addr=%#x n=%d", op, now, addr, n)
						if rng.Intn(3) > 0 {
							lanes := twinLanes(rng, n)
							want, got := ref.m.refAddVector32(now, addr, decodeLanes(lanes)), kern.m.AddVector32BE(now, addr, lanes)
							if want != got {
								t.Fatalf("%s: AddVector32BE done %d, reference %d", what, got, want)
							}
						} else {
							// Guard bytes either side: the read fills exactly dst.
							dst := make([]byte, 4*n+2)
							dst[0], dst[4*n+1] = 0xA5, 0x5A
							wantV, want := ref.m.refReadVector32Append(now, addr, n, nil)
							got := kern.m.ReadVector32BE(now, addr, dst[1:4*n+1])
							if gotV := decodeLanes(dst[1 : 4*n+1]); want != got || !slices.Equal(wantV, gotV) || dst[0] != 0xA5 || dst[4*n+1] != 0x5A {
								t.Fatalf("%s: ReadVector32BE (%v, %d), reference (%v, %d)", what, gotV, got, wantV, want)
							}
						}
						we, wh, wf := ref.state()
						ge, gh, gf := kern.state()
						if !reflect.DeepEqual(we, ge) {
							t.Fatalf("%s: engines diverge\n kernel    %+v\n reference %+v", what, ge, we)
						}
						if !reflect.DeepEqual(wh, gh) || wf != gf {
							t.Fatalf("%s: histograms or bank-error count diverge", what)
						}
					}
					// (The reference rounds a read up to 8 bytes and may touch
					// a page the kernel never maps: an unmapped page is zeros.)
					var zero [pageSize]byte
					for idx := uint64(0); idx < 16; idx++ {
						p, q := ref.m.pages[idx], kern.m.pages[idx]
						if p == nil {
							p = &zero
						}
						if q == nil {
							q = &zero
						}
						if !bytes.Equal(p[:], q[:]) {
							t.Fatalf("page %d differs", idx)
						}
					}
					if ref.plan != nil {
						// Equal draw counts leave the two streams in step.
						for i := 0; i < 64; i++ {
							if a, b := ref.m.faults.BankError(), kern.m.faults.BankError(); a != b {
								t.Fatalf("fault streams out of step at draw %d", i)
							}
						}
					}
				})
			}
		}
	}
}

// scalarOp is one single-request operation and its reference: kern runs it
// on the kernel's memory; ref applies its data effect to the size bytes at
// its address (read into old, written back) and returns what kern returns,
// while the caller books the request with refOccupy/refComplete.
type scalarOp struct {
	name   string
	size   int // 0: a transaction of 8..64 bytes drawn per call
	cycles func(size int) uint64
	kern   func(m *Memory, now sim.Time, addr, v uint64, size int) (uint64, sim.Time)
	ref    func(old []byte, v uint64) uint64
}

// txnBytes is the payload a Write of size bytes carries, derived from v.
func txnBytes(v uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(v >> (8 * (i % 8)))
	}
	return b
}

func fetchOp(name string, op FetchOp, f func(old, v uint64) uint64) scalarOp {
	return scalarOp{name: name, size: 8, cycles: func(int) uint64 { return AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			return m.FetchAndOp(now, addr, op, v)
		},
		ref: func(old []byte, v uint64) uint64 {
			o := binary.BigEndian.Uint64(old)
			binary.BigEndian.PutUint64(old, f(o, v))
			return o
		}}
}

var scalarOps = []scalarOp{
	{name: "ReadInto", cycles: func(size int) uint64 { return uint64(size / 8) },
		kern: func(m *Memory, now sim.Time, addr, _ uint64, size int) (uint64, sim.Time) {
			b := make([]byte, size)
			d := m.ReadInto(now, addr, b)
			return binary.BigEndian.Uint64(b), d
		},
		ref: func(old []byte, _ uint64) uint64 { return binary.BigEndian.Uint64(old) }},
	{name: "ReadStaged", cycles: func(size int) uint64 { return uint64(size / 8) },
		kern: func(m *Memory, now sim.Time, addr, _ uint64, size int) (uint64, sim.Time) {
			var buf [MaxTxnBytes]byte
			b, d := m.ReadStaged(now, addr, size, &buf)
			return binary.BigEndian.Uint64(b), d
		},
		ref: func(old []byte, _ uint64) uint64 { return binary.BigEndian.Uint64(old) }},
	{name: "Write", cycles: func(size int) uint64 { return uint64(size / 8) },
		kern: func(m *Memory, now sim.Time, addr, v uint64, size int) (uint64, sim.Time) {
			return 0, m.Write(now, addr, txnBytes(v, size))
		},
		ref: func(old []byte, v uint64) uint64 { copy(old, txnBytes(v, len(old))); return 0 }},
	{name: "CounterInc", size: 16, cycles: func(int) uint64 { return 2 * AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			return 0, m.CounterInc(now, addr, uint32(v))
		},
		ref: func(old []byte, v uint64) uint64 {
			binary.BigEndian.PutUint64(old, binary.BigEndian.Uint64(old)+1)
			binary.BigEndian.PutUint64(old[8:], binary.BigEndian.Uint64(old[8:])+uint64(uint32(v)))
			return 0
		}},
	{name: "Add32", size: 4, cycles: func(int) uint64 { return AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			nv, d := m.Add32(now, addr, int32(v))
			return uint64(nv), d
		},
		ref: func(old []byte, v uint64) uint64 {
			nv := int32(binary.BigEndian.Uint32(old)) + int32(v)
			binary.BigEndian.PutUint32(old, uint32(nv))
			return uint64(nv)
		}},
	{name: "Add64", size: 8, cycles: func(int) uint64 { return AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			return m.Add64(now, addr, v)
		},
		ref: func(old []byte, v uint64) uint64 {
			nv := binary.BigEndian.Uint64(old) + v
			binary.BigEndian.PutUint64(old, nv)
			return nv
		}},
	fetchOp("FetchAnd", FetchAnd, func(o, v uint64) uint64 { return o & v }),
	fetchOp("FetchOr", FetchOr, func(o, v uint64) uint64 { return o | v }),
	fetchOp("FetchXor", FetchXor, func(o, v uint64) uint64 { return o ^ v }),
	fetchOp("FetchClear", FetchClear, func(o, v uint64) uint64 { return o &^ v }),
	{name: "FetchAndSwap", size: 8, cycles: func(int) uint64 { return AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			return m.FetchAndSwap(now, addr, v)
		},
		ref: func(old []byte, v uint64) uint64 {
			o := binary.BigEndian.Uint64(old)
			binary.BigEndian.PutUint64(old, v)
			return o
		}},
	{name: "MaskedWrite", size: 8, cycles: func(int) uint64 { return AddCycles },
		kern: func(m *Memory, now sim.Time, addr, v uint64, _ int) (uint64, sim.Time) {
			return 0, m.MaskedWrite(now, addr, v, v>>7|v<<57)
		},
		ref: func(old []byte, v uint64) uint64 {
			mask := v>>7 | v<<57
			binary.BigEndian.PutUint64(old, binary.BigEndian.Uint64(old)&^mask|v&mask)
			return 0
		}},
}

// TestScalarOpsMatchWordLoop pins every single-request operation — each a
// scalar op or one 8–64-byte transaction, booked without the run walk when
// fault injection and obs are off and one request at a time through issueAt
// otherwise — against the reference occupy/complete pair: return values,
// completion times, every engine counter (the private backlog included),
// histograms, fault draws and memory bytes, at 1, 5 and 12 engines in all
// four fault/obs combinations. Time mostly advances, sometimes stands still
// and sometimes runs backwards, as threads issue with future stamps.
func TestScalarOpsMatchWordLoop(t *testing.T) {
	for _, engines := range []int{1, 5, 12} {
		for _, withFaults := range []bool{false, true} {
			for _, withObs := range []bool{false, true} {
				t.Run(fmt.Sprintf("engines=%d/faults=%v/obs=%v", engines, withFaults, withObs), func(t *testing.T) {
					seed := int64(9 + engines)
					rng := rand.New(rand.NewSource(seed))
					ref, kern := newTwinRig(engines, withFaults, withObs, uint64(seed)), newTwinRig(engines, withFaults, withObs, uint64(seed))
					var now sim.Time
					for op := 0; op < 1500; op++ {
						switch rng.Intn(6) {
						case 0:
							now = max(0, now-sim.Time(rng.Intn(100)))
						case 1:
						default:
							now += sim.Time(rng.Intn(6))
						}
						o := &scalarOps[rng.Intn(len(scalarOps))]
						size := o.size
						if size == 0 {
							size = 8 * (1 + rng.Intn(8))
						}
						addr := twinAddr(rng, ref.m, 16) &^ 3
						if size > 4 && rng.Intn(4) > 0 {
							addr &^= 7
						}
						v := rng.Uint64()
						what := fmt.Sprintf("op %d %s(now=%d, %#x, size %d)", op, o.name, now, addr, size)

						old := make([]byte, size)
						ref.m.load(addr, old)
						wantV := o.ref(old, v)
						ref.m.store(addr, old)
						want := ref.m.refComplete(now, addr, ref.m.refOccupy(ref.m.refEngineFor(addr), now, o.cycles(size)))
						gotV, got := o.kern(kern.m, now, addr, v, size)
						if want != got || wantV != gotV {
							t.Fatalf("%s: (%#x, done %d), reference (%#x, %d)", what, gotV, got, wantV, want)
						}
						we, wh, wf := ref.state()
						ge, gh, gf := kern.state()
						if !reflect.DeepEqual(we, ge) {
							t.Fatalf("%s: engines diverge\n kernel    %+v\n reference %+v", what, ge, we)
						}
						if !reflect.DeepEqual(wh, gh) || wf != gf {
							t.Fatalf("%s: histograms or bank-error count diverge", what)
						}
					}
					if !samePages(ref.m, kern.m) {
						t.Fatal("memory bytes differ")
					}
				})
			}
		}
	}
}

// pacedRef is the per-transaction loop the paced kernel replaced: one
// AddVector32BE (add) or Write (write, the last transaction zero-padded to
// the 8-byte grain) per 64-byte transaction of data, transaction i at at[i],
// kept as the oracle for AddVector32BEAt and WriteAt. It returns each
// transaction's completion and the latest.
func (m *Memory) pacedRef(write bool, at []sim.Time, addr uint64, data []byte) ([]sim.Time, sim.Time) {
	var done []sim.Time
	var latest sim.Time
	for i := 0; 64*i < len(data); i++ {
		chunk := data[64*i : min(64*i+64, len(data))]
		a := addr + uint64(64*i)
		var d sim.Time
		if write {
			var b [MaxTxnBytes]byte
			d = m.Write(at[i], a, b[:(copy(b[:], chunk)+7)&^7])
		} else {
			d = m.AddVector32BE(at[i], a, chunk)
		}
		done = append(done, d)
		latest = max(latest, d)
	}
	return done, latest
}

// pacedKernel is the paced call pacedRef must equal.
func (m *Memory) pacedKernel(write bool, at []sim.Time, addr uint64, data []byte, done []sim.Time) sim.Time {
	if write {
		return m.WriteAt(at, addr, data, done)
	}
	return m.AddVector32BEAt(at, addr, data, done)
}

// samePages reports whether two memories hold the same bytes (an unmapped
// page is zeros).
func samePages(a, b *Memory) bool {
	var zero [pageSize]byte
	for _, pair := range [][2]*Memory{{a, b}, {b, a}} {
		for idx, p := range pair[0].pages {
			q := pair[1].pages[idx]
			if q == nil {
				q = &zero
			}
			if *p != *q {
				return false
			}
		}
	}
	return true
}

// TestPacedKernelMatchesPerTransactionLoop is the gate for the paced
// kernel: a thread's whole run of 1..1024 lanes — a write or an add, at
// unaligned, page-straddling and tier-crossing addresses — booked in one
// call, each 64-byte transaction at its own issue time, against one call per
// transaction. Issue times step by less than a backlog drains, stand still,
// and start before the times earlier threads left on the engines. Returned
// and per-transaction completions, every engine counter (the private
// backlog included), histograms, fault draws and memory bytes must agree, at
// several engine counts with fault injection and obs on and off.
func TestPacedKernelMatchesPerTransactionLoop(t *testing.T) {
	for _, engines := range []int{1, 5, 12} {
		for _, withFaults := range []bool{false, true} {
			for _, withObs := range []bool{false, true} {
				t.Run(fmt.Sprintf("engines=%d/faults=%v/obs=%v", engines, withFaults, withObs), func(t *testing.T) {
					seed := int64(100 + engines)
					rng := rand.New(rand.NewSource(seed))
					ref, kern := newTwinRig(engines, withFaults, withObs, uint64(seed)), newTwinRig(engines, withFaults, withObs, uint64(seed))
					var now sim.Time
					for op := 0; op < 300; op++ {
						// A new thread starts a little after the last one, or
						// before the times it left on the engines.
						if rng.Intn(4) == 0 {
							now = max(0, now-sim.Time(rng.Intn(2000)))
						} else {
							now += sim.Time(rng.Intn(200))
						}
						n := 1 + rng.Intn(1024)
						if rng.Intn(3) == 0 {
							n = 1 + rng.Intn(40)
						}
						write := rng.Intn(3) == 0
						addr := twinAddr(rng, ref.m, n)
						data := twinLanes(rng, n)
						at := make([]sim.Time, (len(data)+63)/64)
						for i := range at {
							at[i] = now
							now += sim.Time(rng.Intn(25)) // a chunk's 16 add cycles drain slower
						}
						what := fmt.Sprintf("op %d write=%v at=%d.. addr=%#x n=%d", op, write, at[0], addr, n)
						wantDone, want := ref.m.pacedRef(write, at, addr, data)
						var done []sim.Time
						if rng.Intn(4) > 0 {
							done = make([]sim.Time, len(at))
						}
						if got := kern.m.pacedKernel(write, at, addr, data, done); got != want {
							t.Fatalf("%s: done %d, reference %d", what, got, want)
						}
						if done != nil && !slices.Equal(done, wantDone) {
							t.Fatalf("%s: per-transaction completions\n kernel    %v\n reference %v", what, done, wantDone)
						}
						we, wh, wf := ref.state()
						ge, gh, gf := kern.state()
						if !reflect.DeepEqual(we, ge) {
							t.Fatalf("%s: engines diverge\n kernel    %+v\n reference %+v", what, ge, we)
						}
						if !reflect.DeepEqual(wh, gh) || wf != gf {
							t.Fatalf("%s: histograms or bank-error count diverge", what)
						}
					}
					if !samePages(ref.m, kern.m) {
						t.Fatal("memory bytes differ")
					}
				})
			}
		}
	}
}

// TestPacedKernelOutsideSpacePanics pins that a paced run reaching past the
// end of the address space panics as the per-transaction loop does, after
// booking the same requests.
func TestPacedKernelOutsideSpacePanics(t *testing.T) {
	end := tiers[TierDRAM].Base + tiers[TierDRAM].Size
	for _, write := range []bool{false, true} {
		for _, addr := range []uint64{end - 200, end - 196, end - 64, end - 4} {
			data := make([]byte, 260)
			at := []sim.Time{0, 3, 6, 9, 12}
			var msgs [2]any
			rigs := [2]*Memory{New(Config{}), New(Config{})}
			for i, m := range rigs {
				func() {
					defer func() { msgs[i] = recover() }()
					if i == 0 {
						m.pacedRef(write, at, addr, data)
					} else {
						m.pacedKernel(write, at, addr, data, make([]sim.Time, len(at)))
					}
				}()
			}
			if msgs[0] == nil || msgs[0] != msgs[1] {
				t.Fatalf("write=%v addr=end-%d: kernel panicked with %v, reference with %v", write, end-addr, msgs[1], msgs[0])
			}
			if !reflect.DeepEqual(rigs[0].engines, rigs[1].engines) {
				t.Fatalf("write=%v addr=end-%d: engines booked before the panic differ", write, end-addr)
			}
		}
	}
}

func TestVectorOpsOutsideSpacePanic(t *testing.T) {
	m := New(Config{})
	end := tiers[TierDRAM].Base + tiers[TierDRAM].Size
	for name, f := range map[string]func(){
		"add":  func() { m.AddVector32BE(0, end-8, make([]byte, 16)) },
		"read": func() { m.ReadVector32BE(0, end-64, make([]byte, 128)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the end of DRAM did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestScalarOpsOutsideSpacePanic pins the single-request path's fault text
// past the end of the address space, the same as the run walk's, with fault
// injection and obs off (one booking) and on (issueAt's request loop).
func TestScalarOpsOutsideSpacePanic(t *testing.T) {
	end := tiers[TierDRAM].Base + tiers[TierDRAM].Size
	want := fmt.Sprintf("smem: address %#x outside unified address space", end)
	for _, on := range []bool{false, true} {
		m := newTwinRig(3, on, on, 1).m
		for _, o := range scalarOps {
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("faults/obs %v: %s at the end of DRAM panicked with %v, want %q", on, o.name, got, want)
					}
				}()
				o.kern(m, 0, end, 1, 8)
			}()
		}
	}
}

var sinkTime sim.Time

// BenchmarkAddVector32Chunk is the aggregator's unit of work — one
// 16-gradient chunk of wire lanes per call, walking a 1024-gradient buffer —
// through the kernel and through the reference word loop, which takes the
// chunk decoded.
func BenchmarkAddVector32Chunk(b *testing.B) {
	for _, side := range []struct {
		name string
		add  func(*Memory, sim.Time, uint64, []byte) sim.Time
	}{{"kernel", (*Memory).AddVector32BE}, {"wordloop", func(m *Memory, now sim.Time, addr uint64, lanes []byte) sim.Time {
		var deltas [16]int32
		for i := range deltas {
			deltas[i] = int32(binary.BigEndian.Uint32(lanes[4*i:]))
		}
		return m.refAddVector32(now, addr, deltas[:])
	}}} {
		b.Run(side.name, func(b *testing.B) {
			m := New(Config{NumRMWEngines: 12})
			addr := m.Alloc(TierDRAM, 4096)
			lanes := make([]byte, 64)
			var now sim.Time
			for i := 0; b.Loop(); i++ {
				now += sim.Microsecond
				sinkTime = side.add(m, now, addr+uint64(i%64*64), lanes)
			}
		})
	}
}

// BenchmarkScalarOps is the one-request path every XTXN of a microcode
// thread takes: ns per ReadInto, Write (64 bytes each) and CounterInc call
// with fault injection and obs off, walking a 4 KiB DRAM buffer with the
// clock advancing one instruction time per call.
func BenchmarkScalarOps(b *testing.B) {
	for _, op := range []struct {
		name string
		do   func(*Memory, sim.Time, uint64, []byte) sim.Time
	}{
		{"ReadInto", (*Memory).ReadInto},
		{"Write", (*Memory).Write},
		{"CounterInc", func(m *Memory, now sim.Time, addr uint64, _ []byte) sim.Time { return m.CounterInc(now, addr, 64) }},
	} {
		b.Run(op.name, func(b *testing.B) {
			m := New(Config{NumRMWEngines: 12})
			addr := m.Alloc(TierDRAM, 4096)
			var buf [MaxTxnBytes]byte
			var now sim.Time
			for i := 0; b.Loop(); i++ {
				now += 20 * CycleTime
				sinkTime = op.do(m, now, addr+uint64(i%64*64), buf[:])
			}
		})
	}
}
