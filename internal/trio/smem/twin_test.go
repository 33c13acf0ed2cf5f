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
		elapsed := uint64((now - e.lastTime) / m.cfg.CycleTime)
		if elapsed >= e.backlog {
			e.backlog = 0
		} else {
			e.backlog -= elapsed
		}
		e.lastTime = now
	}
	queue := sim.Time(e.backlog) * m.cfg.CycleTime
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
	return now + queue + sim.Time(cycles)*m.cfg.CycleTime
}

func (m *Memory) refLatencyOf(addr uint64) sim.Time {
	if addr < m.tiers[TierCache].Base {
		return m.tiers[TierSRAM].Latency
	}
	if addr < m.tiers[TierDRAM].Base {
		return m.tiers[TierCache].Latency
	}
	if addr < m.tiers[TierDRAM].Base+m.tiers[TierDRAM].Size {
		return m.tiers[TierDRAM].Latency
	}
	panic(fmt.Sprintf("smem: address %#x outside unified address space", addr))
}

func (m *Memory) refTierIdx(addr uint64) TierKind {
	if addr < m.tiers[TierCache].Base {
		return TierSRAM
	}
	if addr < m.tiers[TierDRAM].Base {
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
		done := m.refComplete(now, wordAddr, m.refOccupy(m.refEngineFor(wordAddr), now, addCycles))
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
	// Small tiers put both tier boundaries within reach of random addresses;
	// a 3 ns cycle at the odd engine counts makes the drain division inexact.
	r := &twinRig{m: New(Config{NumRMWEngines: engines, SRAMSize: 3 * pageSize, CacheSize: 2 * pageSize, DRAMSize: 64 * pageSize,
		CycleTime: sim.Time(1 + engines%2*2)})}
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

// addLanesScalar is the lane-at-a-time add the kernel's two-lane word add
// must equal: each big-endian lane of lanes added into mem modulo 2³².
func addLanesScalar(mem, lanes []byte) {
	for i := 0; i+4 <= len(lanes); i += 4 {
		binary.BigEndian.PutUint32(mem[i:], binary.BigEndian.Uint32(mem[i:])+binary.BigEndian.Uint32(lanes[i:]))
	}
}

// TestAddVector32BECarries pins the carry isolation of the two-lane word add:
// sums that carry out of a lane (0x7FFFFFFF+1, 0xFFFFFFFF+1,
// 0x80000000+0x80000000) in the high and the low half of a word, at odd lane
// counts, unaligned addresses and with lanes straddling a page end, must
// equal the lane-at-a-time add and leave every other byte alone.
func TestAddVector32BECarries(t *testing.T) {
	pairs := [][2]uint32{{0x7FFFFFFF, 1}, {0xFFFFFFFF, 1}, {0x80000000, 0x80000000}, {0xFFFFFFFF, 0xFFFFFFFF}}
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
	limit := m.tiers[TierDRAM].Base + 8*pageSize - span
	var a uint64
	switch rng.Intn(4) {
	case 0: // within 64 B of a page end
		a = uint64(1+rng.Intn(10))*pageSize - uint64(rng.Intn(65))
	case 1: // the vector crosses SRAM -> cache
		a = m.tiers[TierCache].Base - uint64(rng.Intn(int(span)+1))
	case 2: // the vector crosses cache -> DRAM
		a = m.tiers[TierDRAM].Base - uint64(rng.Intn(int(span)+1))
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

// TestScalarOpsMatchWordLoop pins the scalar transactions (a run of one
// through the same kernel) against the reference occupy/complete pair.
func TestScalarOpsMatchWordLoop(t *testing.T) {
	ref, kern := newTwinRig(3, true, true, 9), newTwinRig(3, true, true, 9)
	rng := rand.New(rand.NewSource(9))
	var now sim.Time
	for op := 0; op < 500; op++ {
		now += sim.Time(rng.Intn(6))
		addr := twinAddr(rng, ref.m, 16) &^ 7
		var b [MaxTxnBytes]byte
		size := 8 * (1 + rng.Intn(8))
		if want, got := ref.m.refReadInto(now, addr, b[:size]), kern.m.ReadInto(now, addr, b[:size]); want != got {
			t.Fatalf("op %d: ReadInto(%#x, %d) done %d, reference %d", op, addr, size, got, want)
		}
		want := ref.m.refComplete(now, addr+4, ref.m.refOccupy(ref.m.refEngineFor((addr+4)&^7), now, addCycles))
		if _, got := kern.m.Add32(now, addr+4, 1); want != got {
			t.Fatalf("op %d: Add32(%#x) done %d, reference %d", op, addr+4, got, want)
		}
	}
	we, wh, wf := ref.state()
	ge, gh, gf := kern.state()
	if !reflect.DeepEqual(we, ge) || !reflect.DeepEqual(wh, gh) || wf != gf {
		t.Fatal("engine state, histograms or bank-error count diverge")
	}
}

func TestVectorOpsOutsideSpacePanic(t *testing.T) {
	m := New(Config{})
	end := m.tiers[TierDRAM].Base + m.tiers[TierDRAM].Size
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
