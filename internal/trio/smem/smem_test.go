package smem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

func TestTierLayoutIsContiguous(t *testing.T) {
	m := New(Config{})
	if a := m.Alloc(TierSRAM, 8); a != 0 {
		t.Fatalf("first SRAM alloc at %#x, want 0", a)
	}
	if a := m.Alloc(TierCache, 8); a != SRAMSize {
		t.Fatalf("first cache alloc at %#x, want %#x", a, SRAMSize)
	}
	if a := m.Alloc(TierDRAM, 8); a != SRAMSize+CacheSize {
		t.Fatalf("first DRAM alloc at %#x, want %#x", a, SRAMSize+CacheSize)
	}
}

func TestAddressOutsideSpacePanics(t *testing.T) {
	m := New(Config{})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "outside unified address space") {
			t.Fatalf("panic %q, want the address-space check", msg)
		}
	}()
	m.ReadInto(0, 1<<62, make([]byte, 8))
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	m := New(Config{})
	a := m.Alloc(TierSRAM, 5)
	b := m.Alloc(TierSRAM, 8)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("unaligned allocs %#x %#x", a, b)
	}
	if b != a+8 {
		t.Fatalf("expected bump allocation, got %#x then %#x", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	m.Alloc(TierSRAM, SRAMSize-15) // one byte more than is left
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 64)
	data := bytes.Repeat([]byte{0xA5, 0x5A}, 32)
	m.Write(0, addr, data)
	got := make([]byte, 64)
	m.ReadInto(0, addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read != write")
	}
}

func TestTxnSizeEnforced(t *testing.T) {
	m := New(Config{})
	for _, bad := range []int{0, 4, 7, 9, 72} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("size %d should panic", bad)
				}
			}()
			m.ReadInto(0, 0, make([]byte, bad))
		}()
	}
	for _, ok := range []int{8, 16, 24, 64} {
		got := make([]byte, ok+8)
		for i := range got {
			got[i] = 0xFF
		}
		m.ReadInto(0, 0, got[:ok])
		if bytes.IndexByte(got, 0xFF) != ok {
			t.Fatalf("size %d read %d bytes", ok, bytes.IndexByte(got, 0xFF))
		}
	}
}

func TestReadLatencyByTier(t *testing.T) {
	m := New(Config{})
	sramAddr := m.Alloc(TierSRAM, 8)
	dramAddr := m.Alloc(TierDRAM, 8)
	sramDone := m.ReadInto(0, sramAddr, make([]byte, 8))
	dramDone := m.ReadInto(0, dramAddr, make([]byte, 8))
	if sramDone < 70*sim.Nanosecond || sramDone > 80*sim.Nanosecond {
		t.Fatalf("SRAM read latency %v, want ≈70ns", sramDone)
	}
	if dramDone < 400*sim.Nanosecond || dramDone > 410*sim.Nanosecond {
		t.Fatalf("DRAM read latency %v, want ≈400ns", dramDone)
	}
}

func TestPagesAreZeroInitialized(t *testing.T) {
	m := New(Config{})
	got := bytes.Repeat([]byte{0xFF}, 8)
	m.ReadInto(0, tiers[TierDRAM].Base+12345*8, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh memory not zero")
		}
	}
}

func TestCounterIncMatchesFilterExample(t *testing.T) {
	// §3.2: each Packet/Byte Counter is 16 bytes; CounterIncPhys bumps the
	// packet half by 1 and the byte half by pkt_len.
	m := New(Config{})
	base := m.Alloc(TierSRAM, 32) // two counters, as in Fig. 6
	m.CounterInc(0, base, 100)
	m.CounterInc(0, base, 50)
	m.CounterInc(0, base+16, 1500)
	pkts, byteCnt := m.Counter(base)
	if pkts != 2 || byteCnt != 150 {
		t.Fatalf("counter 0 = (%d,%d), want (2,150)", pkts, byteCnt)
	}
	pkts, byteCnt = m.Counter(base + 16)
	if pkts != 1 || byteCnt != 1500 {
		t.Fatalf("counter 1 = (%d,%d), want (1,1500)", pkts, byteCnt)
	}
}

// putWord and getWord move one 8-byte big-endian word through the data path.
func putWord(m *Memory, addr, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	m.Write(0, addr, b[:])
}

func getWord(m *Memory, addr uint64) uint64 {
	var b [8]byte
	m.ReadInto(0, addr, b[:])
	return binary.BigEndian.Uint64(b[:])
}

func TestFetchAndOps(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 8)
	putWord(m, addr, 0b1100)
	old, _ := m.FetchAndOp(0, addr, FetchOr, 0b0011)
	if old != 0b1100 {
		t.Fatalf("or: old = %b", old)
	}
	old, _ = m.FetchAndOp(0, addr, FetchAnd, 0b1010)
	if old != 0b1111 {
		t.Fatalf("and: old = %b", old)
	}
	old, _ = m.FetchAndOp(0, addr, FetchXor, 0b1111)
	if old != 0b1010 {
		t.Fatalf("xor: old = %b", old)
	}
	old, _ = m.FetchAndOp(0, addr, FetchClear, 0b0100)
	if old != 0b0101 {
		t.Fatalf("clear: old = %b", old)
	}
	v := getWord(m, addr)
	if v != 0b0001 {
		t.Fatalf("final = %b", v)
	}
}

func TestFetchAndSwap(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 8)
	putWord(m, addr, 111)
	old, _ := m.FetchAndSwap(0, addr, 222)
	if old != 111 {
		t.Fatalf("old = %d", old)
	}
	v := getWord(m, addr)
	if v != 222 {
		t.Fatalf("new = %d", v)
	}
}

func TestMaskedWrite(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 8)
	putWord(m, addr, 0xFFFF_FFFF_FFFF_FFFF)
	m.MaskedWrite(0, addr, 0x0000_0000_1234_0000, 0x0000_0000_FFFF_0000)
	v := getWord(m, addr)
	if v != 0xFFFF_FFFF_1234_FFFF {
		t.Fatalf("v = %#x", v)
	}
}

func TestAdd32SignedWraparound(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 8)
	if nv, _ := m.Add32(0, addr, -5); nv != -5 {
		t.Fatalf("nv = %d", nv)
	}
	if nv, _ := m.Add32(0, addr, 10); nv != 5 {
		t.Fatalf("nv = %d", nv)
	}
}

// wire encodes host-order deltas as the big-endian lanes the vector add takes.
func wire(deltas []int32) []byte {
	b := make([]byte, 4*len(deltas))
	packet.PutGradients(b, deltas)
	return b
}

// readLanes reads n lanes back through the data path and decodes them.
func readLanes(m *Memory, addr uint64, n int) []int32 {
	b := make([]byte, 4*n)
	m.ReadVector32BE(0, addr, b)
	g, _ := packet.Gradients(b, n)
	return g
}

// TestAddVector32EncodesDeltas pins the host-order form to the wire-lane
// kernel: the same bytes, the same completion time, the same engine books.
func TestAddVector32EncodesDeltas(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 33, 70} {
		deltas := make([]int32, n)
		for i := range deltas {
			deltas[i] = int32(uint32(i+1) * 2654435761)
		}
		host, lanes := New(Config{NumRMWEngines: 12}), New(Config{NumRMWEngines: 12})
		addr := host.Alloc(TierDRAM, 4*70) + 4
		lanes.Alloc(TierDRAM, 4*70)
		for round := sim.Time(0); round < 3; round++ {
			if got, want := host.AddVector32(round, addr, deltas), lanes.AddVector32BE(round, addr, wire(deltas)); got != want {
				t.Fatalf("n=%d: AddVector32 done %d, AddVector32BE %d", n, got, want)
			}
		}
		if !bytes.Equal(host.ReadRaw(addr, 4*n), lanes.ReadRaw(addr, 4*n)) || !reflect.DeepEqual(host.Stats(), lanes.Stats()) {
			t.Fatalf("n=%d: memory or engine stats differ", n)
		}
	}
}

func TestAddVector32AggregatesLikeTrioML(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierDRAM, 4*16)
	a := []int32{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16}
	b := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160}
	m.AddVector32BE(0, addr, wire(a))
	m.AddVector32BE(0, addr, wire(b))
	got := readLanes(m, addr, 16)
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], a[i]+b[i])
		}
	}
}

func TestAddVector32OddCount(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 32)
	m.AddVector32BE(0, addr, wire([]int32{1, 2, 3}))
	got := readLanes(m, addr, 4)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestAddVectorCommutesProperty(t *testing.T) {
	// Aggregation order must not matter: sum(a then b) == sum(b then a).
	f := func(a, b []int32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		m1 := New(Config{})
		m2 := New(Config{})
		a1 := m1.Alloc(TierSRAM, uint64(4*n))
		a2 := m2.Alloc(TierSRAM, uint64(4*n))
		m1.AddVector32BE(0, a1, wire(a))
		m1.AddVector32BE(0, a1, wire(b))
		m2.AddVector32BE(0, a2, wire(b))
		m2.AddVector32BE(0, a2, wire(a))
		g1, g2 := readLanes(m1, a1, n), readLanes(m2, a2, n)
		for i := range g1 {
			if g1[i] != g2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSerializationBackpressure(t *testing.T) {
	// Hammer one address: every op lands on the same engine and the engine
	// serializes them at 2 cycles per add, so the k-th completes no earlier
	// than 2k cycles + tier latency.
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 8)
	var last sim.Time
	const n = 100
	for i := 0; i < n; i++ {
		_, last = m.Add32(0, addr, 1)
	}
	wantMin := sim.Time(2*n)*CycleTime + SRAMLatency
	if last < wantMin {
		t.Fatalf("last completion %v, want >= %v", last, wantMin)
	}
	stats := m.Stats()
	eng := stats[(addr/8)%uint64(len(stats))]
	if eng.Ops != n || eng.Backlogged != n-1 {
		t.Fatalf("engine stats = %+v", eng)
	}
}

func TestEnginesParallelAcrossBanks(t *testing.T) {
	// Spreading ops across 12 engines must NOT serialize: the completion
	// time of 12 simultaneous adds to distinct banks equals one add each.
	m := New(Config{})
	base := m.Alloc(TierSRAM, 12*8)
	var worst sim.Time
	for i := uint64(0); i < 12; i++ {
		_, done := m.Add64(0, base+i*8, 1)
		if done > worst {
			worst = done
		}
	}
	want := sim.Time(AddCycles)*CycleTime + SRAMLatency
	if worst != want {
		t.Fatalf("parallel adds completed at %v, want %v", worst, want)
	}
}

func TestSingleEngineAblationSerializes(t *testing.T) {
	// DESIGN ablation: with one engine the same parallel workload serializes.
	m := New(Config{NumRMWEngines: 1})
	base := m.Alloc(TierSRAM, 12*8)
	var worst sim.Time
	for i := uint64(0); i < 12; i++ {
		_, done := m.Add64(0, base+i*8, 1)
		if done > worst {
			worst = done
		}
	}
	want := sim.Time(12*AddCycles)*CycleTime + SRAMLatency
	if worst != want {
		t.Fatalf("serialized adds completed at %v, want %v", worst, want)
	}
}

func TestReadVector32CrossesTxnBoundary(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 4*40)
	vals := make([]int32, 40) // 160 bytes: 3 transactions
	for i := range vals {
		vals[i] = int32(i * i)
	}
	m.AddVector32BE(0, addr, wire(vals))
	got := readLanes(m, addr, 40)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("lane %d = %d", i, got[i])
		}
	}
}

func TestRawBypassesAccounting(t *testing.T) {
	m := New(Config{})
	m.WriteRaw(64, []byte{1, 2, 3})
	if got := m.ReadRaw(64, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("raw = %v", got)
	}
	if m.TotalOps() != 0 {
		t.Fatal("raw access charged an engine")
	}
}

// BenchmarkAblationHeadTailSplit compares aggregating a 1024-gradient
// packet via the head+64B-tail-chunk path against a hypothetical
// whole-packet-in-LMEM design (which the 1.25 KB thread LMEM could not
// actually hold).
func BenchmarkAblationHeadTailSplit(b *testing.B) {
	grads := make([]int32, 1024)
	raw := make([]byte, 4*len(grads))
	packet.PutGradients(raw, grads)
	b.Run("chunked-64B", func(b *testing.B) {
		m := New(Config{})
		addr := m.Alloc(TierDRAM, uint64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(raw); off += 64 {
				m.AddVector32BE(0, addr+uint64(off), raw[off:off+64])
			}
		}
	})
	b.Run("whole-packet", func(b *testing.B) {
		m := New(Config{})
		addr := m.Alloc(TierDRAM, uint64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.AddVector32BE(0, addr, raw)
		}
	})
}

func TestReadStagedUsesBufAndReadsLikeRead(t *testing.T) {
	m := New(Config{})
	addr := m.Alloc(TierSRAM, 16)
	m.Write(0, addr, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	var buf [MaxTxnBytes]byte
	got, done := m.ReadStaged(100, addr, 16, &buf)
	wantDone := New(Config{}).ReadInto(100, 0, make([]byte, 16)) // an idle engine, same tier
	if &got[0] != &buf[0] || len(got) != 16 || got[15] != 16 {
		t.Fatalf("staged reply % x is not buf[:16]", got)
	}
	if done != wantDone {
		t.Fatalf("staged read done at %v, a plain read at %v", done, wantDone)
	}
}

func TestReadStagedRejectsOversizeWithoutAccounting(t *testing.T) {
	m := New(Config{})
	var buf [MaxTxnBytes]byte
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "transaction size 72") {
			t.Fatalf("panic %q, want the transaction-size check", msg)
		}
		if m.TotalOps() != 0 {
			t.Fatalf("a refused read charged %d engine ops", m.TotalOps())
		}
	}()
	m.ReadStaged(0, 0, MaxTxnBytes+8, &buf)
}

// TestAllocTracksEachTier: each tier keeps its own bump cursor, and a
// 5-byte allocation rounds the cursor up to 8 before the next one.
func TestAllocTracksEachTier(t *testing.T) {
	m := New(Config{})
	sram := m.Alloc(TierSRAM, 5)
	m.Alloc(TierSRAM, 8)
	dram := m.Alloc(TierDRAM, 64)
	if got := m.Alloc(TierSRAM, 1); got != sram+16 {
		t.Fatalf("third SRAM alloc at %#x, want %#x (5 rounded up to 8, then 8)", got, sram+16)
	}
	if got := m.Alloc(TierCache, 1); got != SRAMSize {
		t.Fatalf("first cache alloc at %#x, want the tier base %#x", got, SRAMSize)
	}
	if want := SRAMSize + CacheSize; dram != want {
		t.Fatalf("first DRAM alloc at %#x, want the tier base %#x", dram, want)
	}
	if got := m.Alloc(TierDRAM, 1); got != dram+64 {
		t.Fatalf("second DRAM alloc at %#x, want %#x", got, dram+64)
	}
}
