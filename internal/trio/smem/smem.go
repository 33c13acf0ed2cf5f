// Package smem models Trio's Shared Memory System (§2.3 of the paper): a
// single unified address space backed by three tiers (on-chip SRAM, the
// on-chip cache fronting off-chip DRAM, and off-chip DRAM itself) with all
// accesses funnelled through banked read-modify-write (RMW) engines.
//
// The behavioural contract reproduced here:
//
//   - All data accesses (read, write, read-modify-write) are processed by an
//     RMW engine close to memory; concurrent updates to one location are
//     serialized by the owning engine, so no coherence traffic is needed.
//   - Each engine processes requests at 8 bytes per clock cycle; an add takes
//     two cycles (§6.3). Engine load beyond that backpressures through the
//     crossbar, which we account for as queueing delay.
//   - Tiers are architecturally equivalent and differ only in capacity and
//     latency: ~70 ns to SRAM, ~300–400 ns to the off-chip tiers (§2.3).
//
// That operating point — tier sizes and latencies, the 1 GHz clock, two
// cycles per add — is a set of constants; the RMW engine count is the one
// configurable parameter.
//
// Timing is virtual (internal/sim). Every operation returns both its result
// and the virtual completion time so callers (PPE threads issuing XTXNs) can
// model synchronous stalls or asynchronous continuations.
package smem

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

// TierKind identifies one of the three memory tiers.
type TierKind int

const (
	// TierSRAM is the heavily multi-banked on-chip SRAM.
	TierSRAM TierKind = iota
	// TierCache is the multi-megabyte on-chip cache in front of DRAM.
	TierCache
	// TierDRAM is the several-gigabyte off-chip DRAM.
	TierDRAM
	numTiers
)

func (k TierKind) String() string {
	switch k {
	case TierSRAM:
		return "on-chip SRAM"
	case TierCache:
		return "DRAM cache"
	case TierDRAM:
		return "off-chip DRAM"
	}
	return fmt.Sprintf("TierKind(%d)", int(k))
}

// Tier describes one address range of the unified space.
type Tier struct {
	Kind    TierKind
	Base    uint64   // first byte of the tier's address range
	Size    uint64   // bytes
	Latency sim.Time // PPE-observed access latency
}

// Config sizes a shared memory system. Only the RMW engine count varies;
// the rest of the §2.3 operating point is the constants below.
type Config struct {
	NumRMWEngines int // default 12, the generation measured in §6.3
}

// The §2.3/§6.3 operating point.
const (
	// CycleTime is the chip's 1 GHz clock (§6.3): the RMW engines' cycle
	// here and the PPEs' in internal/microcode.
	CycleTime = sim.Nanosecond

	SRAMSize    uint64 = 4 << 20             // on-chip SRAM, "2–8 MB"
	CacheSize   uint64 = 16 << 20            // on-chip cache in front of DRAM, "8–24 MB"
	DRAMSize    uint64 = 2 << 30             // off-chip DRAM, "several GB"
	SRAMLatency        = 70 * sim.Nanosecond // "≈70 ns"

	cacheLatency = 300 * sim.Nanosecond // off-chip tiers, "300–400 ns"
	dramLatency  = 400 * sim.Nanosecond

	defaultRMWEngines = 12
)

// tiers tile the unified address space from 0.
var tiers = [numTiers]Tier{
	TierSRAM:  {Kind: TierSRAM, Base: 0, Size: SRAMSize, Latency: SRAMLatency},
	TierCache: {Kind: TierCache, Base: SRAMSize, Size: CacheSize, Latency: cacheLatency},
	TierDRAM:  {Kind: TierDRAM, Base: SRAMSize + CacheSize, Size: DRAMSize, Latency: dramLatency},
}

const pageSize = 4096

// engine is one read-modify-write engine: a serialization point for a slice
// of the address space. Occupancy is tracked as a cycle backlog that drains
// at one cycle per CycleTime: queueing delay appears exactly when offered
// load exceeds the engine's 8-bytes-per-cycle service rate. (Threads run to
// completion in the simulator and issue operations with future timestamps;
// backlog accounting keeps ops issued out of virtual-time order from
// fabricating contention that the hardware would not see.)
type engine struct {
	lastTime    sim.Time
	backlog     uint64 // unserviced cycles as of lastTime
	ops         uint64
	busyCycles  uint64
	backlogged  uint64 // requests that found a backlog
	maxQueueing sim.Time
}

// Memory is a shared memory system instance. It is not safe for concurrent
// use; the simulation is single-threaded by design.
type Memory struct {
	cfg     Config
	pages   map[uint64]*[pageSize]byte
	engines []engine
	allocs  [numTiers]uint64 // bump-allocator cursors, relative to tier base

	// One-entry page cache: data-path access runs in tight sequential
	// bursts (gradient vectors, record fields), so the last page hit
	// answers nearly every lookup without touching the page map.
	lastPageIdx uint64
	lastPage    *[pageSize]byte

	// Histograms attached by RegisterObs; obsOn keeps the default data
	// path to a single predictable branch.
	obsOn     bool
	tierHist  [numTiers]*obs.Histogram
	queueHist *obs.Histogram

	faults *faults.MemInjector // nil: bank-error injection off (the default)
}

// SetFaults attaches a bank-error injector (nil: off). An injected bank
// error models a detected-and-retried ECC event on the owning RMW engine:
// the request's data is exact, but it occupies the engine for the injector's
// extra retry cycles, and the delay backpressures through the engine's
// backlog exactly like real load.
func (m *Memory) SetFaults(f *faults.MemInjector) { m.faults = f }

// New builds a memory system from cfg; a zero engine count takes the
// default.
func New(cfg Config) *Memory {
	if cfg.NumRMWEngines == 0 {
		cfg.NumRMWEngines = defaultRMWEngines
	}
	return &Memory{
		cfg:     cfg,
		pages:   make(map[uint64]*[pageSize]byte),
		engines: make([]engine, cfg.NumRMWEngines),
	}
}

// Config reports the configuration in effect (with defaults applied).
func (m *Memory) Config() Config { return m.cfg }

// tierAt resolves addr to its tier and the first address past that tier (the
// tiers tile the unified space from 0, so one upper-bound ladder over the
// constant tier sizes decides); an address outside the space has end 0. It
// makes no call and reads no table, so it inlines into the kernels.
func tierAt(addr uint64) (TierKind, uint64) {
	switch {
	case addr < SRAMSize:
		return TierSRAM, SRAMSize
	case addr < SRAMSize+CacheSize:
		return TierCache, SRAMSize + CacheSize
	case addr < SRAMSize+CacheSize+DRAMSize:
		return TierDRAM, SRAMSize + CacheSize + DRAMSize
	}
	return numTiers, 0
}

// Alloc reserves size bytes in the given tier (control-plane operation: job
// configuration allocates aggregation buffers and record stores this way).
// The returned address is 8-byte aligned.
func (m *Memory) Alloc(kind TierKind, size uint64) uint64 {
	t := &tiers[kind]
	cur := (m.allocs[kind] + 7) &^ 7
	if cur+size > t.Size {
		panic(fmt.Sprintf("smem: %v exhausted (%d of %d bytes used, need %d)", kind, cur, t.Size, size))
	}
	m.allocs[kind] = cur + size
	return t.Base + cur
}

// page returns the backing page containing addr, allocating it on demand.
func (m *Memory) page(addr uint64) *[pageSize]byte {
	idx := addr / pageSize
	if p := m.lastPage; p != nil && idx == m.lastPageIdx {
		return p
	}
	p, ok := m.pages[idx]
	if !ok {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	m.lastPageIdx, m.lastPage = idx, p
	return p
}

// run returns a direct view of backing memory from addr to the end of its
// page, capped at limit bytes: the vector kernels resolve the page once per
// run and work on the bytes in place.
func (m *Memory) run(addr uint64, limit int) []byte {
	off := int(addr % pageSize)
	return m.page(addr)[off:min(off+limit, pageSize)]
}

func (m *Memory) load(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		off := addr % pageSize
		n := copy(b, p[off:])
		b = b[n:]
		addr += uint64(n)
	}
}

func (m *Memory) store(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr)
		off := addr % pageSize
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// serviceCycles converts a request size to engine occupancy: 8 bytes per
// cycle, with read-modify-write ops costing opCycles per 8-byte word.
func serviceCycles(size int, opCyclesPerWord uint64) uint64 {
	words := uint64((size + 7) / 8)
	if words == 0 {
		words = 1
	}
	return words * opCyclesPerWord
}

// issueOne charges the single request of a scalar op or an 8–64-byte
// transaction, issued at now, and returns its completion time: with no fault
// injector or histograms attached, one engine booking and no run or
// transaction bookkeeping; otherwise issueAt's per-request path.
func (m *Memory) issueOne(now sim.Time, addr uint64, cycles uint64) sim.Time {
	if m.faults != nil || m.obsOn {
		return m.issueAt(now, nil, addr, 0, 1, cycles)
	}
	return m.request(now, addr, cycles)
}

// request books one request of cycles on the engine owning addr, issued at
// now, and returns its completion: queueing + service + tier latency.
func (m *Memory) request(now sim.Time, addr uint64, cycles uint64) sim.Time {
	k, end := tierAt(addr)
	if end == 0 {
		outsideSpace(addr)
	}
	q := m.engines[(addr/8)%uint64(len(m.engines))].book(now, cycles)
	return now + sim.Time(cycles)*CycleTime + tiers[k].Latency + q
}

// outsideSpace panics with the one fault text for an address past the
// unified space; kept out of line so the booking paths stay small.
//
//go:noinline
func outsideSpace(addr uint64) {
	panic(fmt.Sprintf("smem: address %#x outside unified address space", addr))
}

// book is the per-request engine rule every path shares: the backlog drains
// one cycle per CycleTime since the engine's last request, the request queues
// behind what is left, then occupies the engine for cycles. It returns the
// queueing delay. A request stamped before the engine's last one (threads run
// to completion and issue with future stamps) drains nothing.
func (e *engine) book(now sim.Time, cycles uint64) sim.Time {
	// floor(dt/CycleTime) >= backlog exactly when dt >= backlog*CycleTime,
	// so only a partial drain pays the division.
	queue := sim.Time(e.backlog) * CycleTime
	if dt := now - e.lastTime; dt > 0 {
		if dt >= queue {
			e.backlog, queue = 0, 0
		} else {
			e.backlog -= uint64(dt / CycleTime)
			queue = sim.Time(e.backlog) * CycleTime
		}
		e.lastTime = now
	}
	if queue > 0 {
		e.backlogged++
		e.maxQueueing = max(e.maxQueueing, queue)
	}
	e.backlog += cycles
	e.ops++
	e.busyCycles += cycles
	return queue
}

// pace is the issue schedule of a run of requests as a thread's loop issues
// them: transactions of per requests each (the last may be shorter),
// transaction t issued at at[t]. done, when non-nil, receives each
// transaction's completion time.
type pace struct {
	at   []sim.Time
	per  int
	done []sim.Time
}

// issueAt charges count requests — request i to the RMW engine owning
// addr+i*stride, cycles of service each — issued together at now, or paced
// by p (a paced run ignores now), and returns the latest PPE-observed
// completion time (engines work in parallel across banks). Every
// multi-request data-path operation is accounted here; a single request
// goes through issueOne. With a fault injector or histograms attached the
// requests are booked one at a time by request, a bank error drawn before
// each and its queueing and full latency observed after; charge books
// requests in address order, so one at a time and all at once are the same
// thing.
func (m *Memory) issueAt(now sim.Time, p *pace, addr, stride uint64, count int, cycles uint64) sim.Time {
	if m.faults == nil && !m.obsOn {
		return m.charge(now, p, addr, stride, count, cycles)
	}
	var latest sim.Time
	if p != nil {
		clear(p.done)
	}
	for j := 0; j < count; j, addr = j+1, addr+stride {
		t := 0
		if p != nil {
			t = j / p.per
			now = p.at[t]
		}
		c := cycles
		if m.faults != nil {
			c += m.faults.BankError()
		}
		d := m.request(now, addr, c)
		if m.obsOn {
			k, _ := tierAt(addr)
			m.queueHist.Observe(float64(d - now - tiers[k].Latency - sim.Time(c)*CycleTime))
			m.tierHist[k].Observe(float64(d - now))
		}
		if p != nil && p.done != nil {
			p.done[t] = max(p.done[t], d)
		}
		latest = max(latest, d)
	}
	return latest
}

// charge is the occupancy kernel under issueAt: it books the requests on
// their engines and returns the latest completion time, queueing + service +
// tier latency. Consecutive 8-byte words stripe across the engines at stride
// 1, so the walk steps an engine index instead of dividing per request (at
// 12 engines a 16-gradient chunk touches 8 distinct engines once each), and
// the tier is resolved once per run of requests up to the tier's end.
// Requests are booked in address order, each at its transaction's issue
// time, so an engine that a long vector wraps onto finds its own earlier
// words as backlog: a packet's whole gradient run booked in one walk is the
// same request sequence as one call per 64-byte chunk.
func (m *Memory) charge(now sim.Time, p *pace, addr, stride uint64, count int, cycles uint64) sim.Time {
	if count == 0 {
		return 0
	}
	engines := m.engines
	n := uint64(len(engines))
	idx, step := (addr/8)%n, stride/8
	if step >= n {
		step %= n
	}
	t, left := 0, count // one transaction, unless paced
	if p != nil {
		now, left = p.at[0], p.per
		clear(p.done)
	}
	var latest sim.Time
	for count > 0 {
		k, end := tierAt(addr)
		if end == 0 {
			outsideSpace(addr)
		}
		span := count
		if addr+stride*uint64(count-1) >= end {
			span = int((end-1-addr)/stride) + 1
		}
		count -= span
		addr += stride * uint64(span)
		fixed := sim.Time(cycles)*CycleTime + tiers[k].Latency // completion past issue with no queue
		for span > 0 {
			if left == 0 { // the next transaction of a paced run
				t++
				now, left = p.at[t], p.per
			}
			r := min(left, span)
			left, span = left-r, span-r
			var worst sim.Time // the longest queue the piece's requests found
			for ; r > 0; r-- {
				worst = max(worst, engines[idx].book(now, cycles))
				if idx += step; idx >= n {
					idx -= n
				}
			}
			c := now + fixed + worst
			latest = max(latest, c)
			if p != nil && p.done != nil {
				p.done[t] = max(p.done[t], c)
			}
		}
	}
	return latest
}

// MaxTxnBytes is the largest read or write transaction.
const MaxTxnBytes = 64

func checkTxnSize(size int) {
	if size < 8 || size > MaxTxnBytes || size%8 != 0 {
		panic(fmt.Sprintf("smem: transaction size %d outside 8..64 in 8-byte increments", size))
	}
}

// ReadInto performs a read transaction of len(b) = 8–64 bytes (8-byte
// increments) into b, returning the virtual completion time.
func (m *Memory) ReadInto(now sim.Time, addr uint64, b []byte) sim.Time {
	checkTxnSize(len(b))
	return m.readInto(now, addr, b)
}

// readInto is ReadInto with the size already checked.
func (m *Memory) readInto(now sim.Time, addr uint64, b []byte) sim.Time {
	m.load(addr, b)
	return m.issueOne(now, addr, serviceCycles(len(b), 1))
}

// ReadStaged is ReadInto into buf[:size], which it returns: what an XTXN
// environment that hands out one reply at a time uses.
func (m *Memory) ReadStaged(now sim.Time, addr uint64, size int, buf *[MaxTxnBytes]byte) ([]byte, sim.Time) {
	checkTxnSize(size)
	b := buf[:size]
	return b, m.readInto(now, addr, b)
}

// Write performs a write transaction of 8–64 bytes (8-byte increments).
func (m *Memory) Write(now sim.Time, addr uint64, data []byte) sim.Time {
	checkTxnSize(len(data))
	m.store(addr, data)
	return m.issueOne(now, addr, serviceCycles(len(data), 1))
}

// WriteAt writes data as a thread's loop issues it: one write transaction
// per MaxTxnBytes, transaction i at at[i], the last one zero-padded to the
// 8-byte grain. done, when non-nil, receives each transaction's completion
// time. It returns the latest completion; at and done hold a time per
// transaction.
func (m *Memory) WriteAt(at []sim.Time, addr uint64, data []byte, done []sim.Time) sim.Time {
	full, rest := len(data)/MaxTxnBytes, len(data)%MaxTxnBytes
	m.store(addr, data)
	var zero [8]byte
	m.store(addr+uint64(len(data)), zero[:-rest&7])
	p := pace{at: at, per: 1, done: done}
	latest := m.issueAt(0, &p, addr, MaxTxnBytes, full, MaxTxnBytes/8)
	if rest > 0 {
		p.at = at[full:]
		if done != nil {
			p.done = done[full:]
		}
		latest = max(latest, m.issueAt(0, &p, addr+uint64(MaxTxnBytes*full), 0, 1, serviceCycles(rest, 1)))
	}
	return latest
}

// ReadRaw reads arbitrary bytes without engine accounting — a control-plane
// or debugging view of memory (e.g. verifying an aggregation buffer in
// tests). The data path must use the transaction API.
func (m *Memory) ReadRaw(addr uint64, size int) []byte {
	b := make([]byte, size)
	m.load(addr, b)
	return b
}

// WriteRaw writes arbitrary bytes without engine accounting (control plane).
func (m *Memory) WriteRaw(addr uint64, data []byte) { m.store(addr, data) }

// EngineStats summarizes one RMW engine's activity.
type EngineStats struct {
	Ops         uint64
	BusyCycles  uint64
	Backlogged  uint64
	MaxQueueing sim.Time
}

// Stats reports per-engine statistics, indexed by engine number.
func (m *Memory) Stats() []EngineStats {
	out := make([]EngineStats, len(m.engines))
	for i, e := range m.engines {
		out[i] = EngineStats{Ops: e.ops, BusyCycles: e.busyCycles, Backlogged: e.backlogged, MaxQueueing: e.maxQueueing}
	}
	return out
}

// TotalOps sums operations across all engines.
func (m *Memory) TotalOps() uint64 {
	var n uint64
	for _, e := range m.engines {
		n += e.ops
	}
	return n
}
