package hostagg

import (
	"cmp"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trioml/triogo/internal/aggcore"
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/replay"
)

// ServerConfig parameterizes an aggregation server.
type ServerConfig struct {
	// ListenAddr is the UDP address to bind, e.g. ":12000".
	ListenAddr string
	// NumWorkers is the number of sources per job; src_ids are 0..N-1.
	NumWorkers int
	// Timeout ages out blocks missing contributions (straggler mitigation).
	// Zero disables aging (SwitchML-like semantics).
	Timeout time.Duration
	// ScanInterval is how often the server's aging sweep runs; defaults to
	// Timeout/4 (the host-side analogue of N staggered timer threads).
	ScanInterval time.Duration
	// Logger receives operational messages; nil uses slog.Default.
	Logger *slog.Logger

	// MaxOpenBlocks bounds the table's open (partially aggregated) blocks;
	// contributions that would create a block beyond it are shed (counted
	// in Stats.Shed). Zero means unlimited.
	MaxOpenBlocks int
	// MaxBlocksPerJob bounds the open blocks any one job may hold, so a
	// runaway or malicious job cannot evict everyone else. Zero: unlimited.
	MaxBlocksPerJob int
	// JobIdleTimeout evicts all state of a job that has not sent a packet
	// for this long: its open blocks are discarded without emitting and its
	// worker registrations are dropped (counted in Stats.JobsExpired).
	// Zero disables; it requires Timeout > 0 (the aging sweep does the work).
	JobIdleTimeout time.Duration
	// ReplayWindow retains the table's last N served results and replays
	// them to sources that retransmit a contribution for an already-served
	// block — without it such a retransmit recreates the block and the
	// source receives a wrong one-source result (or none, with aging off).
	// Zero disables the cache.
	ReplayWindow int
	// Faults attaches deterministic recv-drop and table-crash injection;
	// nil (the default) leaves the server fault-free.
	Faults *faults.HostaggInjector

	// TenantQuotas configures per-tenant admission quotas, keyed by tenant
	// id. Jobs map to tenants through JobTenants; unmapped jobs get a tenant
	// of their own job id (one-tenant-per-job).
	TenantQuotas map[uint8]TenantQuota
	// JobTenants maps job ids to tenant ids, letting several jobs share one
	// tenant's quotas. Jobs absent from the map are their own tenant.
	JobTenants map[uint8]uint8
	// RetryAfter is the back-off suggested in retry-after NACKs (sent to
	// refused senders once the overload ladder reaches pressure). Zero picks
	// 20ms.
	RetryAfter time.Duration
}

type blockState struct {
	// buf is the block as it leaves: headroom for the result header, then
	// the big-endian lanes summed so far.
	buf      []byte
	rcvdMask aggcore.Mask
	rcvdCnt  int
	genID    uint16
	final    bool
	lastRef  time.Time
	refFlag  bool // cleared by the sweep, set by packets (REF semantics)

	tenant *tenantState // owning tenant (never nil), charged for the block while open
	bytes  int64        // gradient bytes charged against the tenant
}

// Table is the block table and everything around the protocol decision,
// aggcore.Decide (see "Table and shell" in the package documentation): no
// socket, no goroutine, no clock.
// Handle and Sweep are safe for concurrent use: one mutex guards the block
// map, the replay cache, the fault stream, the worker registry and the
// per-job accounting, and nothing is sent while it is held.
type Table struct {
	cfg ServerConfig // defaults filled in
	job aggcore.Job  // sources 0..NumWorkers-1, blocks of up to MaxGradientsPerPacket

	mu     sync.Mutex
	blocks map[uint64]*blockState
	free   []*blockState // released records, reused by the next opens
	arena  []byte        // the uncut rest of the chunk block buffers are cut from

	// served keeps recently emitted result datagrams, immutable, for Replay
	// (nil with ReplayWindow 0), keyed by block key with the generation.
	served *replay.Cache[[]byte]

	flt *faults.HostaggTable // injected recv-drop/crash stream; nil when off

	workers map[uint16]*net.UDPAddr // job<<8|src_id -> return address

	// Per-job accounting, indexed by the 8-bit job id.
	jobOpen    [256]int64 // open blocks per job
	jobLast    [256]int64 // unix-nano of the job's last packet
	jobExpired [256]bool  // set while a job stands evicted

	// Written under mu; atomic because Stats, Pending, the metrics exporter
	// and the pre-lock NACK gate read them without it.
	openBlocks atomic.Int64
	overload   atomic.Int32 // ladder rung: stateNormal/statePressure/stateOverload

	tenants *tenantTable

	counters serverCounters
}

// ServerStats is a snapshot of the server's activity counters (via Stats).
type ServerStats struct {
	Packets      uint64
	Duplicates   uint64
	StaleDrops   uint64
	Completed    uint64
	Degraded     uint64
	BadPackets   uint64
	GenRestarts  uint64 // open blocks superseded by a newer generation
	GradMismatch uint64 // contributions refused because their gradient count differed from the open block's

	Shed           uint64 // contributions refused by MaxOpenBlocks/MaxBlocksPerJob
	JobsExpired    uint64 // jobs evicted whole by JobIdleTimeout
	BlocksTimedOut uint64 // open blocks aged out by the sweep
	ResultReplays  uint64 // retransmits answered from the served-result cache

	Malformed      uint64 // datagrams rejected at decode: truncated, oversized, garbage
	QuotaShed      uint64 // block creations refused by the sender tenant's own quota
	RateShed       uint64 // packets dropped by a tenant's token bucket
	FairEvictions  uint64 // open blocks displaced by weighted-fair shedding
	NacksSent      uint64 // retry-after NACKs sent to refused senders
	PressureEnters uint64 // ladder transitions into pressure (or higher) from normal
	OverloadEnters uint64 // ladder transitions into overload
	OverloadState  string // current ladder rung: normal, pressure, overload
}

// serverCounters are the live atomic counters behind ServerStats.
type serverCounters struct {
	packets      atomic.Uint64
	duplicates   atomic.Uint64
	staleDrops   atomic.Uint64
	completed    atomic.Uint64
	degraded     atomic.Uint64
	badPackets   atomic.Uint64
	genRestarts  atomic.Uint64
	gradMismatch atomic.Uint64

	shed           atomic.Uint64
	jobsExpired    atomic.Uint64
	blocksTimedOut atomic.Uint64
	resultReplays  atomic.Uint64

	malformed      atomic.Uint64
	quotaShed      atomic.Uint64
	rateShed       atomic.Uint64
	fairEvictions  atomic.Uint64
	nacksSent      atomic.Uint64
	pressureEnters atomic.Uint64
	overloadEnters atomic.Uint64
}

// key packs (job, block) like the data-plane hash key.
func key(job uint8, block uint32) uint64 { return uint64(job)<<32 | uint64(block) }

// NewTable validates cfg, fills its defaults and builds an empty block table.
// ListenAddr belongs to the Server shell and is ignored here.
func NewTable(cfg ServerConfig) (*Table, error) {
	if cfg.NumWorkers <= 0 || cfg.NumWorkers > 64 {
		return nil, fmt.Errorf("hostagg: workers must be 1..64, got %d", cfg.NumWorkers)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.ScanInterval == 0 && cfg.Timeout > 0 {
		cfg.ScanInterval = cfg.Timeout / 4
	}
	if cfg.JobIdleTimeout > 0 && cfg.Timeout <= 0 {
		return nil, fmt.Errorf("hostagg: JobIdleTimeout requires Timeout > 0 (the aging sweep runs the eviction)")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 20 * time.Millisecond
	}
	var members aggcore.Mask
	for src := 0; src < cfg.NumWorkers; src++ {
		members.Set(uint8(src))
	}
	t := &Table{
		cfg:     cfg,
		job:     aggcore.NewJob(members, packet.MaxGradientsPerPacket),
		blocks:  make(map[uint64]*blockState),
		workers: make(map[uint16]*net.UDPAddr),
		tenants: newTenantTable(cfg.TenantQuotas, cfg.JobTenants),
	}
	if cfg.ReplayWindow > 0 {
		t.served = replay.New[[]byte](cfg.ReplayWindow)
	}
	if cfg.Faults != nil {
		t.flt = cfg.Faults.Table()
	}
	return t, nil
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() ServerStats {
	return ServerStats{
		Packets:      t.counters.packets.Load(),
		Duplicates:   t.counters.duplicates.Load(),
		StaleDrops:   t.counters.staleDrops.Load(),
		Completed:    t.counters.completed.Load(),
		Degraded:     t.counters.degraded.Load(),
		BadPackets:   t.counters.badPackets.Load(),
		GenRestarts:  t.counters.genRestarts.Load(),
		GradMismatch: t.counters.gradMismatch.Load(),

		Shed:           t.counters.shed.Load(),
		JobsExpired:    t.counters.jobsExpired.Load(),
		BlocksTimedOut: t.counters.blocksTimedOut.Load(),
		ResultReplays:  t.counters.resultReplays.Load(),

		Malformed:      t.counters.malformed.Load(),
		QuotaShed:      t.counters.quotaShed.Load(),
		RateShed:       t.counters.rateShed.Load(),
		FairEvictions:  t.counters.fairEvictions.Load(),
		NacksSent:      t.counters.nacksSent.Load(),
		PressureEnters: t.counters.pressureEnters.Load(),
		OverloadEnters: t.counters.overloadEnters.Load(),
		OverloadState:  overloadStateName(t.overload.Load()),
	}
}

// Handle runs one datagram through decode, admission and aggregation as of
// now. Whatever leaves — a completed or replayed result, a retry-after NACK —
// is handed to send, synchronously and before Handle returns. send must not
// modify or retain the bytes: a result is the replay cache's own datagram.
// from is retained as the source's return address.
func (t *Table) Handle(now time.Time, payload []byte, from *net.UDPAddr, send func([]byte, *net.UDPAddr)) {
	var h packet.TrioML
	rest, err := h.Unmarshal(payload)
	if err != nil {
		// Truncated or garbage datagram: it never decoded, so it is
		// malformed wire data, not a protocol-level bad packet.
		t.counters.malformed.Add(1)
		return
	}
	// Length-validate only: the table keeps wire lanes and never decodes
	// them. The body must hold exactly GradCnt gradients — a short body is
	// truncated and an over-long one is an oversized datagram whose tail
	// would silently vanish; both are malformed.
	if int(h.GradCnt) > packet.MaxGradientsPerPacket || len(rest) != 4*int(h.GradCnt) {
		t.counters.malformed.Add(1)
		return
	}
	n := int(h.GradCnt)
	if !t.job.Admits(h.SrcID, n) {
		// A source outside the fleet, or an empty block: a protocol
		// violation, refused before Packets, the rate limiter and the lock.
		t.counters.badPackets.Add(1)
		return
	}
	t.counters.packets.Add(1)
	tn := t.tenants.tenantOf(h.JobID)
	tn.packets.Add(1)
	if !tn.allowPacket(now) {
		// Token-bucket shed: the tenant is over its packet rate. Dropped
		// before registration and before the table lock, so a flooding
		// tenant costs the server almost nothing per excess packet.
		tn.rateShed.Add(1)
		t.counters.rateShed.Add(1)
		t.sendNack(now, send, from, &h, tn, packet.RetryReasonQuota)
		return
	}

	k := key(h.JobID, h.BlockID)
	t.mu.Lock()
	t.workers[uint16(h.JobID)<<8|uint16(h.SrcID)] = from
	t.jobLast[h.JobID] = now.UnixNano()
	t.jobExpired[h.JobID] = false
	if t.flt != nil && t.flt.DropRecv() {
		// Injected ingress loss: the contribution vanishes before the
		// aggregation logic sees it (the injector counted it).
		t.mu.Unlock()
		return
	}
	b := t.blocks[k]
	var blk aggcore.Block
	var cached []byte
	if b != nil {
		blk = aggcore.Record(b.genID, int(b.bytes/4), &b.rcvdMask)
	} else if t.served != nil && t.overload.Load() < statePressure {
		// The replay cache is a nicety the ladder sheds first: at pressure
		// and above, lookups are skipped so retransmits for served blocks
		// fall through to admission (and are themselves shed if over quota).
		if res, gen, ok := t.served.Lookup(k); ok {
			cached, blk = res, aggcore.Cached(gen)
		}
	}
	act := aggcore.Decide(h.SrcID, h.GenID, n, &t.job, &blk)
	switch act {
	case aggcore.Refuse: // admitted before the lock, so a size mismatch
		t.counters.gradMismatch.Add(1)
	case aggcore.Stale:
		t.counters.staleDrops.Add(1)
	case aggcore.Duplicate:
		t.counters.duplicates.Add(1)
	case aggcore.Replay:
		// The cached datagram, to the retransmitting sender only.
		t.mu.Unlock()
		t.counters.resultReplays.Add(1)
		send(cached, from)
		return
	case aggcore.Restart:
		// A close, then an open: the superseded record returns its bytes,
		// and the new generation is admitted as any new block is.
		t.releaseLocked(k, b)
		t.counters.genRestarts.Add(1)
		fallthrough
	case aggcore.Open:
		if cached != nil {
			t.served.Delete(k) // a newer generation reuses the id
		}
		blockBytes := 4 * int64(n)
		atCap := t.cfg.MaxOpenBlocks > 0 && t.openBlocks.Load() >= int64(t.cfg.MaxOpenBlocks)
		var shed *atomic.Uint64
		reason := uint8(packet.RetryReasonQuota)
		switch {
		case t.cfg.MaxBlocksPerJob > 0 && t.jobOpen[h.JobID] >= int64(t.cfg.MaxBlocksPerJob):
			shed = &t.counters.shed
		case (tn.quota.MaxOpenBlocks > 0 && tn.open.Load() >= int64(tn.quota.MaxOpenBlocks)) ||
			(tn.quota.MaxBytesInFlight > 0 && tn.bytes.Load()+blockBytes > tn.quota.MaxBytesInFlight):
			// The tenant's own quota is exhausted: shed regardless of how
			// idle the rest of the server is.
			shed = &t.counters.quotaShed
		case (atCap || t.overload.Load() == stateOverload) && !t.fairEvictLocked(tn):
			// Global pressure: admission is only by displacement. A tenant
			// under its fair share evicts one block of the tenant furthest
			// over; the furthest-over tenant itself is refused, so an
			// aggressor's storm is absorbed by the aggressor.
			shed, reason = &t.counters.shed, packet.RetryReasonOverload
		}
		if shed != nil {
			shed.Add(1)
			tn.shed.Add(1)
			t.mu.Unlock()
			t.sendNack(now, send, from, &h, tn, reason)
			return
		}
		b = t.openLocked(k, &h, rest, tn)
	case aggcore.Add:
		packet.AddLanes(b.buf[packet.TrioMLHeaderLen:], rest)
		b.final = b.final || h.Final
	}
	if !act.Adds() {
		t.mu.Unlock()
		return
	}
	b.rcvdMask.Set(h.SrcID)
	b.rcvdCnt++
	b.lastRef = now
	b.refFlag = true

	var res []byte
	to := make([]*net.UDPAddr, 0, 64) // on the stack: NewTable caps NumWorkers at 64
	if b.rcvdCnt >= t.cfg.NumWorkers {
		res = t.serveLocked(k, b, false)
		t.counters.completed.Add(1)
		if t.served != nil && t.overload.Load() < statePressure {
			t.served.Put(k, h.GenID, res)
		}
		to = t.targetsLocked(to, h.JobID)
	}
	if t.flt != nil && t.flt.CrashNow() {
		t.crashLocked()
	}
	t.mu.Unlock()

	for _, a := range to {
		send(res, a)
	}
}

// arenaBytes is the chunk block buffers are cut from, each once: 31 full
// blocks to 128 KiB, not 4108 bytes in a 4864-byte size class each. The GC
// frees a chunk once no open block, cached result or send holds a buffer.
const arenaBytes = 128 << 10

// openLocked and releaseLocked are how a record enters and leaves the table:
// they keep the global, per-job and tenant open/bytes accounting, re-evaluate
// the overload ladder and recycle records. A new record copies the first
// contribution's lanes behind the headroom. Caller holds t.mu.
func (t *Table) openLocked(k uint64, h *packet.TrioML, lanes []byte, tn *tenantState) *blockState {
	var b *blockState
	if i := len(t.free) - 1; i >= 0 {
		b, t.free = t.free[i], t.free[:i]
	} else {
		b = new(blockState)
	}
	n := packet.TrioMLHeaderLen + len(lanes)
	if len(t.arena) < n {
		t.arena = make([]byte, arenaBytes)
	}
	*b = blockState{buf: t.arena[:n:n], genID: h.GenID, final: h.Final, tenant: tn, bytes: int64(len(lanes))}
	t.arena = t.arena[n:]
	copy(b.buf[packet.TrioMLHeaderLen:], lanes)
	t.blocks[k] = b
	t.openBlocks.Add(1)
	t.jobOpen[h.JobID]++
	tn.open.Add(1)
	tn.bytes.Add(b.bytes)
	t.updateOverload()
	return b
}

func (t *Table) releaseLocked(k uint64, b *blockState) {
	delete(t.blocks, k)
	t.openBlocks.Add(-1)
	t.jobOpen[uint8(k>>32)]--
	b.tenant.open.Add(-1)
	b.tenant.bytes.Add(-b.bytes)
	t.updateOverload()
	*b = blockState{}
	t.free = append(t.free, b)
}

// serveLocked releases block k and returns its result: the header marshalled
// into the buffer's headroom makes the buffer the result datagram, which the
// replay cache may keep, so nothing writes it again. Caller holds t.mu.
func (t *Table) serveLocked(k uint64, b *blockState, degraded bool) []byte {
	hdr := packet.TrioML{
		JobID: uint8(k >> 32), BlockID: uint32(k), GenID: b.genID, SrcID: packet.ResultSrcID,
		SrcCnt: uint8(b.rcvdCnt), Degraded: degraded, Final: b.final, GradCnt: uint16(b.bytes / 4),
	}
	if degraded {
		hdr.AgeOp = 1
	}
	hdr.MarshalTo(b.buf)
	res := b.buf
	t.releaseLocked(k, b)
	return res
}

// fairEvictLocked admits one block for tn while the server is at its global
// cap (or in the overload rung) by displacing an open block of the tenant
// furthest over its weighted fair share (open blocks per unit of weight).
// It returns false — refuse the arrival — when tn itself is or would become
// the furthest-over tenant, which is exactly how an aggressor's storm ends
// up absorbed by the aggressor. Caller holds t.mu.
func (t *Table) fairEvictLocked(tn *tenantState) bool {
	var worst *tenantState
	var worstShare float64
	for _, cand := range t.tenants.snapshot() {
		if cand.open.Load() == 0 {
			continue
		}
		if share := cand.overShare(0); worst == nil || share > worstShare {
			worst, worstShare = cand, share
		}
	}
	if worst == nil || tn.overShare(1) >= worstShare {
		return false
	}
	return t.evictTenantBlockLocked(worst)
}

// evictTenantBlockLocked discards victim's least recently referenced open
// block (ties to the lowest key, so the choice never depends on map order),
// without emitting — its sources recover by retransmitting once the storm
// passes. Caller holds t.mu.
func (t *Table) evictTenantBlockLocked(victim *tenantState) bool {
	var key uint64
	var stalest *blockState
	for k, b := range t.blocks {
		if b.tenant != victim {
			continue
		}
		if stalest == nil || b.lastRef.Before(stalest.lastRef) || (b.lastRef.Equal(stalest.lastRef) && k < key) {
			key, stalest = k, b
		}
	}
	if stalest == nil {
		return false
	}
	t.releaseLocked(key, stalest)
	victim.evicted.Add(1)
	t.counters.fairEvictions.Add(1)
	return true
}

// sendNack answers a refused contribution with a retry-after control packet
// echoing the refused header. NACKs flow only once the ladder is at pressure
// or above — below that, the client's own retransmit cadence is recovery
// enough — and are rate-limited per tenant so a refusal storm cannot amplify
// into a NACK storm.
func (t *Table) sendNack(now time.Time, send func([]byte, *net.UDPAddr), from *net.UDPAddr, h *packet.TrioML, tn *tenantState, reason uint8) {
	if t.overload.Load() < statePressure {
		return
	}
	nowNs := now.UnixNano()
	minGap := int64(t.cfg.RetryAfter) / 4
	for {
		last := tn.lastNack.Load()
		if last != 0 && nowNs-last < minGap {
			return
		}
		if tn.lastNack.CompareAndSwap(last, nowNs) {
			break
		}
	}
	tn.nacks.Add(1)
	t.counters.nacksSent.Add(1)
	send(packet.BuildRetryAfter(*h, reason, uint32(t.cfg.RetryAfter/time.Millisecond)), from)
}

// crashLocked models an injected table crash: every open (partial) block is
// discarded without emitting, as if the aggregation state was lost and
// restarted empty. The served-result cache survives — sources recover
// completed blocks by retransmitting into the replay path, and partial blocks
// by retransmitting contributions that rebuild them from scratch. Caller
// holds t.mu.
func (t *Table) crashLocked() {
	for k, b := range t.blocks {
		t.releaseLocked(k, b)
	}
}

// targetsLocked appends the return addresses of a job's registered workers
// to dst, in source-id order. Caller holds t.mu.
func (t *Table) targetsLocked(dst []*net.UDPAddr, job uint8) []*net.UDPAddr {
	for src := 0; src < t.cfg.NumWorkers; src++ {
		if a := t.workers[uint16(job)<<8|uint16(src)]; a != nil {
			dst = append(dst, a)
		}
	}
	return dst
}

// agedBlock is one degraded result a sweep emits, held with its generation
// and its job's return addresses until the table lock drops.
type agedBlock struct {
	key uint64
	gen uint16
	res []byte
	to  []*net.UDPAddr
}

// Sweep is the host analogue of §5's timer threads: one pass over the block
// records as of now, clearing REF flags, emitting (through send, as Handle
// does) a degraded partial result for each record not referenced for a full
// Timeout, and discarding jobs idle past JobIdleTimeout. It is a no-op with
// aging off (Timeout zero).
func (t *Table) Sweep(now time.Time, send func([]byte, *net.UDPAddr)) {
	if t.cfg.Timeout <= 0 {
		return
	}
	var aged []agedBlock
	t.mu.Lock()
	ladder := t.overload.Load()
	idleCutoff := int64(0)
	if t.cfg.JobIdleTimeout > 0 {
		idle := t.cfg.JobIdleTimeout
		if ladder == stateOverload {
			// Overload accelerates reclamation: a job only a quarter of
			// the way to idle eviction is evicted now, returning its
			// blocks to tenants that are still making progress.
			idle /= 4
		}
		idleCutoff = now.UnixNano() - int64(idle)
	}
	for k, b := range t.blocks {
		job := uint8(k >> 32)
		if idleCutoff != 0 {
			if last := t.jobLast[job]; last != 0 && last < idleCutoff {
				// The whole job went quiet: discard its blocks without
				// emitting, and count the job and drop its worker
				// registrations once — until Handle hears from it again.
				t.releaseLocked(k, b)
				if !t.jobExpired[job] {
					t.jobExpired[job] = true
					t.counters.jobsExpired.Add(1)
					t.dropJobWorkersLocked(job)
				}
				continue
			}
		}
		if b.refFlag {
			b.refFlag = false
			continue
		}
		if now.Sub(b.lastRef) >= t.cfg.Timeout && b.rcvdCnt > 0 {
			gen := b.genID // serveLocked clears b
			aged = append(aged, agedBlock{key: k, gen: gen, res: t.serveLocked(k, b, true)})
			t.counters.degraded.Add(1)
			t.counters.blocksTimedOut.Add(1)
		}
	}
	// Serve and emit in key order, not map order: what a sweep sends is a
	// function of the table and now alone.
	slices.SortFunc(aged, func(x, y agedBlock) int { return cmp.Compare(x.key, y.key) })
	for i := range aged {
		a := &aged[i]
		if t.served != nil && ladder < statePressure {
			// An aged block is served too: retransmits for it replay the
			// same degraded result instead of re-opening it.
			t.served.Put(a.key, a.gen, a.res)
		}
		a.to = t.targetsLocked(nil, uint8(a.key>>32))
	}
	t.mu.Unlock()
	for _, a := range aged {
		for _, to := range a.to {
			send(a.res, to)
		}
	}
}

// dropJobWorkersLocked removes every worker registration belonging to job.
// Caller holds t.mu.
func (t *Table) dropJobWorkersLocked(job uint8) {
	for k := range t.workers {
		if uint8(k>>8) == job {
			delete(t.workers, k)
		}
	}
}

// Pending reports the number of open (partially aggregated) blocks.
func (t *Table) Pending() int { return int(t.openBlocks.Load()) }
