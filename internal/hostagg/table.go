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
	sums     []int32
	rcvdMask aggcore.Mask
	rcvdCnt  int
	genID    uint16
	final    bool
	lastRef  time.Time
	refFlag  bool // cleared by the sweep, set by packets (REF semantics)

	tenant *tenantState // owning tenant (never nil), charged for the block while open
	bytes  int64        // gradient bytes charged against the tenant
}

type servedBlock struct {
	b        *blockState
	degraded bool
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

	// served retains recently emitted results for Replay (ReplayWindow > 0,
	// nil otherwise), keyed by block key with the block's generation.
	served *replay.Cache[*servedBlock]

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
	emitPool sync.Pool // *[]byte result payloads
}

// ServerStats is a snapshot of the server's activity counters (via Stats).
type ServerStats struct {
	Packets      uint64
	Duplicates   uint64
	StaleDrops   uint64
	Completed    uint64
	Degraded     uint64
	BadPackets   uint64
	GenRestarts  uint64 // blocks restarted in place by a newer generation
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
		t.served = replay.New[*servedBlock](cfg.ReplayWindow)
	}
	if cfg.Faults != nil {
		t.flt = cfg.Faults.Table()
	}
	t.emitPool.New = func() any {
		b := make([]byte, 0, packet.TrioMLHeaderLen+4*packet.MaxGradientsPerPacket)
		return &b
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
// is handed to send, synchronously and before Handle returns; the bytes are a
// pooled buffer, valid only for the duration of that call. from is retained
// as the source's return address.
func (t *Table) Handle(now time.Time, payload []byte, from *net.UDPAddr, send func([]byte, *net.UDPAddr)) {
	var h packet.TrioML
	rest, err := h.Unmarshal(payload)
	if err != nil {
		// Truncated or garbage datagram: it never decoded, so it is
		// malformed wire data, not a protocol-level bad packet.
		t.counters.malformed.Add(1)
		return
	}
	// Length-validate only: the hot path sums wire bytes in place with
	// AddGradients, so a per-packet []int32 is parsed solely when a block
	// record adopts the vector (creation and generation restart). The body
	// must hold exactly GradCnt gradients — a short body is truncated and an
	// over-long one is an oversized datagram whose tail would silently
	// vanish; both are malformed.
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
	var sb *servedBlock
	if b != nil {
		blk = aggcore.Record(b.genID, len(b.sums), &b.rcvdMask)
	} else if t.served != nil && t.overload.Load() < statePressure {
		// The replay cache is a nicety the ladder sheds first: at pressure
		// and above, lookups are skipped so retransmits for served blocks
		// fall through to admission (and are themselves shed if over quota).
		if cached, gen, ok := t.served.Lookup(k); ok {
			sb, blk = cached, aggcore.Cached(gen)
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
		// To the retransmitting sender only.
		t.mu.Unlock()
		t.counters.resultReplays.Add(1)
		t.emit(send, h.JobID, h.BlockID, sb.b, sb.degraded, []*net.UDPAddr{from})
		return
	case aggcore.Open:
		if sb != nil {
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
		grads, _ := packet.Gradients(rest, n) // decode checked the length
		b = &blockState{sums: grads, genID: h.GenID, final: h.Final, tenant: tn, bytes: blockBytes}
		t.blocks[k] = b
		t.blockOpened(b, h.JobID)
	case aggcore.Restart:
		// Adopt the new packet's vector exactly: the new generation's block
		// may be larger or smaller than the old one.
		b.sums, _ = packet.Gradients(rest, n) // decode checked the length
		b.genID, b.final = h.GenID, h.Final
		b.rcvdMask, b.rcvdCnt = aggcore.Mask{}, 0
		b.tenant.bytes.Add(4*int64(n) - b.bytes)
		b.bytes = 4 * int64(n)
		t.counters.genRestarts.Add(1)
	case aggcore.Add:
		packet.AddGradients(b.sums, rest, n)
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

	var done *blockState
	var to []*net.UDPAddr
	if b.rcvdCnt >= t.cfg.NumWorkers {
		done = b
		delete(t.blocks, k)
		t.blockClosed(b, h.JobID)
		t.counters.completed.Add(1)
		if t.served != nil && t.overload.Load() < statePressure {
			t.served.Put(k, b.genID, &servedBlock{b: b})
		}
		to = t.targetsLocked(h.JobID)
	}
	if t.flt != nil && t.flt.CrashNow() {
		t.crashLocked()
	}
	t.mu.Unlock()

	if done != nil {
		t.emit(send, h.JobID, h.BlockID, done, false, to)
	}
}

// blockOpened and blockClosed centralize open-block accounting — the global
// count, the per-job table, and the owning tenant's open/bytes charges — and
// re-evaluate the overload ladder after every change. Caller holds t.mu.
func (t *Table) blockOpened(b *blockState, job uint8) {
	t.openBlocks.Add(1)
	t.jobOpen[job]++
	b.tenant.open.Add(1)
	b.tenant.bytes.Add(b.bytes)
	t.updateOverload()
}

func (t *Table) blockClosed(b *blockState, job uint8) {
	t.openBlocks.Add(-1)
	t.jobOpen[job]--
	b.tenant.open.Add(-1)
	b.tenant.bytes.Add(-b.bytes)
	t.updateOverload()
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
	delete(t.blocks, key)
	t.blockClosed(stalest, uint8(key>>32))
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
		t.blockClosed(b, uint8(k>>32))
		delete(t.blocks, k)
	}
}

// targetsLocked lists the return addresses of a job's registered workers,
// in source-id order. Caller holds t.mu.
func (t *Table) targetsLocked(job uint8) []*net.UDPAddr {
	out := make([]*net.UDPAddr, 0, t.cfg.NumWorkers)
	for src := 0; src < t.cfg.NumWorkers; src++ {
		if a := t.workers[uint16(job)<<8|uint16(src)]; a != nil {
			out = append(out, a)
		}
	}
	return out
}

// agedBlock is one record a sweep aged out, held with its job's return
// addresses until the table lock drops.
type agedBlock struct {
	key uint64
	b   *blockState
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
				delete(t.blocks, k)
				t.blockClosed(b, job)
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
			aged = append(aged, agedBlock{key: k, b: b})
			delete(t.blocks, k)
			t.blockClosed(b, job)
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
			t.served.Put(a.key, a.b.genID, &servedBlock{b: a.b, degraded: true})
		}
		a.to = t.targetsLocked(uint8(a.key >> 32))
	}
	t.mu.Unlock()
	for _, a := range aged {
		t.emit(send, uint8(a.key>>32), uint32(a.key), a.b, true, a.to)
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

// emit sends a Result packet to every known worker, marshaling into a
// pooled buffer so the hot path does not allocate per result.
func (t *Table) emit(send func([]byte, *net.UDPAddr), job uint8, block uint32, b *blockState, degraded bool, targets []*net.UDPAddr) {
	hdr := packet.TrioML{
		JobID: job, BlockID: block, GenID: b.genID,
		SrcID: packet.ResultSrcID, SrcCnt: uint8(b.rcvdCnt), Degraded: degraded, Final: b.final,
	}
	if degraded {
		hdr.AgeOp = 1
	}
	bufp := t.emitPool.Get().(*[]byte)
	payload := AppendBlock((*bufp)[:0], hdr, b.sums)
	for _, to := range targets {
		send(payload, to)
	}
	*bufp = payload
	t.emitPool.Put(bufp)
}

// Pending reports the number of open (partially aggregated) blocks.
func (t *Table) Pending() int { return int(t.openBlocks.Load()) }
