package harness

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/packet"
)

func init() {
	register(Experiment{
		Name: "livechaos",
		Desc: "Live-wire chaos: adversarial clients vs a victim tenant over real UDP sockets",
		Run:  runLiveChaos,
	})
}

// The live-wire chaos harness runs the REAL hostagg server — real sockets on
// loopback, real goroutines, real time — under adversarial clients, and
// asserts the multi-tenant admission machinery (DESIGN.md §10) isolates a
// victim tenant: goodput within 90% of its aggressor-free baseline, every
// completed sum bit-exact against the closed form, and the damage attributed
// to the aggressor in per-tenant stats. Real-socket timing is inherently
// noisy, so the golden-pinned table carries only categorical cells
// (yes/NO/-); the measured numbers go to the -v log.

// victimJob/aggressorJob are the tenant ids too (one-tenant-per-job).
const (
	lcVictimJob    = 1
	lcAggressorJob = 2
)

// lcRow is one scenario's categorical outcome.
type lcRow struct {
	victimOK, bitExact, attrib, ladder string
}

// lcVictim is a two-worker victim tenant running closed-form allreduce
// rounds. Worker w contributes grads[i] = (w+1)*(i%17+1), so the aggregated
// vector is exactly 3*(i%17+1) — any shed, corrupted, or double-counted
// contribution shows up as an inexact sum.
type lcVictim struct {
	clients [2]*hostagg.Client
	blocks  int
	perBlk  int
}

func newLCVictim(addr string, blocks, perBlk int, retx time.Duration) (*lcVictim, error) {
	v := &lcVictim{blocks: blocks, perBlk: perBlk}
	for w := 0; w < 2; w++ {
		c, err := hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: addr, JobID: lcVictimJob, SrcID: uint8(w),
			Window: 64, RetransmitEvery: retx,
		})
		if err != nil {
			v.close()
			return nil, err
		}
		v.clients[w] = c
	}
	return v, nil
}

func (v *lcVictim) close() {
	for _, c := range v.clients {
		if c != nil {
			c.Close()
		}
	}
}

func lcVector(worker, n int) []int32 {
	g := make([]int32, n)
	for i := range g {
		g[i] = int32(worker+1) * int32(i%17+1)
	}
	return g
}

// round runs one allreduce across both victim workers and verifies the
// result against the closed form. It reports the wall time and whether every
// value was bit-exact.
func (v *lcVictim) round(gen uint16, timeout time.Duration) (time.Duration, bool, error) {
	n := v.blocks * v.perBlk
	var wg sync.WaitGroup
	outs := make([][]int32, 2)
	errs := make([]error, 2)
	start := time.Now()
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w], errs[w] = v.clients[w].AllReduce(gen, lcVector(w, n), v.perBlk, 2, timeout)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for w := 0; w < 2; w++ {
		if errs[w] != nil {
			return elapsed, false, fmt.Errorf("victim worker %d: %w", w, errs[w])
		}
	}
	exact := true
	for w := 0; w < 2; w++ {
		for i, g := range outs[w] {
			if g != 3*int32(i%17+1) {
				exact = false
			}
		}
	}
	return elapsed, exact, nil
}

// rounds runs k rounds starting at gen and reports the fastest one — the
// min is robust against scheduler hiccups on a loaded host, which is what a
// shared CI container is.
func (v *lcVictim) rounds(genBase uint16, k int, timeout time.Duration) (best time.Duration, exact bool, err error) {
	best, exact = time.Duration(1<<62), true
	for r := 0; r < k; r++ {
		d, ex, rerr := v.round(genBase+uint16(r), timeout)
		if rerr != nil {
			return best, false, rerr
		}
		if !ex {
			exact = false
		}
		if d < best {
			best = d
		}
	}
	return best, exact, nil
}

func lcQuiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func yn(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// lcServer starts a loopback server with the scenario's config defaults
// filled in.
func lcServer(cfg hostagg.ServerConfig) (*hostagg.Server, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	cfg.Logger = lcQuiet()
	return hostagg.NewServer(cfg)
}

// lcFlood: an aggressor tenant floods distinct block ids at ~10x its
// token-bucket quota while the victim runs allreduce rounds. The bucket
// sheds the excess before any shard lock, so the victim's fastest contested
// round must stay within 90% of its aggressor-free baseline (one
// re-measurement retry absorbs a scheduler outlier).
func lcFlood(p Params, retxStorm bool) (lcRow, []string, error) {
	name := "flood"
	if retxStorm {
		name = "retxstorm"
	}
	srv, err := lcServer(hostagg.ServerConfig{
		NumWorkers: 2, Shards: 4, RecvWorkers: 2,
		MaxOpenBlocks: 4096, ReplayWindow: 256,
		TenantQuotas: map[uint8]hostagg.TenantQuota{
			lcVictimJob:    {Weight: 4},
			lcAggressorJob: {PacketsPerSec: 500, PacketBurst: 50, MaxOpenBlocks: 8},
		},
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer srv.Close()

	blocks, rounds := 16, 4
	if p.Quick {
		blocks, rounds = 8, 3
	}
	victim, err := newLCVictim(srv.Addr().String(), blocks, 128, 20*time.Millisecond)
	if err != nil {
		return lcRow{}, nil, err
	}
	defer victim.close()

	base, exact1, err := victim.rounds(1, rounds, 10*time.Second)
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("%s baseline: %w", name, err)
	}

	// Aggressor: raw UDP at ~5000 pps (10x the 500 pps quota). The flood
	// variant opens a fresh block id per packet; the retransmit-storm
	// variant hammers the same four blocks with duplicate contributions.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		conn, err := net.Dial("udp", srv.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		grads := []int32{1, 2, 3, 4}
		next := uint32(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 5; i++ {
				blk := next
				if retxStorm {
					blk = next % 4
				}
				next++
				hdr := packet.TrioML{JobID: lcAggressorJob, BlockID: blk, SrcID: 0, GenID: 1, GradCnt: uint16(len(grads))}
				buf := make([]byte, packet.TrioMLHeaderLen+4*len(grads))
				hdr.MarshalTo(buf)
				packet.PutGradients(buf[packet.TrioMLHeaderLen:], grads)
				conn.Write(buf)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let the storm establish: the aggressor must already be over its token
	// bucket (rate-shedding) before the contested measurement starts.
	sheddingBy := time.Now().Add(2 * time.Second)
	for srv.Stats().RateShed == 0 && time.Now().Before(sheddingBy) {
		time.Sleep(5 * time.Millisecond)
	}

	// The 90% SLO compares steady states: rounds finish in the hundreds of
	// microseconds, so a single descheduling on a small shared container
	// dwarfs the effect under test. Re-measure a few times and keep the
	// overall best — shedding failures are persistent and survive retries;
	// scheduler hiccups do not.
	contested, exact2, err := victim.rounds(100, rounds, 10*time.Second)
	for attempt := 1; err == nil && contested > base+base/9 && attempt <= 4; attempt++ {
		d, ex, rerr := victim.rounds(uint16(100+100*attempt), rounds, 10*time.Second)
		if rerr != nil {
			err = rerr
			break
		}
		exact2 = exact2 && ex
		if d < contested {
			contested = d
		}
	}
	close(stop)
	stormWG.Wait()
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("%s contested: %w", name, err)
	}

	st := srv.Stats()
	var aggr, vict hostagg.TenantStats
	for _, ts := range srv.TenantStats() {
		switch ts.Tenant {
		case lcAggressorJob:
			aggr = ts
		case lcVictimJob:
			vict = ts
		}
	}
	victimOK := contested <= base+base/9 // contested >= 90% of baseline goodput
	attrib := aggr.RateShed > 0 && vict.RateShed == 0 && vict.Shed == 0
	p.logf("livechaos %s: baseline=%v contested=%v rateShed=%d aggrShed=%d aggrQuota=%d victimShed=%d",
		name, base, contested, st.RateShed, aggr.Shed, st.QuotaShed, vict.Shed)

	var violations []string
	if !victimOK {
		violations = append(violations, fmt.Sprintf("%s: victim round %v vs baseline %v breaks the 90%% SLO", name, contested, base))
	}
	if !(exact1 && exact2) {
		violations = append(violations, name+": victim sums diverged from closed form")
	}
	if !attrib {
		violations = append(violations, fmt.Sprintf("%s: shed not attributed to the aggressor (aggr=%+v victim=%+v)", name, aggr, vict))
	}
	return lcRow{yn(victimOK), yn(exact1 && exact2), yn(attrib), "-"}, violations, nil
}

// lcMalformed: a storm of truncated/oversized/garbage datagrams (seeded, so
// the byte patterns reproduce) against a victim round. Every datagram must
// be rejected at decode — counted, never aggregated, never fatal.
func lcMalformed(p Params) (lcRow, []string, error) {
	srv, err := lcServer(hostagg.ServerConfig{
		NumWorkers: 2, Shards: 4, RecvWorkers: 2,
		MaxOpenBlocks: 4096, ReplayWindow: 64,
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer srv.Close()

	storm := 4000
	if p.Quick {
		storm = 1500
	}
	rng := rand.New(rand.NewPCG(p.seed(), 0x6d616c66))
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		return lcRow{}, nil, err
	}
	defer conn.Close()

	victim, err := newLCVictim(srv.Addr().String(), 8, 128, 20*time.Millisecond)
	if err != nil {
		return lcRow{}, nil, err
	}
	defer victim.close()

	done := make(chan error, 1)
	go func() {
		_, exact, err := victim.rounds(1, 2, 10*time.Second)
		if err == nil && !exact {
			err = errors.New("victim sums diverged")
		}
		done <- err
	}()

	valid := make([]byte, packet.TrioMLHeaderLen+4*4)
	(&packet.TrioML{JobID: 200, BlockID: 1, SrcID: 0, GradCnt: 4}).MarshalTo(valid)
	for i := 0; i < storm; i++ {
		var pkt []byte
		switch i % 4 {
		case 0: // random garbage, random length
			pkt = make([]byte, rng.IntN(64))
			for j := range pkt {
				pkt[j] = byte(rng.Uint32())
			}
		case 1: // truncated header
			pkt = valid[:rng.IntN(packet.TrioMLHeaderLen)]
		case 2: // truncated body
			pkt = valid[:packet.TrioMLHeaderLen+rng.IntN(15)]
		case 3: // oversized body
			pkt = append(append([]byte{}, valid...), make([]byte, 1+rng.IntN(32))...)
		}
		conn.Write(pkt)
		if i%200 == 0 {
			time.Sleep(time.Millisecond) // don't let loopback swallow the storm
		}
	}
	err = <-done
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("malformed: %w", err)
	}
	st := srv.Stats()
	attrib := st.Malformed > uint64(storm)/2
	p.logf("livechaos malformed: storm=%d counted=%d badPackets=%d packets=%d", storm, st.Malformed, st.BadPackets, st.Packets)
	var violations []string
	if !attrib {
		violations = append(violations, fmt.Sprintf("malformed: only %d of %d datagrams counted malformed", st.Malformed, storm))
	}
	return lcRow{"yes", "yes", yn(attrib), "-"}, violations, nil
}

// lcSlowReader: a victim whose application stops draining results overflows
// its own receive buffer (UDP semantics: counted drops, not backpressure),
// then recovers every block through retransmits and the server's
// served-result replay cache.
func lcSlowReader(p Params) (lcRow, []string, error) {
	srv, err := lcServer(hostagg.ServerConfig{
		NumWorkers: 1, RecvWorkers: 1, ReplayWindow: 64,
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer srv.Close()

	c, err := hostagg.NewClient(hostagg.ClientConfig{
		ServerAddr: srv.Addr().String(), JobID: lcVictimJob, SrcID: 0,
		ResultBuffer: 2, RetransmitEvery: 15 * time.Millisecond,
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer c.Close()

	blocks := 24
	// Phase 1: scatter without draining — the 2-slot buffer must overflow.
	for b := 0; b < blocks; b++ {
		if err := c.SendBlock(uint32(b), 1, []int32{int32(b)}, false); err != nil {
			return lcRow{}, nil, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	dropped := c.Stats().Dropped
	for len(c.Results()) > 0 { // drain the stale phase-1 results
		<-c.Results()
	}

	// Phase 2: a fresh allreduce over the same socket must still complete
	// exactly; lost results are replayed from the served cache.
	out, err := c.AllReduce(2, lcVector(0, 12*16), 16, 1, 10*time.Second)
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("slowreader allreduce: %w", err)
	}
	exact := true
	for i, g := range out {
		if g != int32(i%17+1) { // single worker: the sum is its own vector
			exact = false
		}
	}
	st := srv.Stats()
	attrib := dropped > 0
	p.logf("livechaos slowreader: dropped=%d replays=%d retransmits=%d", dropped, st.ResultReplays, c.Stats().Retransmits)
	var violations []string
	if !attrib {
		violations = append(violations, "slowreader: result buffer never overflowed")
	}
	if !exact {
		violations = append(violations, "slowreader: recovered sums diverged")
	}
	return lcRow{"yes", yn(exact), yn(attrib), "-"}, violations, nil
}

// lcRestart: the server dies and rebinds mid-allreduce. The worker that was
// already streaming rides the outage on transient-error backoff plus
// retransmits, re-registers on the fresh server, and both workers complete
// bit-exact.
func lcRestart(p Params) (lcRow, []string, error) {
	srv, err := lcServer(hostagg.ServerConfig{NumWorkers: 2, RecvWorkers: 1})
	if err != nil {
		return lcRow{}, nil, err
	}
	addr := srv.Addr().String()

	victim, err := newLCVictim(addr, 8, 64, 15*time.Millisecond)
	if err != nil {
		srv.Close()
		return lcRow{}, nil, err
	}
	defer victim.close()

	// Worker 0 starts alone: its blocks sit half-aggregated on the server.
	n := victim.blocks * victim.perBlk
	res0 := make(chan error, 1)
	var out0 []int32
	go func() {
		var err error
		out0, err = victim.clients[0].AllReduce(1, lcVector(0, n), victim.perBlk, 2, 15*time.Second)
		res0 <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Kill the server mid-allreduce and rebind the same port.
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	var srv2 *hostagg.Server
	for attempt := 0; attempt < 20; attempt++ {
		srv2, err = lcServer(hostagg.ServerConfig{ListenAddr: addr, NumWorkers: 2, RecvWorkers: 1})
		if err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("restart rebind: %w", err)
	}
	defer srv2.Close()

	// Worker 1 joins on the fresh server; worker 0's retransmits rebuild its
	// lost contributions from scratch.
	out1, err := victim.clients[1].AllReduce(1, lcVector(1, n), victim.perBlk, 2, 15*time.Second)
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("restart worker1: %w", err)
	}
	if err := <-res0; err != nil {
		return lcRow{}, nil, fmt.Errorf("restart worker0: %w", err)
	}
	exact := true
	for i := range out0 {
		if out0[i] != 3*int32(i%17+1) || out1[i] != 3*int32(i%17+1) {
			exact = false
		}
	}
	p.logf("livechaos restart: worker0 recvRetries=%d retransmits=%d", victim.clients[0].Stats().RecvRetries, victim.clients[0].Stats().Retransmits)
	var violations []string
	if !exact {
		violations = append(violations, "restart: sums diverged after server restart")
	}
	return lcRow{"yes", yn(exact), "-", "-"}, violations, nil
}

// lcLadder: an aggressor parks single-source blocks until the ladder climbs
// through pressure into overload — its further creations are NACKed — while
// a victim allreduce is still admitted by displacing aggressor blocks
// (weighted-fair shedding). Aging then drains the hoard and the ladder walks
// back to normal.
func lcLadder(p Params) (lcRow, []string, error) {
	// The hoard's lifetime must dwarf the ≥20 ms of sleeps and polls between
	// parking it and the victim's arrival: a hoard that ages out first leaves
	// nothing to displace, and the refusals go unattributed. The 5 s recovery
	// deadline below still covers it.
	srv, err := lcServer(hostagg.ServerConfig{
		NumWorkers: 2, RecvWorkers: 1,
		MaxOpenBlocks: 20, Timeout: 400 * time.Millisecond, ReplayWindow: 8,
		RetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer srv.Close()

	aggr, err := hostagg.NewClient(hostagg.ClientConfig{
		ServerAddr: srv.Addr().String(), JobID: 9, SrcID: 0,
	})
	if err != nil {
		return lcRow{}, nil, err
	}
	defer aggr.Close()

	// Park 19 half-finished blocks: 14 crosses into pressure, 18 into
	// overload (ceil watermarks of 20).
	for b := uint32(0); b < 19; b++ {
		if err := aggr.SendBlock(b, 1, []int32{1}, false); err != nil {
			return lcRow{}, nil, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().OverloadState != "overload" && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	climbed := srv.Stats().OverloadState == "overload"

	// Over-cap creations from the hoarder are refused and NACKed.
	for b := uint32(100); b < 110; b++ {
		aggr.SendBlock(b, 1, []int32{1}, false)
		time.Sleep(2 * time.Millisecond)
	}
	for aggr.Stats().Nacked == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// The victim is under its fair share: admitted by displacement even in
	// overload, and completes bit-exact.
	victim, err := newLCVictim(srv.Addr().String(), 4, 32, 10*time.Millisecond)
	if err != nil {
		return lcRow{}, nil, err
	}
	defer victim.close()
	_, exact, err := victim.round(1, 10*time.Second)
	if err != nil {
		return lcRow{}, nil, fmt.Errorf("ladder victim: %w", err)
	}

	// Aging drains the hoard; the ladder must walk back down to normal.
	for srv.Stats().OverloadState != "normal" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	recovered := st.OverloadState == "normal"
	ladderOK := climbed && recovered && st.PressureEnters >= 1 && st.OverloadEnters >= 1

	var aggrTS hostagg.TenantStats
	for _, ts := range srv.TenantStats() {
		if ts.Tenant == 9 {
			aggrTS = ts
		}
	}
	attrib := st.NacksSent > 0 && st.FairEvictions > 0 && aggrTS.Nacked > 0 && aggrTS.Evicted > 0
	p.logf("livechaos ladder: climbed=%v recovered=%v nacks=%d fairEvict=%d aggr=%+v clientNacked=%d",
		climbed, recovered, st.NacksSent, st.FairEvictions, aggrTS, aggr.Stats().Nacked)

	var violations []string
	if !ladderOK {
		violations = append(violations, fmt.Sprintf("ladder: climb/recover failed (state=%s pressure=%d overload=%d)",
			st.OverloadState, st.PressureEnters, st.OverloadEnters))
	}
	if !exact {
		violations = append(violations, "ladder: victim sums diverged")
	}
	if !attrib {
		violations = append(violations, fmt.Sprintf("ladder: refusals not attributed to the aggressor (%+v)", aggrTS))
	}
	return lcRow{"yes", yn(exact), yn(attrib), yn(ladderOK)}, violations, nil
}

// runLiveChaos drives every scenario against a real server and renders the
// categorical verdicts; any NO also comes back as an error so CI fails loud.
func runLiveChaos(p Params) ([]*Table, error) {
	t := &Table{
		Title:   "Live-wire chaos: adversarial tenants vs victim SLO over real UDP",
		Columns: []string{"Scenario", "VictimOK", "BitExact", "Attrib", "Ladder"},
		Notes: []string{
			"Real hostagg server on loopback; victim job 1 (2 workers, weight 4) runs closed-form allreduce rounds.",
			"VictimOK: goodput >= 90% of the aggressor-free baseline (fastest-round comparison, one retry).",
			"BitExact: every completed sum equals the closed form 3*(i%17+1).",
			"Attrib: the damage lands on the right counters — aggressor tenant's shed/NACKs, Malformed, client drops.",
			"Ladder: normal->pressure->overload climb observed, NACK+displacement behavior held, and hysteresis walked it back.",
			"Cells are categorical (yes/NO/-): wall-clock numbers vary per host and go to the -v log instead.",
		},
	}
	scenarios := []struct {
		name string
		run  func(Params) (lcRow, []string, error)
	}{
		{"flood", func(p Params) (lcRow, []string, error) { return lcFlood(p, false) }},
		{"retxstorm", func(p Params) (lcRow, []string, error) { return lcFlood(p, true) }},
		{"malformed", lcMalformed},
		{"slowreader", lcSlowReader},
		{"restart", lcRestart},
		{"ladder", lcLadder},
	}
	var violations []string
	for _, sc := range scenarios {
		row, v, err := sc.run(p)
		if err != nil {
			return nil, fmt.Errorf("livechaos %s: %w", sc.name, err)
		}
		violations = append(violations, v...)
		t.AddRow(sc.name, row.victimOK, row.bitExact, row.attrib, row.ladder)
	}
	if len(violations) > 0 {
		return []*Table{t}, fmt.Errorf("livechaos: %d violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}
