package harness

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"slices"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "livechaos",
		Desc: "Multi-tenant isolation: adversarial tenants vs a victim on the real hostagg block table, in virtual time",
		Run:  runLiveChaos,
	})
}

// livechaos drives the real hostagg block table — the same Handle and Sweep a
// Server's loop calls — and victims running the client's own allreduce core
// under adversarial tenants, and asserts the admission machinery (DESIGN.md
// §10) isolates the victim tenant: every round completes, every sum is
// bit-exact against the closed form, and the damage lands on the aggressor's
// counters. Table and core take their instant and way out as arguments, so
// it all runs on one sim.Engine: now is lcEpoch + eng.Now(), a datagram is an
// event one link delay away, the sweep is periodic, every cell is exact.

const (
	lcVictimJob    = 1 // job ids double as tenant ids (one tenant per job)
	lcAggressorJob = 2
	lcLinkDelay    = 50 * sim.Microsecond
	lcHorizon      = 200 * sim.Millisecond
)

var lcEpoch = time.Unix(1_700_000_000, 0)

// lcRig is one scenario's world: an engine, the table under test (nil while
// the server is down) and the hosts that datagrams can be delivered to.
type lcRig struct {
	eng     *sim.Engine
	cfg     hostagg.ServerConfig
	tab     *hostagg.Table
	hosts   map[int]func([]byte) // fabricated return port -> receiver
	victims []*lcVictim
	dropped int // datagrams lost outside the table: sent into an outage, or to a stalled reader
}

func newLCRig(cfg hostagg.ServerConfig) *lcRig {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	r := &lcRig{eng: sim.NewEngine(), cfg: cfg, hosts: map[int]func([]byte){}}
	r.boot()
	if cfg.ScanInterval > 0 {
		r.eng.Every(sim.Time(cfg.ScanInterval), sim.Time(cfg.ScanInterval), func() {
			if r.tab != nil {
				r.tab.Sweep(r.now(), r.send)
			}
		})
	}
	return r
}

// boot (re)starts the server: a fresh, empty table.
func (r *lcRig) boot() {
	tab, err := hostagg.NewTable(r.cfg)
	if err != nil {
		panic(err) // scenario configs are literals
	}
	r.tab = tab
}

func (r *lcRig) now() time.Time { return lcEpoch.Add(time.Duration(r.eng.Now())) }

// toServer puts one datagram on the wire towards the table.
func (r *lcRig) toServer(from *net.UDPAddr, pkt []byte) {
	r.eng.After(lcLinkDelay, func() {
		if r.tab == nil {
			r.dropped++
			return
		}
		r.tab.Handle(r.now(), pkt, from, r.send)
	})
}

// send is the table's way out: the bytes are copied and arrive at
// the addressed host one link delay later; nobody listens on other ports.
func (r *lcRig) send(b []byte, to *net.UDPAddr) {
	if recv := r.hosts[to.Port]; recv != nil {
		pkt := slices.Clone(b)
		r.eng.After(lcLinkDelay, func() { recv(pkt) })
	}
}

// trace scripts n datagrams from one source, the i-th at start + i*every.
func (r *lcRig) trace(from *net.UDPAddr, start, every sim.Time, n int, mk func(i int) []byte) {
	for i := 0; i < n; i++ {
		r.eng.At(start+sim.Time(i)*every, func() { r.toServer(from, mk(i)) })
	}
}

func lcAddr(port int) *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: port} }

func lcContribution(job uint8, block uint32, src uint8, gen uint16, grads []int32) []byte {
	return hostagg.AppendBlock(nil, packet.TrioML{JobID: job, BlockID: block, SrcID: src, GenID: gen}, grads)
}

// lcVictim is one victim worker running hostagg.Reduce, the core that
// Client.AllReduce drives over a socket: `rounds` allreduces of `blocks`
// blocks with `gap` of compute between two. Worker src contributes
// (src+1)*(i%17+1) at vector index i, so with every worker in, the sum is
// factor*(i%17+1) — any shed, corrupted or double-counted contribution shows
// up as an inexact value. Until deafUntil its reader is stalled and drops
// what reaches it.
type lcVictim struct {
	rig                    *lcRig
	addr                   *net.UDPAddr
	src                    uint8
	factor                 int32
	blocks, perBlk, rounds int
	retx, gap, deafUntil   sim.Time

	red                    *hostagg.Reduce // the round under way; nil between rounds
	wake                   sim.Handle      // the event that calls red.Expire
	doneAt                 sim.Time
	completed, retransmits int
	err                    error // what ended the worker early
}

// victim adds worker src to the rig's victim job, starting at `at`.
func (r *lcRig) victim(at sim.Time, src uint8, v lcVictim) *lcVictim {
	v.rig, v.src, v.addr = r, src, lcAddr(5000+int(src))
	r.hosts[v.addr.Port] = v.recv
	r.victims = append(r.victims, &v)
	r.eng.At(at, v.beginRound)
	return &v
}

func (v *lcVictim) beginRound() {
	grads := make([]int32, v.blocks*v.perBlk)
	for i := range grads {
		grads[i] = int32(v.src+1) * int32(i%17+1)
	}
	cfg := hostagg.ClientConfig{JobID: lcVictimJob, SrcID: v.src, Window: v.blocks, RetransmitEvery: time.Duration(v.retx)}
	v.red = hostagg.NewReduce(v.rig.now(), cfg, uint16(v.completed+1), grads, v.perBlk, v.rig.cfg.NumWorkers, time.Duration(lcHorizon))
	v.step(v.red.Refill(v.room))
}

// room is the core's way out: the datagram goes on the wire now and arrives
// one link delay later, long after the core has filled it in.
func (v *lcVictim) room(n int) ([]byte, error) {
	p := make([]byte, n)
	v.rig.toServer(v.addr, p)
	return p, nil
}

// recv hands a datagram, its own receive buffer, to the round under way.
func (v *lcVictim) recv(pkt []byte) {
	switch {
	case v.rig.eng.Now() < v.deafUntil:
		v.rig.dropped++
	case v.red != nil:
		err := v.red.Receive(v.rig.now(), pkt)
		if err == nil {
			err = v.red.Refill(v.room)
		}
		v.step(err)
	}
}

func (v *lcVictim) expire() { v.step(v.red.Expire(v.rig.now(), v.room)) }

// step follows a call into the core: an error or an inexact sum ends the
// worker, a bit-exact one starts the next round after the gap, and a round
// under way gets its wake event at the core's next wake instant.
func (v *lcVictim) step(err error) {
	v.wake.Stop()
	switch {
	case err != nil:
		v.err, v.red = err, nil
	case v.red.Done():
		for i, g := range v.red.Sum() {
			if want := v.factor * int32(i%17+1); g != want {
				v.err, v.red = fmt.Errorf("round %d: sum[%d] = %d, want %d", v.completed+1, i, g, want), nil
				return
			}
		}
		v.retransmits += int(v.red.Stats().Retransmits)
		v.completed++
		v.doneAt, v.red = v.rig.eng.Now(), nil
		if v.completed < v.rounds {
			v.rig.eng.After(v.gap, v.beginRound)
		}
	default:
		v.wake = v.rig.eng.At(sim.Time(v.red.Wake().Sub(lcEpoch)), v.expire)
	}
}

// lcScenario is one row of the table: the server's config and a script that
// puts the traffic on the rig and returns the check of what the scenario must
// show beyond the victim staying whole ("" when it holds). Every scenario
// runs for lcHorizon, well past its last scripted event.
type lcScenario struct {
	name   string
	cfg    hostagg.ServerConfig
	script func(r *lcRig, quick bool, seed uint64) lcCheck
}

type lcCheck func(st hostagg.ServerStats, aggr hostagg.TenantStats) string

// lcStorm is flood and retxstorm: an aggressor tenant sends at 5000 pps, ten
// times its token-bucket quota, while the victim runs allreduce rounds. The
// flood opens a fresh block id per packet; the retransmit storm hammers the
// same four blocks. The bucket sheds the excess before the table lock, the
// aggressor's own open-block quota stops what the bucket admits, and the
// victim sees none of it.
func lcStorm(name string, retx bool) lcScenario {
	return lcScenario{
		name: name,
		cfg: hostagg.ServerConfig{
			NumWorkers: 2, MaxOpenBlocks: 4096, ReplayWindow: 256,
			TenantQuotas: map[uint8]hostagg.TenantQuota{
				lcVictimJob:    {Weight: 4},
				lcAggressorJob: {PacketsPerSec: 500, PacketBurst: 50, MaxOpenBlocks: 8},
			},
		},
		script: func(r *lcRig, quick bool, _ uint64) lcCheck {
			blocks, rounds, storm := 16, 4, 500
			if quick {
				blocks, rounds, storm = 8, 3, 300
			}
			r.trace(lcAddr(6000), 0, 200*sim.Microsecond, storm, func(i int) []byte {
				if retx {
					i %= 4
				}
				return lcContribution(lcAggressorJob, uint32(i), 0, 1, []int32{1, 2, 3, 4})
			})
			w := lcVictim{factor: 3, blocks: blocks, perBlk: 128, rounds: rounds,
				retx: 20 * sim.Millisecond, gap: 10 * sim.Millisecond}
			r.victim(20*sim.Millisecond, 0, w)
			r.victim(20*sim.Millisecond, 1, w)
			return func(st hostagg.ServerStats, aggr hostagg.TenantStats) string {
				switch {
				case aggr.RateShed == 0 || aggr.Packets != uint64(storm):
					return fmt.Sprintf("token bucket never shed the aggressor (%+v)", aggr)
				case retx && (aggr.OpenBlocks != 4 || st.Duplicates != aggr.Packets-aggr.RateShed-4):
					return fmt.Sprintf("admitted retransmits not absorbed as duplicates (%+v)", st)
				case !retx && (aggr.OpenBlocks != 8 || st.QuotaShed != aggr.Packets-aggr.RateShed-8):
					return fmt.Sprintf("admitted flood not stopped by the aggressor's own quota (%+v)", st)
				}
				return ""
			}
		},
	}
}

var lcScenarios = []lcScenario{
	lcStorm("flood", false),
	lcStorm("retxstorm", true),
	{
		// A storm of truncated, oversized and garbage datagrams (seeded, so the
		// byte patterns reproduce) across two victim rounds. Every one must be
		// rejected at decode: counted, never aggregated, never fatal.
		name: "malformed",
		cfg:  hostagg.ServerConfig{NumWorkers: 2, MaxOpenBlocks: 4096, ReplayWindow: 64},
		script: func(r *lcRig, quick bool, seed uint64) lcCheck {
			storm := 4000
			if quick {
				storm = 1500
			}
			rng := rand.New(rand.NewPCG(seed, 0x6d616c66))
			valid := lcContribution(200, 1, 0, 0, []int32{0, 0, 0, 0})
			r.trace(lcAddr(6000), 0, 10*sim.Microsecond, storm, func(i int) []byte {
				switch i % 4 {
				case 0: // garbage shorter than a header
					pkt := make([]byte, rng.IntN(packet.TrioMLHeaderLen))
					for j := range pkt {
						pkt[j] = byte(rng.Uint32())
					}
					return pkt
				case 1: // truncated header
					return valid[:rng.IntN(packet.TrioMLHeaderLen)]
				case 2: // truncated body
					return valid[:packet.TrioMLHeaderLen+rng.IntN(15)]
				default: // oversized body
					return append(slices.Clone(valid), make([]byte, 1+rng.IntN(32))...)
				}
			})
			w := lcVictim{factor: 3, blocks: 8, perBlk: 128, rounds: 2,
				retx: 20 * sim.Millisecond, gap: 5 * sim.Millisecond}
			r.victim(sim.Millisecond, 0, w)
			r.victim(sim.Millisecond, 1, w)
			return func(st hostagg.ServerStats, _ hostagg.TenantStats) string {
				if st.Malformed != uint64(storm) || st.BadPackets != 0 || st.Packets != 2*2*8 {
					return fmt.Sprintf("%d of %d datagrams counted malformed, %d packets past decode", st.Malformed, storm, st.Packets)
				}
				return ""
			}
		},
	},
	{
		// A worker whose reader stalls for 40 ms loses every result sent to it
		// (UDP semantics: drops, not backpressure), then recovers each block
		// from the served-result replay cache — one replay per retransmit, the
		// retry idempotence NetRPC argues for — without a block re-opening.
		name: "slowreader",
		cfg:  hostagg.ServerConfig{NumWorkers: 1, ReplayWindow: 64},
		script: func(r *lcRig, _ bool, _ uint64) lcCheck {
			w := r.victim(0, 0, lcVictim{factor: 1, blocks: 24, perBlk: 16, rounds: 1,
				retx: 15 * sim.Millisecond, deafUntil: 40 * sim.Millisecond})
			return func(st hostagg.ServerStats, _ hostagg.TenantStats) string {
				if r.dropped == 0 || st.ResultReplays != uint64(w.retransmits) || st.Completed != 24 {
					return fmt.Sprintf("%d results dropped, %d retransmits, %d replays, %d blocks completed",
						r.dropped, w.retransmits, st.ResultReplays, st.Completed)
				}
				return ""
			}
		},
	},
	{
		// The server dies 50 ms into an allreduce and comes back, empty, 50 ms
		// later. Worker 0, mid-stream, loses its retransmits to the outage and
		// rebuilds its contributions on the fresh table; worker 1 joins after
		// the restart; both complete bit-exact. The row reads the fresh table.
		name: "restart",
		cfg:  hostagg.ServerConfig{NumWorkers: 2},
		script: func(r *lcRig, _ bool, _ uint64) lcCheck {
			w := lcVictim{factor: 3, blocks: 8, perBlk: 64, rounds: 1, retx: 15 * sim.Millisecond}
			r.victim(0, 0, w)
			r.eng.At(50*sim.Millisecond, func() { r.tab = nil })
			r.eng.At(100*sim.Millisecond, r.boot)
			r.victim(100*sim.Millisecond, 1, w)
			return func(st hostagg.ServerStats, _ hostagg.TenantStats) string {
				if r.dropped == 0 || st.Completed != 8 {
					return fmt.Sprintf("%d datagrams lost to the outage, %d blocks completed after it", r.dropped, st.Completed)
				}
				return ""
			}
		},
	},
	{
		// A hoarder sends 19 single-source blocks: the ladder climbs through
		// pressure (14 of 20) into overload (18), where the 19th and ten more
		// creations are refused and NACKed. The victim, under its fair share,
		// is still admitted, by displacing hoarder blocks; then aging drains
		// the hoard and the ladder walks back to normal.
		name: "ladder",
		cfg: hostagg.ServerConfig{
			NumWorkers: 2, MaxOpenBlocks: 20, ReplayWindow: 8,
			Timeout: 40 * time.Millisecond, ScanInterval: 10 * time.Millisecond, RetryAfter: 5 * time.Millisecond,
		},
		script: func(r *lcRig, _ bool, _ uint64) lcCheck {
			park := func(first uint32) func(int) []byte {
				return func(i int) []byte { return lcContribution(lcAggressorJob, first+uint32(i), 0, 1, []int32{1}) }
			}
			r.trace(lcAddr(6000), 0, 100*sim.Microsecond, 19, park(0))
			r.trace(lcAddr(6000), 5*sim.Millisecond, 2*sim.Millisecond, 10, park(100))
			w := lcVictim{factor: 3, blocks: 4, perBlk: 32, rounds: 1, retx: 10 * sim.Millisecond}
			r.victim(26*sim.Millisecond, 0, w)
			r.victim(26*sim.Millisecond, 1, w)
			return func(st hostagg.ServerStats, aggr hostagg.TenantStats) string {
				switch {
				case st.PressureEnters != 1 || st.OverloadEnters != 1 || st.OverloadState != "normal":
					return fmt.Sprintf("climb/recover failed (state=%s pressure=%d overload=%d)", st.OverloadState, st.PressureEnters, st.OverloadEnters)
				case aggr.Shed == 0 || aggr.Nacked == 0 || aggr.Evicted == 0:
					return fmt.Sprintf("refusals not attributed to the aggressor (%+v)", aggr)
				}
				return ""
			}
		},
	},
}

// runLiveChaos runs every scenario and renders its counters; a victim that is
// not whole or a scenario whose check fails also comes back as an error naming
// the scenario, so CI fails loud.
func runLiveChaos(p Params) ([]*Table, error) {
	t := &Table{
		Title: "Multi-tenant isolation: adversarial tenants vs a victim on the hostagg block table (virtual time)",
		Columns: []string{"Scenario", "Rounds", "VShed", "VEvict", "RateShed", "QuotaShed", "AShed", "AEvict", "ANack",
			"Malformed", "Replays", "Dropped", "Ladder", "Finish(us)"},
		Notes: []string{
			"The real hostagg.Table (Handle/Sweep) on one sim.Engine: 50us links, now = epoch + virtual time; victim job 1 runs closed-form allreduce rounds, aggressor is tenant 2.",
			"Rounds: allreduce rounds every victim worker completed, each sum bit-exact against factor*(i%17+1) (an inexact or missing one is an error, not a cell).",
			"VShed/VEvict: the victim tenant's refused (rate, quota or fair-share) packets and evicted blocks; both must be 0.",
			"RateShed/AShed/AEvict/ANack: the aggressor tenant's token-bucket drops, refused creations, displaced blocks, retry-after NACKs; QuotaShed, Malformed, Replays: server totals.",
			"Dropped: datagrams lost outside the table — results sent to a stalled reader (slowreader), contributions sent into the outage (restart).",
			"Ladder: enters into pressure/overload, then the rung at the end of the run. Finish: virtual time the last victim round completed.",
		},
	}
	var violations []string
	for _, sc := range lcScenarios {
		r := newLCRig(sc.cfg)
		check := sc.script(r, p.Quick, p.seed())
		r.eng.RunUntil(lcHorizon)

		st := r.tab.Stats()
		var vict, aggr hostagg.TenantStats
		for _, ts := range r.tab.TenantStats() {
			switch ts.Tenant {
			case lcVictimJob:
				vict = ts
			case lcAggressorJob:
				aggr = ts
			}
		}
		rounds, finish := 1<<30, sim.Time(0)
		for _, w := range r.victims {
			rounds, finish = min(rounds, w.completed), max(finish, w.doneAt)
			if w.completed != w.rounds || w.err != nil {
				violations = append(violations, fmt.Sprintf("%s: victim worker %d finished %d/%d rounds: %v", sc.name, w.src, w.completed, w.rounds, w.err))
			}
		}
		if vict.Shed+vict.RateShed+vict.Evicted+vict.Nacked != 0 {
			violations = append(violations, fmt.Sprintf("%s: the victim tenant was refused or evicted (%+v)", sc.name, vict))
		}
		if msg := check(st, aggr); msg != "" {
			violations = append(violations, sc.name+": "+msg)
		}
		t.AddRow(sc.name, rounds, vict.Shed+vict.RateShed, vict.Evicted, aggr.RateShed, st.QuotaShed, aggr.Shed, aggr.Evicted, aggr.Nacked,
			st.Malformed, st.ResultReplays, r.dropped, fmt.Sprintf("%d/%d %s", st.PressureEnters, st.OverloadEnters, st.OverloadState),
			int64(finish/sim.Microsecond))
		p.logf("livechaos %s: %+v victim=%+v aggressor=%+v", sc.name, st, vict, aggr)
	}
	if len(violations) > 0 {
		return []*Table{t}, fmt.Errorf("livechaos: %d violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}
