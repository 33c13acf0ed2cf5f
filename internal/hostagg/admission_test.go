package hostagg

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/packet"
)

// traceStep is one event of a scripted admission trace: a datagram for
// Handle, or (payload nil) a Sweep, at an instant the script chose.
type traceStep struct {
	at      time.Duration
	payload []byte
	from    *net.UDPAddr
}

// admissionTrace scripts n packets mixing what the six livechaos scenarios
// throw at a table — a flood of fresh block ids over a token-bucket quota, a
// retransmit storm on four blocks, malformed datagrams, retransmits of served
// blocks, generation bumps that restart blocks in place, and a hoarder
// parking half-finished blocks under a victim that keeps completing its own —
// with a Sweep every 5 ms.
func admissionTrace(seed uint64, n int) []traceStep {
	rng := rand.New(rand.NewPCG(seed, 0x61646d74))
	victim := [2]*net.UDPAddr{workerAddr(0), workerAddr(1)}
	aggr, hoarder := workerAddr(10), workerAddr(11)
	valid := buildContribution(1, 0, 0, 1, []int32{1, 2, 3, 4})
	var (
		steps     []traceStep
		at        time.Duration
		nextSweep = 5 * time.Millisecond
		fresh     uint32 // flood block ids
		vblock    uint32 // victim's next block
		gen       = uint16(1)
	)
	add := func(p []byte, from *net.UDPAddr) { steps = append(steps, traceStep{at, p, from}) }
	for i := 0; i < n; i++ {
		at += time.Duration(rng.IntN(60)) * time.Microsecond
		for ; nextSweep <= at; nextSweep += 5 * time.Millisecond {
			steps = append(steps, traceStep{at: nextSweep})
		}
		mix := rng.IntN(10)
		if mix >= 5 && mix <= 7 && (at/(25*time.Millisecond))%2 == 0 {
			mix = 8 // the hoarder comes and goes, so the ladder climbs and recovers
		}
		switch mix {
		case 0, 1: // flood
			fresh++
			add(buildContribution(2, 1000+fresh, 0, 1, []int32{1, 2, 3, 4}), aggr)
		case 2: // retxstorm
			add(buildContribution(2, uint32(rng.IntN(4)), 0, 1, []int32{1, 2, 3, 4}), aggr)
		case 3: // malformed
			switch rng.IntN(3) {
			case 0:
				add(valid[:rng.IntN(packet.TrioMLHeaderLen)], aggr)
			case 1:
				add(valid[:packet.TrioMLHeaderLen+rng.IntN(15)], aggr)
			case 2:
				add(append(slices.Clone(valid), make([]byte, 1+rng.IntN(32))...), aggr)
			}
		case 4: // slowreader: retransmit a block the victim already had served
			if vblock > 0 {
				b := vblock - 1 - uint32(rng.IntN(int(min(vblock, 8))))
				add(buildContribution(1, b, uint8(rng.IntN(2)), gen, traceGrads(b)), victim[rng.IntN(2)])
			}
		case 5, 6, 7: // ladder: the hoarder parks single-source blocks
			if rng.IntN(150) == 0 {
				// restart: the generation moves on, block ids are reused and
				// whatever is still parked restarts in place
				gen++
				vblock = 0
			}
			add(buildContribution(9, uint32(rng.IntN(30)), 0, gen, []int32{1}), hoarder)
		default: // the victim completes a block: both sources, back to back
			add(buildContribution(1, vblock, 0, gen, traceGrads(vblock)), victim[0])
			add(buildContribution(1, vblock, 1, gen, traceGrads(vblock)), victim[1])
			vblock++
		}
	}
	return steps
}

func traceGrads(block uint32) []int32 {
	g := make([]int32, 8)
	for i := range g {
		g[i] = int32(block) + int32(i%17+1)
	}
	return g
}

// replayTrace runs the trace into a fresh table with a fresh fault plan and
// returns the table, the plan's counters, and every byte the table sent,
// each datagram prefixed by its destination.
func replayTrace(t *testing.T, steps []traceStep) (*Table, faults.Stats, []byte) {
	plan := faults.NewPlan(7, faults.Config{Hostagg: faults.HostaggConfig{RecvDropProb: 0.02, CrashEvery: 150}})
	tab := newTestTable(t, ServerConfig{
		NumWorkers: 2, MaxOpenBlocks: 24, Timeout: 20 * time.Millisecond, JobIdleTimeout: 80 * time.Millisecond,
		ReplayWindow: 16, RetryAfter: 4 * time.Millisecond, Faults: plan.Hostagg(),
		TenantQuotas: map[uint8]TenantQuota{
			1: {Weight: 4},
			2: {PacketsPerSec: 2000, PacketBurst: 20, MaxOpenBlocks: 6},
		},
	})
	var wire bytes.Buffer
	send := func(b []byte, to *net.UDPAddr) {
		fmt.Fprintf(&wire, "%v %d:", to, len(b))
		wire.Write(b)
	}
	for _, st := range steps {
		if st.payload == nil {
			tab.Sweep(t0.Add(st.at), send)
		} else {
			tab.Handle(t0.Add(st.at), st.payload, st.from, send)
		}
	}
	return tab, plan.Stats(), wire.Bytes()
}

// TestAdmissionTraceDeterministic: the table is a function of its inputs. One
// seeded 5 k-packet trace — all six scenario mixes, table crashes and recv
// drops from a fault plan — replayed twice into fresh tables at identical
// instants gives identical ServerStats, identical per-tenant stats and
// byte-identical send output. Map order, goroutine scheduling and the wall
// clock have no way in.
func TestAdmissionTraceDeterministic(t *testing.T) {
	steps := admissionTrace(1, 5000)
	tabA, fltA, wireA := replayTrace(t, steps)
	tabB, fltB, wireB := replayTrace(t, steps)
	stA, stB := tabA.Stats(), tabB.Stats()
	if stA != stB {
		t.Fatalf("stats diverged\n a: %+v\n b: %+v", stA, stB)
	}
	if tsA, tsB := tabA.TenantStats(), tabB.TenantStats(); !slices.Equal(tsA, tsB) {
		t.Fatalf("tenant stats diverged\n a: %+v\n b: %+v", tsA, tsB)
	}
	if fltA != fltB {
		t.Fatalf("fault counters diverged: %+v vs %+v", fltA, fltB)
	}
	if !bytes.Equal(wireA, wireB) {
		t.Fatalf("send output diverged (%d vs %d bytes)", len(wireA), len(wireB))
	}
	// The trace must have reached every mechanism it claims to mix.
	if stA.RateShed == 0 || stA.QuotaShed == 0 || stA.Shed == 0 || stA.FairEvictions == 0 ||
		stA.NacksSent == 0 || stA.Malformed == 0 || stA.ResultReplays == 0 || stA.Duplicates == 0 ||
		stA.GenRestarts == 0 || stA.Degraded == 0 || stA.Completed == 0 || stA.OverloadEnters == 0 ||
		fltA.HostaggRecvDrops == 0 || fltA.HostaggCrashes == 0 || len(wireA) == 0 {
		t.Fatalf("trace left a mechanism untouched: %+v faults %+v", stA, fltA)
	}
}
