package main

import (
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/trioml/triogo/internal/bitfield"
	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
	"github.com/trioml/triogo/internal/trioml"
)

// The replay step times each layer's public entry points alone, outside the
// workload, at the packet size and queue depth the workload produced. It
// yields ns per call; multiplied by the calls the workload made, that is an
// estimate of the layer's share of the run — an estimate, because a call
// costs less in a tight loop than amid the rest of the system.

// sink keeps the timed calls' results alive.
var sink uint64

// timeOp reports the median nanoseconds per call over five batches of n.
func timeOp(n int, f func()) float64 {
	var per []float64
	for batch := 0; batch < 5; batch++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

func nop(any) {}

// replayPacket times the packet layer at one frame size, and the bitfield
// accessors the Trio-ML header codec is built on.
func replayPacket(grads int, v map[string]float64) {
	g := make([]int32, grads)
	spec := packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000}
	hdr := packet.TrioML{JobID: 1, SrcID: 1, GenID: 1}
	var frame []byte
	v["packet.build_ns_per_pkt"] = timeOp(2000, func() { frame = packet.BuildTrioML(spec, hdr, g) })
	var f packet.Frame
	v["packet.decode_ns_per_pkt"] = timeOp(2000, func() {
		if packet.DecodeInto(&f, frame) == nil {
			sink += uint64(f.ML.BlockID)
		}
	})
	v["packet.checksum_ns_per_kb"] = timeOp(2000, func() { sink += uint64(packet.Checksum(frame, 0)) }) * 1024 / float64(len(frame))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const n = 1000
	for i := 0; i < n; i++ {
		frame = packet.BuildTrioML(spec, hdr, g)
		_ = packet.DecodeInto(&f, frame) // a frame BuildTrioML made always decodes
	}
	runtime.ReadMemStats(&m1)
	v["packet.allocs_per_pkt"] = float64(m1.Mallocs-m0.Mallocs) / n

	// trio_ml_hdr_t of Fig. 8, as internal/packet declares it.
	layout := bitfield.NewLayout(
		bitfield.Field{Name: "job_id", Width: 8}, bitfield.Field{Name: "block_id", Width: 32},
		bitfield.Field{Name: "age_op", Width: 4}, bitfield.Field{Name: "final", Width: 1},
		bitfield.Field{Name: "degraded", Width: 1}, bitfield.Field{Width: 2},
		bitfield.Field{Name: "src_id", Width: 8}, bitfield.Field{Name: "src_cnt", Width: 8},
		bitfield.Field{Name: "gen_id", Width: 16}, bitfield.Field{Width: 4},
		bitfield.Field{Name: "grad_cnt", Width: 12})
	rec := layout.New()
	v["bitfield.layout_get_ns"] = timeOp(20000, func() { sink += layout.Get(rec, "block_id") })
	h := layout.Handle("block_id")
	v["bitfield.handle_get_ns"] = timeOp(20000, func() { sink += h.Get(rec) })
}

// replaySim times the event core (schedule one event and fire one, with
// `pending` events queued, the workload's high-water mark) and a link send
// plus its delivery at the workload's frame size.
func replaySim(pending, frameLen int, v map[string]float64) {
	eng := sim.NewEngine()
	for i := 0; i < pending; i++ {
		eng.AtFunc(sim.Second+sim.Time(i), nop, nil)
	}
	v["sim.schedule_fire_ns"] = timeOp(20000, func() {
		eng.AfterFunc(sim.Microsecond, nop, nil)
		eng.Step()
	})
	link := netsim.NewLink(eng, netsim.DefaultLinkConfig(), func([]byte, sim.Time) {})
	frame := make([]byte, frameLen)
	v["netsim.send_ns_per_frame"] = timeOp(20000, func() {
		link.Send(frame)
		eng.Step()
	})
}

// replayPFEMemory times the shared-memory vector add in the aggregator's
// 16-gradient chunks, a hash-engine operation on a table holding `live`
// records, one timer thread's sweep of its 1/timers of that table, and a
// record-by-record sweep of a full one.
func replayPFEMemory(grads, live, timers int, v map[string]float64) (scanCallNs float64) {
	m := smem.New(trioml.RecommendedPFEConfig().Mem)
	addr := m.Alloc(smem.TierDRAM, uint64(4*grads))
	deltas := make([]int32, 16)
	var now sim.Time
	off := 0
	v["trio.smem.addvec_ns_per_grad"] = timeOp(20000, func() {
		now += sim.Microsecond
		sink += uint64(m.AddVector32(now, addr+uint64(off), deltas))
		off = (off + 64) % (4 * grads)
	}) / 16

	tb := hasheng.NewTable(trioml.RecommendedPFEConfig().Hash)
	for k := 0; k < live; k++ {
		tb.Insert(0, trioml.Key(1, uint32(k)), uint64(k))
	}
	k := 0
	v["trio.hasheng.op_ns"] = timeOp(20000, func() {
		val, _, _ := tb.Lookup(0, trioml.Key(1, uint32(k)))
		sink += val
		k = (k + 1) % live
	})
	keep := func(uint64, uint64, bool) hasheng.ScanAction { return hasheng.ScanClearRef }
	if timers > 0 {
		part := 0
		scanCallNs = timeOp(2000, func() {
			n, _ := tb.ScanPartition(0, part, timers, keep)
			sink += uint64(n)
			part = (part + 1) % timers
		})
	}
	const full = 4096
	for k := live; k < full; k++ {
		tb.Insert(0, trioml.Key(1, uint32(k)), uint64(k))
	}
	v["trio.hasheng.scan_ns_per_record"] = timeOp(20, func() {
		n, _ := tb.ScanPartition(0, 0, 1, keep)
		sink += uint64(n)
	}) / full
	return scanCallNs
}

// stubEnv is a microcode.Env over plain byte slices: no engine timing, no
// banking — what is left is the dispatcher itself.
type stubEnv struct {
	mem  []byte
	tail []byte
}

func (e *stubEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	return e.mem[addr : addr+uint64(size)], now
}
func (e *stubEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	copy(e.mem[addr:], data)
	return now
}
func (e *stubEnv) CounterInc(now sim.Time, _ uint64, _ uint32) sim.Time { return now }
func (e *stubEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	end := min(off+size, len(e.tail))
	return e.tail[min(off, end):end], now
}
func (e *stubEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.tail) {
		copy(e.tail[off:], data)
	}
	return now
}
func (e *stubEnv) HashLookup(now sim.Time, _ uint64) (uint64, bool, sim.Time) { return 0, false, now }
func (e *stubEnv) HashInsert(now sim.Time, _, _ uint64) (bool, sim.Time)      { return true, now }
func (e *stubEnv) HashDelete(now sim.Time, _ uint64) (bool, sim.Time)         { return true, now }

// replayMicrocode runs the compiled mcagg program for cfg against stubEnv,
// one whole PPE thread per contribution, and reports instructions per host
// second.
func replayMicrocode(cfg trioml.MCAggConfig) (float64, error) {
	const recBase, bufBase = 0, 1 << 16
	prog, err := trioml.MCAggProgram(cfg, recBase, bufBase)
	if err != nil {
		return 0, err
	}
	compiled, err := microcode.Compile(prog)
	if err != nil {
		return 0, err
	}
	env := &stubEnv{mem: make([]byte, bufBase+cfg.Slots*4*cfg.Grads)}
	frames := make([][]byte, cfg.Sources)
	g := make([]int32, cfg.Grads)
	for w := range frames {
		frames[w] = packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
			packet.TrioML{JobID: 1, SrcID: uint8(w), GenID: 1}, g)
	}
	var instrs uint64
	var block uint32
	i := 0
	var runErr error
	const n = 200
	t0 := time.Now()
	for batch := 0; batch < 5*n; batch++ {
		f := frames[i]
		// Rewrite the block id in place (bytes 43..46 of the frame) so every
		// `Sources` packets complete one block and start the next.
		f[43], f[44], f[45], f[46] = byte(block>>24), byte(block>>16), byte(block>>8), byte(block)
		env.tail = f[192:]
		th := microcode.NewThread(env, 0)
		th.LoadHead(f[:192])
		if _, err := microcode.RunCompiled(compiled, th, "parse"); err != nil {
			runErr = err
		}
		instrs += th.Stats.Instructions
		if i++; i == len(frames) {
			i = 0
			block++
		}
	}
	return float64(instrs) / time.Since(t0).Seconds(), runErr
}

// replaySimulator runs the replays every simulator workload shares — packet,
// event core, links, shared memory, hash engine — at its packet size, table
// occupancy (`live` records) and timer fan-out, and prices those layers with
// the counters c of one repetition. The packet layer's call counts differ per
// rig, so its estimate is the caller's.
func replaySimulator(grads, live, timers int, c, v map[string]float64) {
	replayPacket(grads, v)
	replaySim(int(c["sim.peak_pending"]), 54+4*grads, v)
	scanCall := replayPFEMemory(grads, live, timers, v)
	// The event core is priced at every executed event, the links at what a
	// send costs beyond the one event it schedules.
	v["sim.est_s"] = c["sim.events_executed"] * v["sim.schedule_fire_ns"] / 1e9
	v["netsim.est_s"] = c["netsim.frames"] * max(v["netsim.send_ns_per_frame"]-v["sim.schedule_fire_ns"], 0) / 1e9
	v["trio.smem.est_s"] = c["trioml.grads_aggregated"] * v["trio.smem.addvec_ns_per_grad"] / 1e9
	v["trio.hasheng.est_s"] = (c["trio.hasheng.ops"]*v["trio.hasheng.op_ns"] + c["trio.pfe.timer_firings"]*scanCall) / 1e9
}

func (r *pfeRunner) replay(rp *rep) map[string]float64 {
	spec, c := r.spec, rp.counts
	v := map[string]float64{}
	replaySimulator(spec.grads, spec.workers*spec.window+1, spec.timers, c, v)

	results := float64(rp.pkts) - float64(rp.ops)
	builds, decodes := float64(rp.ops), results
	if !spec.mcagg {
		// The native aggregator decodes every contribution it is handed and
		// builds one Result per block.
		builds += float64(rp.ops / spec.workers)
		decodes += c["trio.pfe.dispatched"]
	}
	v["packet.est_s"] = (builds*v["packet.build_ns_per_pkt"] + decodes*v["packet.decode_ns_per_pkt"]) / 1e9
	if spec.mcagg {
		ips, err := replayMicrocode(trioml.MCAggConfig{Sources: spec.workers, Slots: 8, Grads: spec.grads})
		if err == nil && ips > 0 {
			v["microcode.dispatch_instr_per_s"] = ips
			v["microcode.est_s"] = c["trio.pfe.instructions"] / ips
		}
	}
	return v
}

func (r *treeRunner) replay(rp *rep) map[string]float64 {
	c := rp.counts
	v := map[string]float64{}
	replaySimulator(r.cfg.GradsPerPkt, r.cfg.Window+1, r.cfg.TimerThreads, c, v)
	// Every contribution at every level was built by its sender and decoded
	// by the router that took it; workers also decode the results.
	fanin := c["tree.fanin_pkts_l0"] + c["tree.fanin_pkts_upper"]
	v["packet.est_s"] = (fanin*v["packet.build_ns_per_pkt"] + (c["trio.pfe.dispatched"]+float64(rp.pkts)-float64(rp.ops))*v["packet.decode_ns_per_pkt"]) / 1e9
	return v
}

// replay for the live workloads measures the syscall floor — a bare
// net.UDPConn on loopback at the workload's datagram size — and the client's
// SendBlock against a socket nobody reads.
func (r *hostaggRunner) replay(rp *rep) map[string]float64 {
	v := map[string]float64{}
	size := packet.TrioMLHeaderLen + 4*r.spec.blockGrads
	if err := replaySocket(size, r.spec.blockGrads, v); err != nil {
		return v // no loopback sockets: leave the layer unmeasured (0)
	}
	c := rp.counts
	// Datagrams the process sent: every contribution, and one result per
	// completed block to each client. Receives are not priced: the floor
	// below is for sends only.
	sent := c["hostagg.server.packets"] + c["hostagg.server.completed"]*float64(r.spec.clients)
	v["host.socket.est_s"] = sent * v["host.socket.udp_send_ns"] / 1e9
	v["hostagg.client.est_s"] = c["hostagg.server.packets"] * max(v["hostagg.client.sendblock_ns"]-v["host.socket.udp_send_ns"], 0) / 1e9
	return v
}

func replaySocket(size, blockGrads int, v map[string]float64) error {
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.DialUDP("udp", nil, a.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer b.Close()
	buf := make([]byte, size)

	// Round trip first, while a's receive queue is empty: b sends, the echo
	// goroutine returns it, b reads it back.
	done := make(chan struct{})
	go func() {
		defer close(done)
		in := make([]byte, 65536)
		for {
			n, from, err := a.ReadFromUDP(in)
			if err != nil {
				return // the read deadline set below, once the timing is over
			}
			_, _ = a.WriteToUDP(in[:n], from) // a lost echo shows as b's read timeout
		}
	}()
	in := make([]byte, 65536)
	var ioErr error
	// A lost datagram must not hang the run: 2000 round trips take ~20 ms.
	if err := b.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	v["host.socket.udp_rtt_ns"] = timeOp(400, func() {
		if _, err := b.Write(buf); err != nil {
			ioErr = err
		}
		if _, err := b.Read(in); err != nil {
			ioErr = err
		}
	})
	if err := a.SetReadDeadline(time.Now()); err != nil {
		return err // the deferred Close still ends the echo goroutine
	}
	<-done
	if ioErr != nil {
		return ioErr
	}

	// One-way sends into a socket nobody reads: once its buffer is full the
	// kernel drops, which costs the sender the same.
	v["host.socket.udp_send_ns"] = timeOp(2000, func() {
		if _, err := b.Write(buf); err != nil {
			ioErr = err
		}
	})
	cl, err := hostagg.NewClient(hostagg.ClientConfig{ServerAddr: a.LocalAddr().String(), JobID: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	g := make([]int32, blockGrads)
	var blk uint32
	v["hostagg.client.sendblock_ns"] = timeOp(2000, func() {
		if err := cl.SendBlock(blk, 1, g, false); err != nil {
			ioErr = err
		}
		blk++
	})
	return ioErr
}
