package harness

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/apps/infnet"
	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
)

func init() {
	register(Experiment{
		Name: "infnet",
		Desc: "In-network MLP inference: per-packet classification quality, DDoS shedding, cost conformance, model-shape DSE",
		Run:  runInfnet,
	})
}

// Frame geometry the detector reads (Ethernet + IPv4 + UDP): IP total
// length at 16, TTL at 22, UDP destination port at 36.
const (
	infLenHiOff = 16
	infTTLOff   = 22
	infDPHiOff  = 36
	infDPLoOff  = 37
)

// ddosModel is a hand-quantized 4-feature, 4-neuron detector for
// small-packet low-TTL floods against low-numbered ports. n0 accumulates
// attack evidence (TTL headroom below 32, killed by a large length or a
// high port); n1..n3 accumulate benign evidence (high TTL, large length,
// high port). Ties score benign.
func ddosModel() infnet.Config {
	return infnet.Config{
		Features: []int{infLenHiOff, infTTLOff, infDPHiOff, infDPLoOff},
		Hidden: [][]int8{
			{-100, -1, -100, 0}, // n0: 32 - ttl, vetoed by len>=256 or dport>=256
			{0, 1, 0, 0},        // n1: ttl - 32
			{1, 0, 0, 0},        // n2: len-hi - 1 (packets >= 512B)
			{0, 0, 1, 0},        // n3: dport-hi (ports >= 256)
		},
		Bias1: []int32{32, -32, -1, 0},
		Shift: 0,
		Out: [2][]int8{
			{-1, 1, 1, 1},   // benign score
			{4, -2, -2, -2}, // attack score
		},
		Bias2: [2]int32{1, 0},
	}
}

// infTraffic generates one deterministic labelled frame: DDoS frames are
// small, low-TTL, and aimed at port 53; benign traffic is mixed sizes and
// ports — including a sliver of legitimate low-TTL DNS that the detector
// misflags (the precision gap the quality table reports).
func infTraffic(rng *sim.RNG, idx uint32, attack bool) []byte {
	spec := packet.UDPSpec{
		SrcIP: [4]byte{10, 1, 0, byte(idx)}, DstIP: [4]byte{10, 9, 9, 9},
		SrcPort: uint16(20000 + rng.IntN(20000)),
	}
	var payload []byte
	if attack {
		spec.DstPort = 53
		spec.TTL = uint8(8 + rng.IntN(24)) // 8..31
		payload = make([]byte, 10)
	} else {
		if rng.Float64() < 0.10 { // legitimate DNS, sometimes low TTL
			spec.DstPort = 53
			spec.TTL = uint8(24 + rng.IntN(41)) // 24..64
			payload = make([]byte, 20+rng.IntN(30))
		} else {
			spec.DstPort = uint16(1024 + rng.IntN(50000))
			spec.TTL = uint8(40 + rng.IntN(25))
			payload = make([]byte, 100+rng.IntN(1100))
		}
	}
	if len(payload) < 4 {
		payload = make([]byte, 4)
	}
	binary.BigEndian.PutUint32(payload, idx)
	return packet.BuildUDP(spec, payload)
}

// infnetRig drives labelled traffic from per-port senders through
// the classifier PFE and collects what survives on the egress port.
type infnetRig struct {
	eng       *sim.Engine
	router    *trio.Router
	svc       *infnet.Service
	delivered map[uint32]bool // idx → marked
	sent      int
	expect    int             // deliveries the reference model predicts
	labels    map[uint32]bool // idx → ground truth attack
	want      map[uint32]bool // idx → reference model decision
}

type infnetCfg struct {
	senders    int
	packets    int // per sender
	attackFrac float64
	mode       infnet.Mode
	seed       uint64
	obsReg     *obs.Registry // nil: metrics off (trioRig semantics: series rebind to the latest rig)
}

func newInfnetRig(cfg infnetCfg) *infnetRig {
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 1})
	model := ddosModel()
	model.Mode = cfg.mode
	svc, err := infnet.Install(r.PFE(0), model)
	if err != nil {
		panic(err)
	}
	rig := &infnetRig{eng: eng, router: r, svc: svc,
		delivered: map[uint32]bool{}, labels: map[uint32]bool{}, want: map[uint32]bool{}}
	r.Instrument(cfg.obsReg, nil, nil)
	svc.RegisterObs(cfg.obsReg)

	// The collector reads fixed offsets rather than packet.Decode: the TOS
	// mark deliberately skips the incremental IP-checksum fix-up (one fewer
	// instruction in the data path), so marked frames fail strict decode.
	r.AttachExternal(0, infnet.EgressPort, func(_ int, f []byte, _ sim.Time) {
		if len(f) < 46 {
			return
		}
		idx := binary.BigEndian.Uint32(f[42:46]) // UDP payload head
		rig.delivered[idx] = f[infnet.MarkOff] == infnet.Mark
	})

	// Senders on ports 1..; each owns an RNG stream so adding a sender never
	// perturbs another sender's sequence.
	idx := uint32(0)
	for s := 0; s < cfg.senders; s++ {
		send := r.Cable(0, 1+s, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), nil, 0).Send // send-only
		rng := sim.NewRNG(cfg.seed, 0x1F0+uint64(s))
		for i := 0; i < cfg.packets; i++ {
			attack := rng.Float64() < cfg.attackFrac
			f := infTraffic(rng, idx, attack)
			rig.labels[idx] = attack
			rig.want[idx] = model.Classify(f).Attack
			if cfg.mode == infnet.ModeFlag || !rig.want[idx] {
				rig.expect++
			}
			rig.sent++
			send(f)
			idx++
		}
	}
	return rig
}

func (r *infnetRig) run() {
	done := func() bool {
		return int(r.svc.Stats().Total()) == r.sent && len(r.delivered) == r.expect
	}
	deadline := sim.Time(r.sent)*sim.Microsecond + sim.Second
	for !done() {
		if !r.eng.Step() || r.eng.Now() > deadline {
			break
		}
	}
}

func runInfnet(p Params) ([]*Table, error) {
	packets := 600
	if p.Quick {
		packets = 200
	}

	// Phase 1 — telemetry flagging: everything is forwarded, attacks are
	// marked in the IP TOS byte. Every delivered mark must match the Go
	// reference model bit for bit.
	p.logf("infnet: flag phase, %d senders x %d labelled packets", 8, packets)
	flag := newInfnetRig(infnetCfg{senders: 8, packets: packets, attackFrac: 0.3,
		mode: infnet.ModeFlag, seed: p.seed(), obsReg: p.Obs})
	flag.run()
	if len(flag.delivered) != flag.sent {
		return nil, fmt.Errorf("infnet: flag mode delivered %d of %d packets", len(flag.delivered), flag.sent)
	}
	var tp, fp, fn, tn int
	for idx, marked := range flag.delivered {
		if marked != flag.want[idx] {
			return nil, fmt.Errorf("infnet: packet %d marked=%v but reference says %v — data path diverged from model",
				idx, marked, flag.want[idx])
		}
		switch {
		case marked && flag.labels[idx]:
			tp++
		case marked && !flag.labels[idx]:
			fp++
		case !marked && flag.labels[idx]:
			fn++
		default:
			tn++
		}
	}
	if tp == 0 || fp == 0 {
		return nil, fmt.Errorf("infnet: degenerate quality matrix (tp=%d fp=%d)", tp, fp)
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)

	t1 := &Table{
		Title:   "In-network MLP inference: per-packet flagging quality",
		Columns: []string{"Metric", "Value"},
		Notes: []string{
			"Ground truth from the traffic generator; marks checked bit-exact against the Go reference model.",
			"False positives are legitimate low-TTL DNS — the precision cost of a 4-feature detector.",
		},
	}
	t1.AddRow("Packets classified", flag.sent)
	t1.AddRow("True positives (attack marked)", tp)
	t1.AddRow("False positives (benign marked)", fp)
	t1.AddRow("False negatives (attack missed)", fn)
	t1.AddRow("True negatives", tn)
	t1.AddRow("Precision", fmt.Sprintf("%.3f", precision))
	t1.AddRow("Recall", fmt.Sprintf("%.3f", recall))

	// Cost conformance on the flag phase: branch-free layers mean every
	// packet retires the identical instruction count.
	cost, err := ddosModel().Cost()
	if err != nil {
		return nil, err
	}
	measured := flag.router.PFE(0).Stats().Instructions
	expected := uint64(flag.sent) * uint64(cost.InstrPerPacket)
	if measured != expected {
		return nil, fmt.Errorf("infnet: cost model predicts %d instructions, PFE retired %d", expected, measured)
	}
	t2 := &Table{
		Title:   "Inference cost model (branch-free => exact)",
		Columns: []string{"Metric", "Model", "Measured"},
	}
	t2.AddRow("Static program size (instructions)", cost.StaticInstructions, flag.svc.Program.Len())
	t2.AddRow("Instructions per packet (every path)", cost.InstrPerPacket,
		fmt.Sprintf("%.0f", float64(measured)/float64(flag.sent)))
	t2.AddRow("Total dynamic instructions", expected, measured)
	t2.AddRow("Instructions per MAC", fmt.Sprintf("%.2f", cost.InstrPerMAC), "")

	// Phase 2 — DDoS shedding: attacks die in the PFE; benign traffic must
	// survive untouched.
	p.logf("infnet: shed phase under 60%% flood")
	shed := newInfnetRig(infnetCfg{senders: 8, packets: packets, attackFrac: 0.6,
		mode: infnet.ModeShed, seed: p.seed() + 1, obsReg: p.Obs})
	shed.run()
	st := shed.svc.Stats()
	wantDeliver := 0
	for idx := range shed.labels {
		if !shed.want[idx] {
			wantDeliver++
		}
	}
	if len(shed.delivered) != wantDeliver {
		return nil, fmt.Errorf("infnet: shed mode delivered %d, model says %d survive", len(shed.delivered), wantDeliver)
	}
	benignLost := 0
	for idx := range shed.delivered {
		if shed.want[idx] {
			return nil, fmt.Errorf("infnet: packet %d classified attack leaked through shed mode", idx)
		}
	}
	for idx, attack := range shed.want {
		if _, ok := shed.delivered[idx]; !attack && !ok {
			benignLost++
		}
	}
	if benignLost != 0 {
		return nil, fmt.Errorf("infnet: %d model-benign packets lost in shed mode", benignLost)
	}
	t3 := &Table{
		Title:   "In-network DDoS shedding (ModeShed)",
		Columns: []string{"Metric", "Value"},
		Notes:   []string{"Shedding follows the model verdict exactly: zero model-benign loss, zero attack leakage."},
	}
	t3.AddRow("Offered packets", shed.sent)
	t3.AddRow("Dropped in PFE (attack verdicts)", st.Attack)
	t3.AddRow("Delivered (benign verdicts)", st.Benign)
	t3.AddRow("Shed fraction", fmt.Sprintf("%.1f%%", 100*float64(st.Attack)/float64(shed.sent)))
	t3.AddRow("Model-benign packets lost", benignLost)

	// Phase 3 — model-shape DSE on Cost, one packet's run per shape: sweep
	// (D, H), prune to the capacity/cost Pareto frontier without simulating.
	// A PPE interleaves ThreadsPerPPE threads, each with one instruction in
	// flight for InstrTime, so it retires one every InstrTime/ThreadsPerPPE.
	space := dse.NewSpace(
		dse.Axis{Name: "features", Values: []float64{2, 4, 8}},
		dse.Axis{Name: "hidden", Values: []float64{2, 4, 8}},
	)
	nsPerInstr := microcode.InstrTime.Seconds() * 1e9 / pfe.ThreadsPerPPE
	modelFn := func(pt dse.Point) (map[string]float64, error) {
		d, h := int(pt.Params["features"]), int(pt.Params["hidden"])
		c, err := shapeCost(d, h)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"static":        float64(c.StaticInstructions),
			"instr_per_pkt": float64(c.InstrPerPacket),
			"macs":          float64(d*h + 2*h),
			"mpps_per_ppe":  1e3 / (float64(c.InstrPerPacket) * nsPerInstr),
		}, nil
	}
	objs := []dse.Objective{
		{Metric: "macs", Maximize: true},
		{Metric: "instr_per_pkt", Maximize: false},
	}
	pruned, err := dse.PruneByModel(space.Grid(), modelFn, 0, objs...)
	if err != nil {
		return nil, fmt.Errorf("infnet: dse prune: %w", err)
	}
	kept := map[int]bool{}
	for _, orig := range pruned.Original {
		kept[orig] = true
	}
	t4 := &Table{
		Title:   "Model-shape DSE on the static cost model",
		Columns: []string{"DxH", "Static", "Instr/pkt", "MACs", "Mpps/PPE", "Frontier"},
		Notes: []string{
			"Pruned by dse.PruneByModel on (maximize MACs, minimize instr/pkt) — no simulation spent on dominated shapes.",
		},
	}
	for i, est := range pruned.Estimates {
		d, h := int(est.Params["features"]), int(est.Params["hidden"])
		mark := "pruned"
		if kept[i] {
			mark = "kept"
		}
		t4.AddRow(fmt.Sprintf("%dx%d", d, h), int(est.Metrics["static"]),
			int(est.Metrics["instr_per_pkt"]), int(est.Metrics["macs"]),
			fmt.Sprintf("%.1f", est.Metrics["mpps_per_ppe"]), mark)
	}

	return []*Table{t1, t2, t3, t4}, nil
}

// shapeCost is the cost of a (D, H) shape with placeholder weights: the
// branch-free program's cost depends only on the shape.
func shapeCost(d, h int) (infnet.Cost, error) {
	cfg := infnet.Config{
		Features: make([]int, d),
		Hidden:   make([][]int8, h),
		Bias1:    make([]int32, h),
		Out:      [2][]int8{make([]int8, h), make([]int8, h)},
	}
	for j := range cfg.Hidden {
		cfg.Hidden[j] = make([]int8, d)
	}
	return cfg.Cost()
}
