// Package infnet implements in-network MLP inference as a Microcode
// program on the PFE: a quantized two-layer perceptron
// compiled to branch-free VLIW arithmetic, classifying every packet in the
// data path for telemetry flagging or DDoS shedding.
//
// The model is a D-feature, H-hidden, 2-class MLP over int8 weights.
// Features are raw packet-head bytes (lmem8 reads at fixed offsets), so
// inference needs no feature-extraction pass. Each multiply-accumulate is
// one VLIW instruction (a cascaded load-multiply and accumulate — two Move
// ALUs); negative weights lower to subtract-accumulates, so every
// immediate stays non-negative. ReLU is branch-free: the accumulator's
// sign bit is smeared into a mask (sign = acc >> 63; mask = sign - 1;
// acc &= mask), then requantized by a logical right shift — no
// data-dependent control flow anywhere in the layers, so every packet
// retires exactly the same instruction count, so one packet's run is the
// program's cost (Config.Cost).
//
// The class decision is the sign of score_benign - score_attack (strict:
// ties are benign). Attacks are counted with an RMW counter and either
// marked in place and forwarded (ModeFlag — telemetry) or dropped
// (ModeShed — DDoS defense). The Go reference model (Config.Classify) is
// operation-for-operation identical to the generated microcode, and the
// conformance tests assert bit-identity between the two across the input
// corpus, through both the reference interpreter and the compiled
// dispatcher. See DESIGN.md §11.
package infnet

import (
	"fmt"
	"strings"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Mode selects what happens to packets classified as attacks.
type Mode int

const (
	// ModeFlag marks attack packets in place (frame byte MarkOff set to
	// Mark) and forwards everything — in-band telemetry for a downstream
	// collector.
	ModeFlag Mode = iota
	// ModeShed drops attack packets in the PFE — in-network DDoS defense.
	ModeShed
)

// Counter indices (16-byte RMW Packet/Byte Counters at CtrBase).
const (
	ctrBenign = iota
	ctrAttack
	numCtrs
)

const (
	maxNeurons = 8 // hidden activations live in r16..r23
	maxShift   = 63
	// EgressPort is where forwarded traffic leaves the PFE.
	EgressPort = 0
	// ModeFlag's in-place flag: frame byte MarkOff (the IPv4 TOS byte) is
	// overwritten with Mark on attack packets.
	MarkOff = 15
	Mark    = 0xE0
)

// Config is a quantized MLP plus its data-path wiring.
type Config struct {
	// Features are frame byte offsets (within the packet head) read as the
	// model's inputs, in order. Bytes past the frame end read as zero.
	Features []int
	// Hidden is the [H][D] layer-1 weight matrix, Bias1 its [H] biases.
	Hidden [][]int8
	Bias1  []int32
	// Shift requantizes each post-ReLU activation: h = relu(acc) >> Shift.
	Shift uint
	// Out is the [2][H] output layer — Out[0] scores benign, Out[1] attack
	// — with Bias2 its biases. A packet is an attack iff the attack score
	// strictly exceeds the benign score.
	Out   [2][]int8
	Bias2 [2]int32

	Mode Mode
}

func (cfg Config) check() error {
	d, h := len(cfg.Features), len(cfg.Hidden)
	if d == 0 || h == 0 {
		return fmt.Errorf("infnet: model needs features and hidden neurons")
	}
	if h > maxNeurons {
		return fmt.Errorf("infnet: %d hidden neurons exceed the register file's %d", h, maxNeurons)
	}
	for _, off := range cfg.Features {
		if off < 0 || off >= pfe.HeadBytes {
			return fmt.Errorf("infnet: feature offset %d outside the %d-byte head", off, pfe.HeadBytes)
		}
	}
	for j, row := range cfg.Hidden {
		if len(row) != d {
			return fmt.Errorf("infnet: hidden row %d has %d weights, want %d", j, len(row), d)
		}
	}
	if len(cfg.Bias1) != h {
		return fmt.Errorf("infnet: %d layer-1 biases for %d neurons", len(cfg.Bias1), h)
	}
	for k, row := range cfg.Out {
		if len(row) != h {
			return fmt.Errorf("infnet: output row %d has %d weights, want %d", k, len(row), h)
		}
	}
	if cfg.Shift > maxShift {
		return fmt.Errorf("infnet: shift %d out of range", cfg.Shift)
	}
	return nil
}

// Decision is one classification with its intermediate values, for
// asserting bit-identity against the microcode execution.
type Decision struct {
	Attack bool
	Score  [2]uint64 // benign, attack — raw two's-complement accumulators
	Hidden []uint64  // post-ReLU requantized activations
}

// Classify is the Go reference model: operation-for-operation identical to
// the generated program (wrapping uint64 arithmetic, mask-based ReLU,
// logical shifts), so microcode execution must reproduce it bit for bit.
func (cfg Config) Classify(frame []byte) Decision {
	x := make([]uint64, len(cfg.Features))
	for i, off := range cfg.Features {
		if off < len(frame) {
			x[i] = uint64(frame[off])
		}
	}
	h := make([]uint64, len(cfg.Hidden))
	for j, row := range cfg.Hidden {
		acc := uint64(int64(cfg.Bias1[j]))
		for i, w := range row {
			if w >= 0 {
				acc = acc + x[i]*uint64(w)
			} else {
				acc = acc - x[i]*uint64(-int64(w))
			}
		}
		sign := acc >> 63
		mask := sign - 1
		acc = acc & mask
		h[j] = acc >> (cfg.Shift & 63)
	}
	var score [2]uint64
	for k, row := range cfg.Out {
		acc := uint64(int64(cfg.Bias2[k]))
		for j, w := range row {
			if w >= 0 {
				acc = acc + h[j]*uint64(w)
			} else {
				acc = acc - h[j]*uint64(-int64(w))
			}
		}
		score[k] = acc
	}
	d := score[0] - score[1]
	return Decision{Attack: d>>63 != 0, Score: score, Hidden: h}
}

// immExpr renders a possibly-negative constant as assembler source; the
// parser folds "0 - n" to the two's-complement immediate.
func immExpr(v int64) string {
	if v >= 0 {
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("0 - %d", -v)
}

// macLine emits one multiply-accumulate instruction: load-multiply into
// tmp, then add or subtract into acc (two cascaded Move ALUs).
func macLine(b *strings.Builder, label, next, src string, w int8, acc string) {
	op := "+"
	mag := int64(w)
	if w < 0 {
		op, mag = "-", -int64(w)
	}
	fmt.Fprintf(b, "%s:\nbegin\n    tmp = %s * %d;\n    %s = %s %s tmp;\n    goto %s;\nend\n\n",
		label, src, mag, acc, acc, op, next)
}

// source generates the program text. Layers are fully unrolled and
// branch-free; the only branch in the program is the final class decision.
func source(cfg Config, ctrBase uint64) string {
	d, h := len(cfg.Features), len(cfg.Hidden)
	var b strings.Builder
	fmt.Fprintf(&b, "program infnet;\n\ndefine CTR_BASE = %d;\n\n", ctrBase)
	b.WriteString("reg acc  = r2;\nreg tmp  = r3;\nreg sign = r4;\nreg mask = r5;\nreg d    = r6;\nreg sb   = r7;\nreg sa   = r8;\n")
	for j := 0; j < h; j++ {
		fmt.Fprintf(&b, "reg h%d = r%d;\n", j, 16+j)
	}
	b.WriteString("\n")

	label := func(j int, part string) string { return fmt.Sprintf("n%d_%s", j, part) }
	// Layer 1: per neuron, bias init, D MACs, two-instruction ReLU+shift.
	for j := 0; j < h; j++ {
		nextNeuron := label(j+1, "bias")
		if j == h-1 {
			nextNeuron = "out_b"
		}
		fmt.Fprintf(&b, "%s:\nbegin\n    acc = %s;\n    goto %s;\nend\n\n",
			label(j, "bias"), immExpr(int64(cfg.Bias1[j])), label(j, "m0"))
		for i := 0; i < d; i++ {
			next := label(j, fmt.Sprintf("m%d", i+1))
			if i == d-1 {
				next = label(j, "relu")
			}
			macLine(&b, label(j, fmt.Sprintf("m%d", i)), next,
				fmt.Sprintf("lmem8[%d]", cfg.Features[i]), cfg.Hidden[j][i], "acc")
		}
		fmt.Fprintf(&b, "%s:\nbegin\n    sign = acc >> 63;\n    mask = sign - 1;\n    goto %s;\nend\n\n",
			label(j, "relu"), label(j, "relu2"))
		fmt.Fprintf(&b, "%s:\nbegin\n    acc = acc & mask;\n    h%d = acc >> %d;\n    goto %s;\nend\n\n",
			label(j, "relu2"), j, cfg.Shift&63, nextNeuron)
	}

	// Layer 2: benign score into sb, attack score into sa.
	accs := [2]string{"sb", "sa"}
	for k := 0; k < 2; k++ {
		fmt.Fprintf(&b, "out_%c:\nbegin\n    %s = %s;\n    goto out_%c0;\nend\n\n",
			"ba"[k], accs[k], immExpr(int64(cfg.Bias2[k])), "ba"[k])
		for j := 0; j < h; j++ {
			next := fmt.Sprintf("out_%c%d", "ba"[k], j+1)
			if j == h-1 {
				if k == 0 {
					next = "out_a"
				} else {
					next = "decide"
				}
			}
			macLine(&b, fmt.Sprintf("out_%c%d", "ba"[k], j), next,
				fmt.Sprintf("h%d", j), cfg.Out[k][j], accs[k])
		}
	}

	// Decision: attack iff sign(sb - sa) — i.e. attack score strictly wins.
	b.WriteString("decide:\nbegin\n    d = sb - sa;\n    sign = d >> 63;\n    goto decide2;\nend\n\n")
	b.WriteString("decide2:\nbegin\n    if (sign != 0) { goto attack; }\n    goto benign;\nend\n\n")
	fmt.Fprintf(&b, "benign:\nbegin\n    counter_inc(CTR_BASE + %d, 1);\n    exit(forward);\nend\n\n", 16*ctrBenign)
	if cfg.Mode == ModeShed {
		fmt.Fprintf(&b, "attack:\nbegin\n    counter_inc(CTR_BASE + %d, 1);\n    exit(drop);\nend\n", 16*ctrAttack)
	} else {
		fmt.Fprintf(&b, "attack:\nbegin\n    counter_inc(CTR_BASE + %d, 1);\n    lmem8[%d] = %d;\n    exit(forward);\nend\n",
			16*ctrAttack, MarkOff, Mark)
	}
	return b.String()
}

// Program assembles the inference program for cfg against a counter base.
// Exported so program-level DSE and benchmarks can build variants without
// provisioning a PFE.
func Program(cfg Config, ctrBase uint64) (*microcode.Program, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	prog, err := microcode.Assemble(source(cfg, ctrBase))
	if err != nil {
		return nil, fmt.Errorf("infnet: assembling: %w", err)
	}
	return prog, nil
}

// entry is the program's first instruction: neuron 0's bias.
const entry = "n0_bias"

// Cost is one model configuration's data-path cost.
type Cost struct {
	// StaticInstructions is the assembled program length.
	StaticInstructions int
	// InstrPerPacket is the instructions every packet retires, benign or
	// attack: the layers are branch-free and each terminal is one block.
	InstrPerPacket int
	// InstrPerMAC amortizes them over the D*H + 2*H multiply-accumulates.
	InstrPerMAC float64
}

// Cost reads cfg's cost off one packet run through its compiled program
// (packetStats).
func (cfg Config) Cost() (Cost, error) {
	st, static, err := cfg.packetStats()
	if err != nil {
		return Cost{}, err
	}
	n, d, h := int(st.Instructions), len(cfg.Features), len(cfg.Hidden)
	return Cost{StaticInstructions: static, InstrPerPacket: n, InstrPerMAC: float64(n) / float64(d*h+2*h)}, nil
}

// packetStats runs one zeroed minimum-size frame through cfg's compiled
// program (microcode.RunPackets), and returns the thread's statistics and
// the program length.
func (cfg Config) packetStats() (microcode.Stats, int, error) {
	prog, err := Program(cfg, 0)
	if err != nil {
		return microcode.Stats{}, 0, err
	}
	st, err := microcode.RunPackets(prog, entry, [][]byte{make([]byte, 64)}, pfe.HeadBytes, nil)
	if err != nil {
		return microcode.Stats{}, 0, fmt.Errorf("infnet: cost run: %w", err)
	}
	return st[0], prog.Len(), nil
}

// Service is an installed inference classifier.
type Service struct {
	App     *pfe.MicrocodeApp
	Program *microcode.Program
	PFE     *pfe.PFE
	CtrBase uint64
}

// Stats is a control-plane snapshot of the classification counters.
type Stats struct {
	Benign uint64
	Attack uint64
}

// Total reports all packets classified.
func (st Stats) Total() uint64 { return st.Benign + st.Attack }

// Stats snapshots the classification counters from shared memory.
func (s *Service) Stats() Stats {
	benign, _ := s.PFE.Mem.Counter(s.CtrBase + 16*ctrBenign)
	attack, _ := s.PFE.Mem.Counter(s.CtrBase + 16*ctrAttack)
	return Stats{Benign: benign, Attack: attack}
}

// Install provisions the counters, assembles and compiles the inference
// program through the v2 verify/compile pipeline, and installs it as p's
// application.
func Install(p *pfe.PFE, cfg Config) (*Service, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ctrBase := p.Mem.Alloc(smem.TierSRAM, numCtrs*16)
	prog, err := Program(cfg, ctrBase)
	if err != nil {
		return nil, err
	}
	app := &pfe.MicrocodeApp{
		Program:    prog,
		Entry:      entry,
		EgressPort: EgressPort,
	}
	if err := app.Compile(); err != nil {
		return nil, fmt.Errorf("infnet: compiling: %w", err)
	}
	s := &Service{App: app, Program: prog, PFE: p, CtrBase: ctrBase}
	p.SetApp(app)
	return s, nil
}
