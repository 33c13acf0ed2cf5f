package trioml

import (
	"fmt"
	"strings"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// This file carries a complete in-network aggregation data path written in
// Microcode itself — the §3/§4 programming model end to end: parse the
// Trio-ML header out of thread-local memory, claim a block record in shared
// memory, deduplicate sources with a bitmask, aggregate gradients chunk by
// chunk (head gradients directly from local memory, tail gradients through
// 64-byte tail-read XTXNs with the head/tail straddle staged around a
// 2-byte phase offset — the loop of Fig. 10), and, on the final
// contribution, rewrite that packet into the Result: sums copied back into
// the head and written to the Packet Buffer tail in the result-build loop.
//
// Scope relative to the production path (Aggregator): one job, a static
// record/buffer pool indexed by block & mask instead of the hash engine,
// and a single forwarded Result instead of multicast. The production
// semantics live in the native Aggregator; this program demonstrates that
// the ISA suffices for the paper's application at the instruction count
// §6.3 reports (≈60 static instructions; this assembles to 53 at Unroll=1
// including the result-build loop).

// MCAggGrads is the default gradients-per-packet of the Microcode
// aggregator.
const MCAggGrads = 16

// Packet geometry the program is compiled against: gradients start at byte
// 54 (Ethernet 14 + IPv4 20 + UDP 8 + Trio-ML 12) and the head holds the
// first pfe.HeadBytes = 192, so gradient chunk 2 straddles the head/tail boundary
// with a constant 2-byte phase.
const (
	mcGradOff  = 54
	mcStage    = 320 // 64-byte staging window for straddle/tail chunks
	mcBufStage = 448 // 64-byte staging window for buffer chunks
	mcRecStage = 256 // 24-byte record staging
)

// MCAggConfig parameterizes the Microcode aggregation program.
type MCAggConfig struct {
	Sources int // contributors per block (≥ 2)
	Slots   int // record/buffer pool size, power of two
	Grads   int // gradients per packet: multiple of 16, 16..1024; default MCAggGrads
	// Unroll replicates the gradient-add body so each loop-control
	// instruction pays for Unroll gradients: 1 (default), 2, 4, 8, or 16.
	// Higher unroll trades static instructions for fewer run-time
	// instructions per gradient — the axis progdse explores.
	Unroll int
}

// withDefaults fills zero-valued knobs.
func (cfg MCAggConfig) withDefaults() MCAggConfig {
	if cfg.Grads == 0 {
		cfg.Grads = MCAggGrads
	}
	if cfg.Unroll == 0 {
		cfg.Unroll = 1
	}
	return cfg
}

// check validates a defaulted configuration.
func (cfg MCAggConfig) check() error {
	if cfg.Sources < 2 || cfg.Sources > 63 {
		return fmt.Errorf("trioml: mcagg needs 2..63 sources, got %d", cfg.Sources)
	}
	if cfg.Slots <= 0 || cfg.Slots&(cfg.Slots-1) != 0 {
		return fmt.Errorf("trioml: mcagg slots must be a power of two, got %d", cfg.Slots)
	}
	if cfg.Grads%16 != 0 || cfg.Grads < 16 || cfg.Grads > 1024 {
		return fmt.Errorf("trioml: mcagg gradients must be a multiple of 16 in 16..1024, got %d", cfg.Grads)
	}
	switch cfg.Unroll {
	case 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("trioml: mcagg unroll must be 1, 2, 4, 8 or 16, got %d", cfg.Unroll)
	}
	return nil
}

// pools returns the record (SRAM) and aggregation-buffer (DRAM) pool sizes
// of a defaulted configuration: a 64-byte record and a block of gradients
// per slot.
func (cfg MCAggConfig) pools() (rec, buf uint64) {
	return uint64(cfg.Slots) * 64, uint64(cfg.Slots) * 4 * uint64(cfg.Grads)
}

// MCAgg is an installed Microcode aggregator.
type MCAgg struct {
	App     *pfe.MicrocodeApp
	Program *microcode.Program
	RecBase uint64
	BufBase uint64
}

// mcaggSource generates the program text for a configuration.
func mcaggSource(cfg MCAggConfig, recBase, bufBase uint64) string {
	return fmt.Sprintf(`
program mcagg;

define NSRC        = %d;
define SLOT_MASK   = %d;
define REC_BASE    = %d;
define BUF_BASE    = %d;
define BLOCK_BYTES = %d;
define NCHUNKS_M1  = %d;   // chunks per block - 1

reg block = r2;
reg src   = r3;
reg slot  = r4;
reg rec   = r5;
reg buf   = r6;   // walks the block's aggregation buffer chunk by chunk
reg tag   = r7;
reg bit   = r10;
reg ptr_s = r11;  // source pointer (packet gradients)
reg ptr_b = r12;  // destination pointer (staged buffer chunk)
reg lane  = r13;
reg tmp   = r14;
reg k     = r15;  // chunk index
reg toff  = r16;  // tail byte offset of the current chunk
reg first = r17;  // 1 when this thread is the block's first contributor

// trio_ml_hdr_t sits at byte 42: block_id at 43, src_id at 48, src_cnt at
// 49; gradients start at byte 54.

parse:
begin
    block = lmem32[43];
    src   = lmem8[48];
    goto calc_slot;
end

calc_slot:
begin
    slot = block & SLOT_MASK;
    tag  = block + 1;
    goto calc_rec;
end

calc_rec:
begin
    rec = REC_BASE + slot * 64;
    goto calc_buf;
end

calc_buf:
begin
    buf = BUF_BASE + slot * BLOCK_BYTES;
    goto load_rec;
end

// Record: word0 tag, word1 source bitmask, word2 contribution count.
load_rec:
begin
    mem_read(rec, 24, 256);
    goto check_rec;
end

check_rec:
begin
    tmp = lmem64[256];
    goto check_rec2;
end

check_rec2:
begin
    if (tmp == tag) { goto dedup; }
    goto init_rec;
end

init_rec:
begin
    lmem64[256] = tag;
    lmem64[264] = 0;
    goto init_rec2;
end

init_rec2:
begin
    lmem64[272] = 0;
    goto dedup;
end

dedup:
begin
    bit = 1 << src;
    tmp = lmem64[264] & bit;       // cascaded: bit feeds the second ALU
    goto dedup2;
end

dedup2:
begin
    if (tmp != 0) { exit(drop); }  // retransmission
    goto mark;
end

mark:
begin
    lmem64[264] = lmem64[264] | bit;
    lmem64[272] = lmem64[272] + 1;
    goto mark2;
end

mark2:
begin
    tmp   = lmem64[272];
    first = 0;
    goto branch_first;
end

branch_first:
begin
    if (tmp == 1) { goto set_first; }
    goto chunk_init;
end

set_first:
begin
    first = 1;
    goto chunk_init;
end

// ---- gradient chunk loop (Fig. 10): 16 gradients (64 bytes) per pass ----

chunk_init:
begin
    k = 0;
    goto chunk_top;
end

// One multi-way branch resolves where this chunk's bytes live: chunks 0 and
// 1 sit in the head; chunk 2 straddles the head/tail boundary; the rest are
// pure tail.
chunk_top:
begin
    if (k == 0) { goto src_h0; }
    if (k == 1) { goto src_h1; }
    if (k == 2) { goto src_strad; }
    goto src_tail;
end

src_h0:
begin
    ptr_s = 54;
    if (first == 1) { goto wr54; }
    goto add_init;
end

src_h1:
begin
    ptr_s = 118;
    if (first == 1) { goto wr118; }
    goto add_init;
end

// Straddle: 10 head bytes (182..192) staged ahead of a 54-byte tail read.
src_strad:
begin
    lmem64[320] = lmem64[182];
    lmem16[328] = lmem16[190];
    goto src_strad2;
end

src_strad2:
begin
    tail_read(0, 54, 330);
    ptr_s = 320;
    if (first == 1) { goto wr320; }
    goto add_init;
end

src_tail:
begin
    toff = k * 64 - 138;           // constant 2-byte phase offset
    goto src_tail2;
end

src_tail2:
begin
    tail_read(toff, 64, 320);
    ptr_s = 320;
    if (first == 1) { goto wr320; }
    goto add_init;
end

// First contributor initializes the buffer chunk by writing its gradients
// straight from wherever they sit — no separate zeroing pass.
wr54:
begin
    mem_write(buf, 64, 54);
    goto chunk_next;
end

wr118:
begin
    mem_write(buf, 64, 118);
    goto chunk_next;
end

wr320:
begin
    mem_write(buf, 64, 320);
    goto chunk_next;
end

// Later contributors read-modify-write the chunk through staging. The
// mem_read's address operand is read in the XTXN phase after the moves,
// but the moves leave buf alone, so staging setup rides along for free.
add_init:
begin
    mem_read(buf, 64, 448);
    ptr_b = 448;
    lane  = 16;
    goto add_loop;
end

%s
add_wb:
begin
    mem_write(buf, 64, 448);
    goto chunk_next;
end

chunk_next:
begin
    k   = k + 1;
    buf = buf + 64;
    if (k != NCHUNKS_M1) { goto chunk_top; }
    goto write_rec;
end

// ---- completion ----

write_rec:
begin
    async mem_write(rec, 24, 256);
    tmp = lmem64[272];
    goto complete_check;
end

complete_check:
begin
    if (tmp == NSRC) { goto res_init; }
    exit(consume);
end

// ---- result-build loop (Fig. 10): pull chunks from the aggregation
// buffer, write them into this packet's head and Packet Buffer tail ----

res_init:
begin
    buf = BUF_BASE + slot * BLOCK_BYTES;
    goto res_init2;
end

res_init2:
begin
    k = 0;
    goto res_top;
end

res_top:
begin
    mem_read(buf, 64, 448);
    goto res_sel;
end

res_sel:
begin
    if (k == 0) { goto res_h0a; }
    if (k == 1) { goto res_h1a; }
    if (k == 2) { goto res_strad; }
    goto res_tail;
end

res_h0a:
begin
    lmem64[54] = lmem64[448];
    lmem64[62] = lmem64[456];
    goto res_h0b;
end

res_h0b:
begin
    lmem64[70] = lmem64[464];
    lmem64[78] = lmem64[472];
    goto res_h0c;
end

res_h0c:
begin
    lmem64[86] = lmem64[480];
    lmem64[94] = lmem64[488];
    goto res_h0d;
end

res_h0d:
begin
    lmem64[102] = lmem64[496];
    lmem64[110] = lmem64[504];
    goto res_next;
end

res_h1a:
begin
    lmem64[118] = lmem64[448];
    lmem64[126] = lmem64[456];
    goto res_h1b;
end

res_h1b:
begin
    lmem64[134] = lmem64[464];
    lmem64[142] = lmem64[472];
    goto res_h1c;
end

res_h1c:
begin
    lmem64[150] = lmem64[480];
    lmem64[158] = lmem64[488];
    goto res_h1d;
end

res_h1d:
begin
    lmem64[166] = lmem64[496];
    lmem64[174] = lmem64[504];
    goto res_next;
end

res_strad:
begin
    lmem64[182] = lmem64[448];
    lmem16[190] = lmem16[456];
    goto res_strad2;
end

res_strad2:
begin
    tail_write(0, 54, 458);
    goto res_next;
end

res_tail:
begin
    toff = k * 64 - 138;
    goto res_tail2;
end

res_tail2:
begin
    tail_write(toff, 64, 448);
    goto res_next;
end

res_next:
begin
    k   = k + 1;
    buf = buf + 64;
    if (k != NCHUNKS_M1) { goto res_top; }
    goto free_slot;
end

free_slot:
begin
    lmem64[256] = 0;
    goto free_slot2;
end

free_slot2:
begin
    async mem_write(rec, 8, 256);
    goto set_hdr;
end

set_hdr:
begin
    lmem8[48] = 0xFF;      // src_id = Result marker
    lmem8[49] = NSRC;      // src_cnt
    exit(forward);
end
`, cfg.Sources, cfg.Slots-1, recBase, bufBase, 4*cfg.Grads, cfg.Grads/16-1,
		mcaggAddLoop(cfg.Unroll))
}

// mcaggAddLoop renders the gradient-add loop body unrolled u ways. Each
// body instruction is one fused 32-bit read-modify-write on the staged
// chunk; the last body instruction also advances the source pointer, and
// one control instruction per pass retires u lanes. Conditions read
// pre-decrement state, so "lane != u" continues exactly while passes
// remain; u = 1 reproduces the classic two-instruction loop.
func mcaggAddLoop(u int) string {
	var b strings.Builder
	for j := 0; j < u; j++ {
		label := "add_loop"
		if j > 0 {
			label = fmt.Sprintf("add_u%d", j)
		}
		next := "add_ctl"
		if j < u-1 {
			next = fmt.Sprintf("add_u%d", j+1)
		}
		fmt.Fprintf(&b, "%s:\nbegin\n", label)
		if j == 0 {
			b.WriteString("    lmem32[ptr_b] = lmem32[ptr_b] + lmem32[ptr_s];\n")
		} else {
			fmt.Fprintf(&b, "    lmem32[ptr_b + %d] = lmem32[ptr_b + %d] + lmem32[ptr_s + %d];\n", 4*j, 4*j, 4*j)
		}
		if j == u-1 {
			fmt.Fprintf(&b, "    ptr_s = ptr_s + %d;\n", 4*u)
		}
		fmt.Fprintf(&b, "    goto %s;\nend\n\n", next)
	}
	fmt.Fprintf(&b, "add_ctl:\nbegin\n    lane  = lane - %d;\n    ptr_b = ptr_b + %d;\n    if (lane != %d) { goto add_loop; }\n    goto add_wb;\nend\n", u, 4*u, u)
	return b.String()
}

// MCAggProgram assembles the Microcode aggregation program for cfg against
// the given record/buffer pool bases. Exported so the dispatch benchmark
// and program-level DSE can build variants without provisioning a PFE.
func MCAggProgram(cfg MCAggConfig, recBase, bufBase uint64) (*microcode.Program, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	prog, err := microcode.Assemble(mcaggSource(cfg, recBase, bufBase))
	if err != nil {
		return nil, fmt.Errorf("trioml: assembling mcagg: %w", err)
	}
	return prog, nil
}

// InstallMCAgg provisions the record and buffer pools in p's shared memory,
// assembles the Microcode aggregation program for cfg, compiles it through
// the v2 verify/compile pipeline, and installs it as p's application.
// Results egress on egressPort.
func InstallMCAgg(p *pfe.PFE, cfg MCAggConfig, egressPort int) (*MCAgg, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	recBytes, bufBytes := cfg.pools()
	recBase := p.Mem.Alloc(smem.TierSRAM, recBytes)
	bufBase := p.Mem.Alloc(smem.TierDRAM, bufBytes)
	prog, err := MCAggProgram(cfg, recBase, bufBase)
	if err != nil {
		return nil, err
	}
	app := &pfe.MicrocodeApp{Program: prog, Entry: "parse", EgressPort: egressPort}
	if err := app.Compile(); err != nil {
		return nil, fmt.Errorf("trioml: compiling mcagg: %w", err)
	}
	p.SetApp(app)
	return &MCAgg{App: app, Program: prog, RecBase: recBase, BufBase: bufBase}, nil
}

// MCAggCost is one configuration's cost as its compiled program spends it
// on one block — what progdse prunes candidate configurations on before
// spending full-sim trials.
type MCAggCost struct {
	// StaticInstructions is the assembled program length.
	StaticInstructions int
	// InstrPerGrad amortizes one whole block — every contributor, first to
	// final — over the Sources*Grads gradient contributions it aggregates.
	// §6.3 reports ≈1.2 for the hand-scheduled production program; the
	// unrolled generator approaches it from above.
	InstrPerGrad float64
	// DRAMBytes is the aggregation-buffer pool InstallMCAgg provisions.
	DRAMBytes uint64
}

// Cost reads cfg's cost off one block of zero gradients run through its
// compiled program (mcaggBlockRun).
func (cfg MCAggConfig) Cost() (MCAggCost, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return MCAggCost{}, err
	}
	frames := make([][]byte, cfg.Sources)
	for w := range frames {
		frames[w] = packet.BuildTrioML(packet.UDPSpec{}, packet.TrioML{SrcID: uint8(w)}, make([]int32, cfg.Grads))
	}
	per, static, err := mcaggBlockRun(cfg, frames)
	if err != nil {
		return MCAggCost{}, err
	}
	var instr uint64
	for _, st := range per {
		instr += st.Instructions
	}
	_, buf := cfg.pools()
	return MCAggCost{StaticInstructions: static, InstrPerGrad: float64(instr) / float64(cfg.Sources*cfg.Grads),
		DRAMBytes: buf}, nil
}

// mcaggBlockRun runs one block — frames[w] is source w's contribution, run
// in order, so the first initializes the buffer and the last builds the
// result in its frame — through cfg's compiled program
// (microcode.RunPackets), with the record pool at address 0 and the buffer
// pool after it. It returns each contributor's thread statistics and the
// program length.
func mcaggBlockRun(cfg MCAggConfig, frames [][]byte) ([]microcode.Stats, int, error) {
	rec, _ := cfg.pools()
	prog, err := MCAggProgram(cfg, 0, rec)
	if err != nil {
		return nil, 0, err
	}
	per, err := microcode.RunPackets(prog, "parse", frames, pfe.HeadBytes, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("trioml: mcagg cost run: %w", err)
	}
	return per, prog.Len(), nil
}
