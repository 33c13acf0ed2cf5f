package microcode

import (
	"reflect"
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// stallEnv is a memEnv whose every reply arrives 70 ns after issue, so the
// fuzzed synchronous XTXNs also drive both engines' stall accounting (a
// memEnv on its own replies at once).
type stallEnv struct{ *memEnv }

const stall = 70

func (e stallEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	b, _ := e.memEnv.MemRead(now, addr, size)
	return b, now + stall
}
func (e stallEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	return e.memEnv.MemWrite(now, addr, data) + stall
}
func (e stallEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	return e.memEnv.CounterInc(now, addr, pktLen) + stall
}
func (e stallEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	b, _ := e.memEnv.ReadTail(now, off, size)
	return b, now + stall
}
func (e stallEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	return e.memEnv.WriteTail(now, off, data) + stall
}
func (e stallEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	v, ok, _ := e.memEnv.HashLookup(now, key)
	return v, ok, now + stall
}
func (e stallEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	ok, _ := e.memEnv.HashInsert(now, key, val)
	return ok, now + stall
}
func (e stallEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	ok, _ := e.memEnv.HashDelete(now, key)
	return ok, now + stall
}

// FuzzAssemble drives the whole v2 pipeline with arbitrary source text:
// parse/assemble must never panic; whatever assembles must compile+verify
// without panicking; and whatever verifies must dispatch without panicking
// AND bit-identically between the reference interpreter and the compiled
// engine (verdict, error, statistics, virtual time, register/LMEM state,
// and the environment each leaves behind).
//
// Both run on a memEnv, the environment applications read their cost from,
// with replies delayed (stallEnv). It is panic-free for any address, so
// every panic the fuzzer finds is a microcode pipeline bug. Its 512-byte
// tail is clipped through ClipTail and ignores writes that start outside
// it, so a negative or oversized tail offset computed by a fuzzed program
// exercises that clipping instead of wrapping harmlessly.
func FuzzAssemble(f *testing.F) {
	f.Add("program p;\n\na:\nbegin\n    r0 = r1 + 2;\n    if (r0 == 7) { exit(forward); }\n    exit(drop);\nend\n")
	f.Add("program loop;\n\ntop:\nbegin\n    r2 = r2 + 1;\n    if (r2 != 10) { goto top; }\n    exit(consume);\nend\n")
	f.Add("program mem;\n\nrd:\nbegin\n    mem_read(r4, 24, 256);\n    goto wr;\nend\n\nwr:\nbegin\n    lmem64[256] = lmem64[256] | 1;\n    async mem_write(r4, 24, 256);\n    exit(forward);\nend\n")
	f.Add("program call;\n\nmain:\nbegin\n    call sub;\n    exit(forward);\nend\n\nsub:\nbegin\n    r9 = r9 * 3;\n    return;\nend\n")
	f.Add("program hash;\n\nh:\nbegin\n    hash_lookup(r0, 512);\n    if (c3 == 1) { exit(forward); }\n    exit(drop);\nend\n")
	f.Add("program ptr;\n\np1:\nbegin\n    r11 = 64;\n    goto p2;\nend\n\np2:\nbegin\n    lmem32[r11] = lmem32[r11] + lmem32[r11 + 4];\n    tail_read(0, 16, 128);\n    exit(consume);\nend\n")
	f.Add("program bad;\n\nx:\nbegin\n    goto nowhere;\nend\n")
	f.Add("program rec;\n\nr:\nbegin\n    call r;\nend\n")
	// infnet family: signed int8 MAC chains with the branch-free mask ReLU
	// (sign extraction via logical shift, wrapping mul/sub) and a two's-
	// complement immediate from constant folding ("0 - 5").
	f.Add("program mlp;\n\ndefine CTR = 36864;\n\nreg acc = r2;\nreg tmp = r3;\nreg sign = r4;\nreg mask = r5;\n\nbias:\nbegin\n    acc = 0 - 5;\n    goto mac;\nend\n\nmac:\nbegin\n    tmp = lmem8[22] * 3;\n    acc = acc - tmp;\n    goto relu;\nend\n\nrelu:\nbegin\n    sign = acc >> 63;\n    mask = sign - 1;\n    goto relu2;\nend\n\nrelu2:\nbegin\n    acc = acc & mask;\n    r16 = acc >> 2;\n    goto decide;\nend\n\ndecide:\nbegin\n    if (sign != 0) { goto hit; }\n    counter_inc(CTR + 0, 1);\n    exit(forward);\nend\n\nhit:\nbegin\n    counter_inc(CTR + 16, 1);\n    exit(drop);\nend\n")
	// netrpc family: keyed-table claim (hash insert + record write-back) and
	// a register-addressed counter increment on the serve path.
	f.Add("program rpc;\n\ndefine RS = 1024;\n\nreg rpc = r2;\nreg slot = r3;\nreg rec = r4;\nreg tmp = r8;\n\nlook:\nbegin\n    rpc = lmem64[50];\n    hash_lookup(rpc);\n    if (c0 == 1) { goto serve; }\n    goto claim;\nend\n\nclaim:\nbegin\n    slot = rpc & 1023;\n    lmem64[RS] = rpc;\n    lmem64[RS + 8] = 1;\n    goto claim2;\nend\n\nclaim2:\nbegin\n    async mem_write(rec, 32, RS);\n    hash_insert(rpc, slot);\n    counter_inc(0, 1);\n    exit(forward);\nend\n\nserve:\nbegin\n    tmp = slot * 16;\n    counter_inc(tmp, 32);\n    lmem8[42] = 2;\n    exit(forward);\nend\n")
	// Counted-loop kernels. A pointer that starts 8 bytes short of the end of
	// local memory faults in lane 2 of the first pass of a 3-lane loop; a
	// countdown from 0 to 1 never ends, so the 4096-instruction budget expires
	// inside a 4-instruction pass (1 + 4*1023 + 3); and a negative tail
	// offset (k*64 - 138 at k < 3) reaches the environment's clipping.
	f.Add("program fault;\n\ns:\nbegin\n    r12 = 1272;\n    r13 = 9;\n    goto l0;\nend\n\nl0:\nbegin\n    lmem32[r12] = lmem32[r12] + lmem32[r11];\n    goto l1;\nend\n\nl1:\nbegin\n    lmem32[r12 + 4] = lmem32[r12 + 4] + lmem32[r11 + 4];\n    goto l2;\nend\n\nl2:\nbegin\n    lmem32[r12 + 8] = lmem32[r12 + 8] + lmem32[r11 + 8];\n    r11 = r11 + 12;\n    goto ctl;\nend\n\nctl:\nbegin\n    r13 = r13 - 3;\n    r12 = r12 + 12;\n    if (r13 != 3) { goto l0; }\n    exit(consume);\nend\n")
	f.Add("program spin;\n\ns:\nbegin\n    r12 = 640;\n    goto l0;\nend\n\nl0:\nbegin\n    lmem32[r12] = lmem32[r12] + lmem32[r11];\n    goto l1;\nend\n\nl1:\nbegin\n    lmem32[r12 + 4] = lmem32[r12 + 4] ^ lmem32[r11 + 4];\n    goto l2;\nend\n\nl2:\nbegin\n    lmem32[r12 + 8] = lmem32[r12 + 8] - lmem32[r11 + 8];\n    goto ctl;\nend\n\nctl:\nbegin\n    r13 = r13 - 1;\n    if (r13 == 1) { exit(forward); }\n    goto l0;\nend\n")
	f.Add("program negtail;\n\ns:\nbegin\n    r15 = 1;\n    goto rd;\nend\n\nrd:\nbegin\n    r16 = r15 * 64 - 138;\n    goto rd2;\nend\n\nrd2:\nbegin\n    tail_read(r16, 64, 320);\n    goto wr;\nend\n\nwr:\nbegin\n    tail_write(r16, 64, 320);\n    exit(forward);\nend\n")
	for _, p := range fusedMoveSources {
		f.Add(p.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		c, err := Compile(prog)
		if err != nil {
			// Statically rejected; the interpreter is allowed to run such
			// programs (it predates the verifier) but we only fuzz the
			// verified contract.
			return
		}
		entry := prog.Instrs[0].Label
		const budget = 4096
		ei, ec := stallEnv{newMemEnv()}, stallEnv{newMemEnv()}
		ei.tail, ec.tail = make([]byte, 512), make([]byte, 512)
		ti, tc := NewThread(ei, 0), NewThread(ec, 0)
		vi, erri := RunLimited(prog, ti, entry, budget)
		vc, errc := RunCompiledLimited(c, tc, entry, budget)
		if vi != vc {
			t.Fatalf("verdict: interpreter %v, compiled %v", vi, vc)
		}
		if (erri == nil) != (errc == nil) {
			t.Fatalf("error: interpreter %v, compiled %v", erri, errc)
		}
		if ti.Stats != tc.Stats {
			t.Fatalf("stats: interpreter %+v, compiled %+v", ti.Stats, tc.Stats)
		}
		if ti.Now != tc.Now {
			t.Fatalf("clock: interpreter %v, compiled %v", ti.Now, tc.Now)
		}
		if ti.Regs != tc.Regs {
			t.Fatalf("registers diverge")
		}
		if ti.LMem != tc.LMem {
			t.Fatalf("LMEM diverges")
		}
		if !reflect.DeepEqual(ei, ec) {
			t.Fatalf("environment diverges")
		}
	})
}
