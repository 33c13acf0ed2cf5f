package infnet

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// Test frame layout: features live at offsets 20+, the mark byte at the
// default 15, and a frame index at 56 for order-independent matching.
const (
	featBase = 20
	idxOff   = 56
	frameLen = 64
)

// tinyModel is a D=2, H=2 model small enough to sweep its entire input
// space (all 65536 feature combinations).
func tinyModel() Config {
	return Config{
		Features: []int{featBase, featBase + 1},
		Hidden:   [][]int8{{3, -2}, {-1, 4}},
		Bias1:    []int32{10, -5},
		Shift:    2,
		Out:      [2][]int8{{2, -1}, {-1, 3}},
		Bias2:    [2]int32{50, -20},
	}
}

// wideModel exercises the maximum register budget: 8 features, 8 neurons.
func wideModel() Config {
	feats := make([]int, 8)
	hidden := make([][]int8, 8)
	bias1 := make([]int32, 8)
	var outB, outA []int8
	for j := 0; j < 8; j++ {
		feats[j] = featBase + j
		row := make([]int8, 8)
		for i := range row {
			row[i] = int8((j*7+i*13)%21 - 10)
		}
		hidden[j] = row
		bias1[j] = int32(j*11 - 30)
		outB = append(outB, int8(j%5-2))
		outA = append(outA, int8((j*3)%7-3))
	}
	return Config{
		Features: feats, Hidden: hidden, Bias1: bias1, Shift: 6,
		Out: [2][]int8{outB, outA}, Bias2: [2]int32{17, -9},
	}
}

func frame(idx uint32, feats []byte) []byte {
	f := make([]byte, frameLen)
	copy(f[featBase:], feats)
	binary.BigEndian.PutUint32(f[idxOff:], idx)
	return f
}

type infRig struct {
	eng *sim.Engine
	p   *pfe.PFE
	svc *Service
	out [][]byte
}

func newInfRig(t *testing.T, cfg Config) *infRig {
	t.Helper()
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.DefaultConfig())
	svc, err := Install(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &infRig{eng: eng, p: p, svc: svc}
	p.SetOutput(func(port int, fr []byte, at sim.Time) {
		if port != EgressPort {
			t.Errorf("frame delivered on port %d, want %d", port, EgressPort)
		}
		r.out = append(r.out, append([]byte(nil), fr...))
	})
	return r
}

func (r *infRig) checkErrors(t *testing.T) {
	t.Helper()
	if r.svc.App.Errors != 0 {
		t.Fatalf("microcode errors: %d (%v)", r.svc.App.Errors, r.svc.App.LastError)
	}
}

// TestBitIdenticalExhaustive sweeps the tiny model's FULL input space —
// every (x0, x1) in 256×256 — through the compiled program and asserts the
// delivered mark on every single frame matches the Go reference model.
func TestBitIdenticalExhaustive(t *testing.T) {
	cfg := tinyModel()
	r := newInfRig(t, cfg)
	want := make(map[uint32]bool, 65536) // idx → attack
	var attacks uint64
	idx := uint32(0)
	for x0 := 0; x0 < 256; x0++ {
		for x1 := 0; x1 < 256; x1++ {
			f := frame(idx, []byte{byte(x0), byte(x1)})
			dec := cfg.Classify(f)
			want[idx] = dec.Attack
			if dec.Attack {
				attacks++
			}
			r.p.Inject(int(idx)%r.p.Cfg.NumPorts, uint64(idx), f)
			idx++
		}
	}
	r.eng.Run()
	r.checkErrors(t)
	if len(r.out) != 65536 {
		t.Fatalf("delivered %d frames, want 65536 (ModeFlag forwards everything)", len(r.out))
	}
	for _, fr := range r.out {
		i := binary.BigEndian.Uint32(fr[idxOff:])
		marked := fr[15] == 0xE0
		if marked != want[i] {
			t.Fatalf("frame %d: marked=%v, reference says attack=%v", i, marked, want[i])
		}
	}
	st := r.svc.Stats()
	if st.Attack != attacks || st.Benign != 65536-attacks {
		t.Fatalf("counters %+v, reference says %d attacks", st, attacks)
	}
	if attacks == 0 || attacks == 65536 {
		t.Fatalf("degenerate model: %d/65536 attacks", attacks)
	}
}

// TestBitIdenticalWideModel drives the 8×8 model with seeded random
// frames, again requiring exact agreement with the reference.
func TestBitIdenticalWideModel(t *testing.T) {
	cfg := wideModel()
	r := newInfRig(t, cfg)
	rng := rand.New(rand.NewSource(1))
	want := make(map[uint32]bool)
	for i := uint32(0); i < 4096; i++ {
		feats := make([]byte, 8)
		rng.Read(feats)
		f := frame(i, feats)
		want[i] = cfg.Classify(f).Attack
		r.p.Inject(int(i)%r.p.Cfg.NumPorts, uint64(i), f)
	}
	r.eng.Run()
	r.checkErrors(t)
	if len(r.out) != 4096 {
		t.Fatalf("delivered %d frames", len(r.out))
	}
	for _, fr := range r.out {
		i := binary.BigEndian.Uint32(fr[idxOff:])
		if marked := fr[15] == 0xE0; marked != want[i] {
			t.Fatalf("frame %d: marked=%v, want %v", i, marked, want[i])
		}
	}
}

// TestShedModeDrops: in ModeShed attack packets die in the PFE — only the
// reference-benign set is delivered.
func TestShedModeDrops(t *testing.T) {
	cfg := tinyModel()
	cfg.Mode = ModeShed
	r := newInfRig(t, cfg)
	delivered := map[uint32]bool{}
	var benign int
	for i := uint32(0); i < 2048; i++ {
		f := frame(i, []byte{byte(i), byte(i >> 8 * 3)})
		if !cfg.Classify(f).Attack {
			benign++
			delivered[i] = true
		}
		r.p.Inject(int(i)%r.p.Cfg.NumPorts, uint64(i), f)
	}
	r.eng.Run()
	r.checkErrors(t)
	if len(r.out) != benign {
		t.Fatalf("delivered %d frames, reference says %d benign", len(r.out), benign)
	}
	for _, fr := range r.out {
		i := binary.BigEndian.Uint32(fr[idxOff:])
		if !delivered[i] {
			t.Fatalf("attack frame %d leaked through shed mode", i)
		}
	}
	st := r.svc.Stats()
	if int(st.Benign) != benign || int(st.Attack) != 2048-benign {
		t.Fatalf("counters %+v, want %d benign", st, benign)
	}
}

// TestAdversarialBoundaryInputs is the fault-injection scenario: probe the
// decision boundary by perturbing each feature of near-boundary inputs by
// ±1 — the single-bit flips an evader would use — and require that the
// data path tracks the reference exactly on every probe, so an adversary
// cannot find an input where the hardware disagrees with the model.
func TestAdversarialBoundaryInputs(t *testing.T) {
	cfg := tinyModel()
	// Find boundary points: inputs whose decision flips on a ±1 nudge.
	var probes [][]byte
	for x0 := 0; x0 < 256; x0++ {
		for x1 := 0; x1 < 256; x1++ {
			base := cfg.Classify(frame(0, []byte{byte(x0), byte(x1)})).Attack
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx0, nx1 := x0+d[0], x1+d[1]
				if nx0 < 0 || nx0 > 255 || nx1 < 0 || nx1 > 255 {
					continue
				}
				if cfg.Classify(frame(0, []byte{byte(nx0), byte(nx1)})).Attack != base {
					probes = append(probes, []byte{byte(x0), byte(x1)}, []byte{byte(nx0), byte(nx1)})
				}
			}
		}
	}
	if len(probes) < 16 {
		t.Fatalf("only %d boundary probes — model has no usable boundary", len(probes))
	}
	if len(probes) > 4096 {
		probes = probes[:4096]
	}
	r := newInfRig(t, cfg)
	want := make(map[uint32]bool, len(probes))
	for i, feats := range probes {
		f := frame(uint32(i), feats)
		want[uint32(i)] = cfg.Classify(f).Attack
		r.p.Inject(i%r.p.Cfg.NumPorts, uint64(i), f)
	}
	r.eng.Run()
	r.checkErrors(t)
	if len(r.out) != len(probes) {
		t.Fatalf("delivered %d, want %d", len(r.out), len(probes))
	}
	for _, fr := range r.out {
		i := binary.BigEndian.Uint32(fr[idxOff:])
		if marked := fr[15] == 0xE0; marked != want[i] {
			t.Fatalf("adversarial probe %d: hardware %v, reference %v", i, marked, want[i])
		}
	}
}

// TestCompiledMatchesInterpreter: identical outputs, stats, and clocks
// between the compiled dispatcher and the reference interpreter.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cfg := wideModel()
	drive := func(r *infRig) {
		rng := rand.New(rand.NewSource(7))
		for i := uint32(0); i < 1024; i++ {
			feats := make([]byte, 8)
			rng.Read(feats)
			r.p.Inject(int(i)%r.p.Cfg.NumPorts, uint64(i), frame(i, feats))
		}
		r.eng.Run()
	}
	rc := newInfRig(t, cfg)
	ri := newInfRig(t, cfg)
	ri.p.SetApp(pfe.Interpreted(ri.svc.App))
	drive(rc)
	drive(ri)
	rc.checkErrors(t)
	ri.checkErrors(t)
	if !reflect.DeepEqual(rc.out, ri.out) {
		t.Fatal("delivered frames diverge between compiled and interpreter")
	}
	if rc.svc.Stats() != ri.svc.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", rc.svc.Stats(), ri.svc.Stats())
	}
	if rc.p.Stats() != ri.p.Stats() {
		t.Fatalf("PFE stats diverge: %+v vs %+v", rc.p.Stats(), ri.p.Stats())
	}
	if rc.eng.Now() != ri.eng.Now() {
		t.Fatalf("clocks diverge: %v vs %v", rc.eng.Now(), ri.eng.Now())
	}
}

// shapeModel is a D-feature, H-neuron model whose verdict turns on feature
// 0 alone when the others read zero: every neuron is relu(x0), and the
// attack score H*x0 beats the benign score 128*H iff x0 > 128. The other
// features carry negative weights, so the program has subtract-accumulates.
func shapeModel(d, h int) Config {
	cfg := Config{Features: make([]int, d), Hidden: make([][]int8, h), Bias1: make([]int32, h),
		Out: [2][]int8{make([]int8, h), make([]int8, h)}, Bias2: [2]int32{int32(128 * h), 0}}
	for i := range cfg.Features {
		cfg.Features[i] = featBase + i
	}
	for j := range cfg.Hidden {
		cfg.Hidden[j] = make([]int8, d)
		cfg.Hidden[j][0] = 1
		for i := 1; i < d; i++ {
			cfg.Hidden[j][i] = int8(-i - j)
		}
		cfg.Out[1][j] = 1
	}
	return cfg
}

// TestCostModelMatchesMeasured holds the cost run to a full one-PFE rig on
// all nine shapes of the model-shape DSE (D, H in {2, 4, 8}), on a benign
// and an attack packet each: every packet's Thread.Stats — instructions and
// XTXNs — equals the cost run's, and Cost reports it and the rig's program
// length.
func TestCostModelMatchesMeasured(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		for _, h := range []int{2, 4, 8} {
			cfg := shapeModel(d, h)
			want, static, err := cfg.packetStats()
			if err != nil {
				t.Fatal(err)
			}
			cost, err := cfg.Cost()
			if err != nil {
				t.Fatal(err)
			}
			r := newInfRig(t, cfg)
			if got := r.svc.Program.Len(); got != static || cost.StaticInstructions != static {
				t.Fatalf("%dx%d: static: rig %d, cost run %d, Cost %d", d, h, got, static, cost.StaticInstructions)
			}
			if cost.InstrPerPacket != int(want.Instructions) || cost.InstrPerMAC != float64(want.Instructions)/float64(d*h+2*h) {
				t.Errorf("%dx%d: Cost %+v, cost run %d instrs", d, h, cost, want.Instructions)
			}
			var last microcode.Stats
			r.svc.App.Finish = func(th *microcode.Thread, ctx *pfe.Ctx, v microcode.Verdict) {
				last = th.Stats
			}
			for _, x0 := range []byte{0, 255} {
				f := frame(uint32(x0), []byte{x0})
				if attack := cfg.Classify(f).Attack; attack != (x0 > 128) {
					t.Fatalf("%dx%d: x0 = %d classified attack=%v", d, h, x0, attack)
				}
				r.p.Inject(0, uint64(x0), f)
				r.eng.Run()
				if last.Instructions != want.Instructions || last.XTXNs != want.XTXNs {
					t.Errorf("%dx%d x0=%d: rig %d instrs %d XTXNs, cost run %d instrs %d XTXNs",
						d, h, x0, last.Instructions, last.XTXNs, want.Instructions, want.XTXNs)
				}
			}
			if st := r.svc.Stats(); st.Benign != 1 || st.Attack != 1 {
				t.Errorf("%dx%d: verdicts %+v, want one of each", d, h, st)
			}
			r.checkErrors(t)
		}
	}
	if _, err := (Config{}).Cost(); err == nil {
		t.Error("invalid config: Cost returned no error")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.DefaultConfig())
	bad := []Config{{}}
	// Row-width mismatch.
	c := tinyModel()
	c.Hidden[0] = []int8{1}
	bad = append(bad, c)
	// Too many neurons.
	w := wideModel()
	w.Hidden = append(w.Hidden, w.Hidden[0])
	w.Bias1 = append(w.Bias1, 0)
	bad = append(bad, w)
	// Feature offsets out of range: past local memory, and inside it but
	// past the head, which dispatch never loads.
	c2 := tinyModel()
	c2.Features[0] = 5000
	c3 := tinyModel()
	c3.Features[1] = pfe.HeadBytes
	bad = append(bad, c2, c3)
	for i, cfg := range bad {
		if _, err := Install(p, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if _, err := cfg.Cost(); err == nil {
			t.Errorf("config %d priced: %+v", i, cfg)
		}
	}
}

// TestStatsTotalCountsEveryClassifiedFrame: Total is benign plus attack, one
// per frame the program classified.
func TestStatsTotalCountsEveryClassifiedFrame(t *testing.T) {
	r := newInfRig(t, tinyModel())
	for i := uint32(0); i < 40; i++ {
		r.p.Inject(0, uint64(i), frame(i, []byte{byte(7 * i), byte(200 - 5*i)}))
	}
	r.eng.Run()
	r.checkErrors(t)
	st := r.svc.Stats()
	if st.Benign == 0 || st.Attack == 0 {
		t.Fatalf("stats %+v: the inputs must hit both classes", st)
	}
	if st.Total() != 40 || len(r.out) != 40 {
		t.Fatalf("stats %+v total %d over %d delivered frames, want 40", st, st.Total(), len(r.out))
	}
}

func TestRegisterObsReadsTheClassCounters(t *testing.T) {
	r := newInfRig(t, tinyModel())
	reg := obs.NewRegistry()
	r.svc.RegisterObs(reg)
	for i := uint32(0); i < 40; i++ {
		r.p.Inject(0, uint64(i), frame(i, []byte{byte(7 * i), byte(200 - 5*i)}))
	}
	r.eng.Run()
	st, snap := r.svc.Stats(), reg.Snapshot()
	if snap["triogo_apps_infnet_benign_total"] != float64(st.Benign) || snap["triogo_apps_infnet_attack_total"] != float64(st.Attack) {
		t.Fatalf("series %v, stats %+v", snap, st)
	}
	r.svc.RegisterObs(nil) // a nil registry is a no-op
}
