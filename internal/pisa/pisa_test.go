package pisa

import (
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

func TestFixedPipelineLatency(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	var at sim.Time
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.Forward(1)
		return false
	}))
	sw.SetOutput(func(port int, frame []byte, a sim.Time) { at = a })
	sw.Inject(0, make([]byte, 125)) // 10 ns serialization at 100 Gbps
	eng.Run()
	// 600 ns pipeline + 10 ns egress serialization.
	if at != 610*sim.Nanosecond {
		t.Fatalf("egress at %v", at)
	}
}

func TestStageOrderEnforced(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.RegReadAdd(5, 0, 1)
		defer func() {
			if recover() == nil {
				t.Error("backwards stage access did not panic")
			}
		}()
		ctx.RegReadAdd(4, 0, 1) // backwards: must panic
		return false
	}))
	sw.Inject(0, make([]byte, 64))
	eng.Run()
}

func TestDoubleRegisterAccessEnforced(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.RegReadAdd(2, 7, 1)
		defer func() {
			if recover() == nil {
				t.Error("double access did not panic")
			}
		}()
		ctx.RegReadAdd(2, 7, 1)
		return false
	}))
	sw.Inject(0, make([]byte, 64))
	eng.Run()
}

func TestSameStageDifferentRegistersAllowed(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.RegReadAdd(2, 7, 1)
		ctx.RegReadAdd(2, 8, 1) // same stage, different register: fine
		return false
	}))
	sw.Inject(0, make([]byte, 64))
	eng.Run()
	if sw.ReadReg(0, 2, 7) != 1 || sw.ReadReg(0, 2, 8) != 1 {
		t.Fatal("registers not updated")
	}
}

func TestRegistersPersistAcrossPackets(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.RegReadAdd(0, 0, 1)
		return false
	}))
	for i := 0; i < 5; i++ {
		sw.Inject(0, make([]byte, 64))
	}
	eng.Run()
	if got := sw.ReadReg(0, 0, 0); got != 5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestPipelinesHaveSeparateRegisters(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.RegReadAdd(0, 0, 1)
		return false
	}))
	sw.Inject(0, make([]byte, 64))  // pipeline 0
	sw.Inject(63, make([]byte, 64)) // pipeline 3
	eng.Run()
	if sw.ReadReg(0, 0, 0) != 1 || sw.ReadReg(3, 0, 0) != 1 {
		t.Fatal("pipelines shared a register")
	}
	if sw.ReadReg(1, 0, 0) != 0 {
		t.Fatal("unused pipeline register dirtied")
	}
}

func TestPipelineOfPortStriping(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	if sw.PipelineOfPort(0) != 0 || sw.PipelineOfPort(15) != 0 {
		t.Fatal("ports 0-15 should map to pipeline 0")
	}
	if sw.PipelineOfPort(16) != 1 || sw.PipelineOfPort(63) != 3 {
		t.Fatal("port striping wrong")
	}
}

func TestRecirculationCostsTime(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	passes := 0
	var done sim.Time
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		passes++
		if passes < 3 {
			return true // two recirculations
		}
		ctx.Forward(0)
		return false
	}))
	sw.SetOutput(func(port int, frame []byte, a sim.Time) { done = a })
	sw.Inject(0, make([]byte, 64))
	eng.Run()
	if passes != 3 {
		t.Fatalf("passes = %d", passes)
	}
	if sw.Stats().Recirculations != 2 {
		t.Fatalf("recircs = %d", sw.Stats().Recirculations)
	}
	// 3 pipeline traversals + 2 recirculation penalties.
	min := 3*600*sim.Nanosecond + 2*700*sim.Nanosecond
	if done < min {
		t.Fatalf("done at %v, want >= %v", done, min)
	}
}

func TestRegAddWrap(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	var vals []int32
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		vals = append(vals, ctx.RegAddWrap(0, 0, 1, 3))
		return false
	}))
	for i := 0; i < 7; i++ {
		sw.Inject(0, make([]byte, 64))
	}
	eng.Run()
	want := []int32{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v", vals)
		}
	}
	if sw.ReadReg(0, 0, 0) != 1 {
		t.Fatalf("register = %d after wrap sequence", sw.ReadReg(0, 0, 0))
	}
}

func TestEmitMulticast(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	ports := map[int]int{}
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ctx.Multicast([]int{0, 1, 2, 3}, make([]byte, 100))
		return false
	}))
	sw.SetOutput(func(port int, frame []byte, a sim.Time) { ports[port]++ })
	sw.Inject(0, make([]byte, 64))
	eng.Run()
	if len(ports) != 4 {
		t.Fatalf("multicast reached %d ports", len(ports))
	}
	if sw.Stats().Emitted != 4 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
}

func TestDropCounted(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	sw.SetApp(AppFunc(func(ctx *Ctx) bool { return false }))
	sw.Inject(0, make([]byte, 64))
	eng.Run()
	if sw.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", sw.Stats())
	}
}

func TestRegSwapReturnsPreviousValue(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	var olds []int32
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		olds = append(olds, ctx.RegSwap(2, 1, int32(10*(len(olds)+1))))
		return false
	}))
	for i := 0; i < 3; i++ {
		sw.Inject(0, make([]byte, 64))
	}
	eng.Run()
	if want := []int32{0, 10, 20}; !slices.Equal(olds, want) {
		t.Fatalf("swapped out %v, want %v", olds, want)
	}
	if got := sw.ReadReg(0, 2, 1); got != 30 {
		t.Fatalf("register = %d, want the last value swapped in", got)
	}
}

func TestCtxPacketIsTheFrameInFlight(t *testing.T) {
	eng := sim.NewEngine()
	sw := New(eng, Config{})
	var ports []int
	var lens []int
	sw.SetApp(AppFunc(func(ctx *Ctx) bool {
		ports = append(ports, ctx.Packet().Port)
		lens = append(lens, len(ctx.Packet().Frame))
		return false
	}))
	sw.Inject(3, make([]byte, 64))
	sw.Inject(5, make([]byte, 100))
	eng.Run()
	if len(ports) != 2 || ports[0] != 3 || ports[1] != 5 || lens[0] != 64 || lens[1] != 100 {
		t.Fatalf("ports %v, lengths %v", ports, lens)
	}
}
