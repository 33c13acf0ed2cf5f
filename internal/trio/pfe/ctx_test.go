package pfe

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/smem"
)

// runApp drives one packet through a PFE with the given app body and
// returns the PFE for inspection.
func runApp(t *testing.T, frame []byte, body func(ctx *Ctx)) *PFE {
	t.Helper()
	eng := sim.NewEngine()
	p := New(eng, Config{})
	p.SetApp(AppFunc(body))
	p.Inject(0, 1, frame)
	eng.Run()
	return p
}

func TestCtxMemReadWriteRoundTrip(t *testing.T) {
	var got []byte
	var stalled sim.Time
	p := runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		addr := ctx.pfe.Mem.Alloc(smem.TierDRAM, 64)
		ctx.MemWrite(addr, bytes.Repeat([]byte{7}, 16), false)
		got = make([]byte, 16)
		ctx.MemReadInto(addr, got)
		stalled = ctx.Stats().SyncStall
		ctx.Consume()
	})
	_ = p
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 16)) {
		t.Fatalf("got % x", got)
	}
	// Two synchronous DRAM round trips stall the thread.
	if stalled < 700*sim.Nanosecond {
		t.Fatalf("sync stall = %v, want ≈2x 400 ns", stalled)
	}
}

func TestCtxAsyncWriteDoesNotStall(t *testing.T) {
	var stalled sim.Time
	runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		addr := ctx.pfe.Mem.Alloc(smem.TierDRAM, 64)
		ctx.MemWrite(addr, make([]byte, 64), true)
		stalled = ctx.Stats().SyncStall
		ctx.Drop()
	})
	if stalled != 0 {
		t.Fatalf("async write stalled %v", stalled)
	}
}

func TestCtxVectorOpsAndCounter(t *testing.T) {
	vals := make([]byte, 16)
	var pkts, byteCnt uint64
	runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		buf := ctx.pfe.Mem.Alloc(smem.TierDRAM, 64)
		cnt := ctx.pfe.Mem.Alloc(smem.TierSRAM, 16)
		ctx.AddVector32BE([]sim.Time{ctx.Now()}, buf, []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4})
		ctx.AddVector32BE([]sim.Time{ctx.Now()}, buf, []byte{0, 0, 0, 10, 0, 0, 0, 20, 0, 0, 0, 30, 0, 0, 0, 40})
		ctx.ReadVector32BE(buf, vals)
		ctx.CounterInc(cnt, 500)
		pkts, byteCnt = ctx.pfe.Mem.Counter(cnt)
		ctx.Consume()
	})
	if want := []byte{0, 0, 0, 11, 0, 0, 0, 22, 0, 0, 0, 33, 0, 0, 0, 44}; !bytes.Equal(vals, want) {
		t.Fatalf("vals = %v", vals)
	}
	if pkts != 1 || byteCnt != 500 {
		t.Fatalf("counter = (%d,%d)", pkts, byteCnt)
	}
}

func TestCtxHashOps(t *testing.T) {
	var beforeInsert, afterInsert, afterDelete bool
	var val uint64
	runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		_, beforeInsert = ctx.HashLookup(42)
		ctx.HashInsert(42, 777)
		val, afterInsert = ctx.HashLookup(42)
		ctx.HashDelete(42)
		_, afterDelete = ctx.HashLookup(42)
		ctx.Consume()
	})
	if beforeInsert || !afterInsert || afterDelete || val != 777 {
		t.Fatalf("hash sequence = %v %v %v val=%d", beforeInsert, afterInsert, afterDelete, val)
	}
}

func TestCtxHeadRewriteAndFullFrame(t *testing.T) {
	var full []byte
	var frameLen int
	runApp(t, frameOfSize(300, 0x22), func(ctx *Ctx) {
		ctx.Head()[0] = 0xEE
		full = ctx.FullFrame()
		frameLen = ctx.FrameLen()
		ctx.Consume()
	})
	if frameLen != 300 || len(full) != 300 {
		t.Fatalf("lengths = %d/%d", frameLen, len(full))
	}
	if full[0] != 0xEE || full[200] != 0x22 {
		t.Fatalf("full frame = %x...%x", full[0], full[200])
	}
}

func TestCtxPacketAccessor(t *testing.T) {
	var flow uint64
	var isTimer bool
	eng := sim.NewEngine()
	p := New(eng, Config{})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		flow = ctx.Packet().Flow
		ctx.Drop()
	}))
	p.StartTimerThreads(1, sim.Millisecond, func(ctx *Ctx, _ int) {
		isTimer = ctx.Packet() == nil
	})
	p.Inject(0, 77, frameOfSize(64, 0))
	eng.RunUntil(2 * sim.Millisecond)
	if flow != 77 {
		t.Fatalf("flow = %d", flow)
	}
	if !isTimer {
		t.Fatal("timer thread saw a packet")
	}
}

func TestCtxEmitInvalidPortPanics(t *testing.T) {
	// Emit, and Multicast with a bad port anywhere in its list, panic inside
	// the thread naming the port, and queue nothing: the valid ports ahead
	// of the bad one send no copy.
	for _, tc := range []struct {
		name string
		emit func(ctx *Ctx)
		port string
	}{
		{"emit", func(ctx *Ctx) { ctx.Emit(5, []byte{1}) }, "port 5"},
		{"multicast", func(ctx *Ctx) { ctx.Multicast([]int{0, 1, 7, 1}, []byte{1}) }, "port 7"},
		{"multicast negative", func(ctx *Ctx) { ctx.Multicast([]int{-1}, []byte{1}) }, "port -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := New(eng, Config{NumPorts: 2})
			var out []delivered
			p.SetOutput(collector(&out))
			var msg string
			p.SetApp(AppFunc(func(ctx *Ctx) {
				defer func() {
					msg = fmt.Sprint(recover())
					ctx.Drop()
				}()
				tc.emit(ctx)
			}))
			p.Inject(0, 1, frameOfSize(64, 0))
			eng.Run()
			if !strings.Contains(msg, "invalid port") || !strings.HasSuffix(msg, tc.port) {
				t.Fatalf("panic %q, want one naming invalid %s", msg, tc.port)
			}
			if len(out) != 0 || p.Stats().Emitted != 0 {
				t.Fatalf("a rejected emit sent %d copies (%d counted)", len(out), p.Stats().Emitted)
			}
		})
	}
}

func TestCtxHashClearRefUndoesLookupReference(t *testing.T) {
	var cleared, missing bool
	p := runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		ctx.HashInsert(42, 7) // a new record starts referenced
		cleared = ctx.HashClearRef(42)
		missing = ctx.HashClearRef(43)
		ctx.Consume()
	})
	if !cleared || missing {
		t.Fatalf("ClearRef = %v on a record, %v on a missing key", cleared, missing)
	}
	if ref, ok := p.Hash.Ref(42); !ok || ref {
		t.Fatalf("REF = %v (present %v), want cleared", ref, ok)
	}
}

func TestCtxMemReadIntoMatchesMemoryRead(t *testing.T) {
	// The same write-then-read thread, once through Ctx.MemReadInto and once
	// booking the read on the PFE's memory itself: same bytes, and the
	// thread's clock stops at the memory's completion after one more XTXN.
	run := func(viaCtx bool) (got []byte, done sim.Time, xtxns uint64) {
		runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
			addr := ctx.pfe.Mem.Alloc(smem.TierDRAM, 64)
			ctx.MemWrite(addr, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, true)
			got = make([]byte, 16)
			if viaCtx {
				ctx.MemReadInto(addr, got)
				done, xtxns = ctx.Now(), ctx.Stats().XTXNs
			} else {
				done = ctx.pfe.Mem.ReadInto(ctx.Now(), addr, got)
				xtxns = ctx.Stats().XTXNs + 1
			}
			ctx.Consume()
		})
		return got, done, xtxns
	}
	want, wantDone, wantX := run(false)
	got, done, x := run(true)
	if !bytes.Equal(got, want) || got[15] != 16 {
		t.Fatalf("MemReadInto = % x, memory read = % x", got, want)
	}
	if done != wantDone || x != wantX || x != 2 {
		t.Fatalf("MemReadInto ends at %v after %d XTXNs, the memory's read at %v after %d", done, x, wantDone, wantX)
	}
}

func TestCtxReadVector32BEFillsDstAndStalls(t *testing.T) {
	var stalled sim.Time
	dst := []byte{0xAA, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xBB}
	runApp(t, frameOfSize(64, 0), func(ctx *Ctx) {
		buf := ctx.pfe.Mem.Alloc(smem.TierDRAM, 64)
		ctx.AddVector32BE([]sim.Time{ctx.Now()}, buf, []byte{0, 0, 0, 5, 0, 0, 0, 6, 0xFF, 0xFF, 0xFF, 0xF9})
		ctx.ReadVector32BE(buf, dst[1:13])
		stalled = ctx.Stats().SyncStall
		ctx.Consume()
	})
	if want := []byte{0xAA, 0, 0, 0, 5, 0, 0, 0, 6, 0xFF, 0xFF, 0xFF, 0xF9, 0xBB}; !bytes.Equal(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
	if stalled < 400*sim.Nanosecond {
		t.Fatalf("sync stall = %v, want a DRAM round trip", stalled)
	}
}
