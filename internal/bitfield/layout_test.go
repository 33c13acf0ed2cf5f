package bitfield

import "testing"

// trioMLHeader mirrors Fig. 8 of the paper and doubles as a realistic layout
// fixture: 12 bytes with padding fields.
func trioMLHeader() *Layout {
	return NewLayout(
		Field{"job_id", 8},
		Field{"block_id", 32},
		Field{"age_op", 4},
		Field{"final", 1},
		Field{"degraded", 1},
		Field{"", 2},
		Field{"src_id", 8},
		Field{"src_cnt", 8},
		Field{"gen_id", 16},
		Field{"", 4},
		Field{"grad_cnt", 12},
	)
}

func TestLayoutSizeMatchesPaper(t *testing.T) {
	l := trioMLHeader()
	if l.Bytes() != 12 {
		t.Fatalf("trio_ml_hdr_t = %d bytes, paper says 12", l.Bytes())
	}
	if l.Bits() != 96 {
		t.Fatalf("bits = %d", l.Bits())
	}
}

func TestLayoutFieldRoundTrip(t *testing.T) {
	l := trioMLHeader()
	rec := l.New()
	l.Put(rec, "job_id", 7)
	l.Put(rec, "block_id", 0xDEADBEEF)
	l.Put(rec, "final", 1)
	l.Put(rec, "grad_cnt", 1024)
	l.Put(rec, "gen_id", 0x1234)
	if got := l.Get(rec, "job_id"); got != 7 {
		t.Fatalf("job_id = %d", got)
	}
	if got := l.Get(rec, "block_id"); got != 0xDEADBEEF {
		t.Fatalf("block_id = %#x", got)
	}
	if got := l.Get(rec, "final"); got != 1 {
		t.Fatalf("final = %d", got)
	}
	if got := l.Get(rec, "degraded"); got != 0 {
		t.Fatalf("degraded = %d, want untouched 0", got)
	}
	if got := l.Get(rec, "grad_cnt"); got != 1024 {
		t.Fatalf("grad_cnt = %d", got)
	}
	if got := l.Get(rec, "gen_id"); got != 0x1234 {
		t.Fatalf("gen_id = %#x", got)
	}
}

func TestLayoutFieldsDoNotOverlap(t *testing.T) {
	l := trioMLHeader()
	rec := l.New()
	// Set every named field to all-ones, then verify each reads back full.
	names := []string{"job_id", "block_id", "age_op", "final", "degraded", "src_id", "src_cnt", "gen_id", "grad_cnt"}
	for _, n := range names {
		l.Put(rec, n, ^uint64(0))
	}
	for _, n := range names {
		want := uint64(1)<<l.Width(n) - 1
		if got := l.Get(rec, n); got != want {
			t.Fatalf("%s = %#x, want %#x", n, got, want)
		}
	}
	// Clearing one field must not affect the others.
	l.Put(rec, "block_id", 0)
	for _, n := range names {
		if n == "block_id" {
			continue
		}
		want := uint64(1)<<l.Width(n) - 1
		if got := l.Get(rec, n); got != want {
			t.Fatalf("after clearing block_id, %s = %#x, want %#x", n, got, want)
		}
	}
}

func TestLayoutOffsets(t *testing.T) {
	l := trioMLHeader()
	if l.Offset("job_id") != 0 {
		t.Fatal("job_id offset")
	}
	if l.Offset("block_id") != 8 {
		t.Fatal("block_id offset")
	}
	if l.Offset("src_id") != 48 {
		t.Fatalf("src_id offset = %d, want 48", l.Offset("src_id"))
	}
	if l.Offset("grad_cnt") != 84 {
		t.Fatalf("grad_cnt offset = %d, want 84", l.Offset("grad_cnt"))
	}
}

func TestLayoutDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLayout(Field{"x", 4}, Field{"x", 4})
}

func TestLayoutUnknownFieldPanics(t *testing.T) {
	l := NewLayout(Field{"a", 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Get(l.New(), "nope")
}

func TestLayoutPaddingIsAnonymous(t *testing.T) {
	l := NewLayout(Field{"a", 4}, Field{"", 4}, Field{"", 8}, Field{"b", 8})
	if l.Bytes() != 3 {
		t.Fatalf("bytes = %d", l.Bytes())
	}
	if l.Offset("b") != 16 {
		t.Fatalf("b offset = %d", l.Offset("b"))
	}
}

// Job and block records from Appendix A.1 must compile to the sizes the
// paper states (58 bytes each).
func TestAppendixRecordSizes(t *testing.T) {
	job := NewLayout(
		Field{"block_curr_cnt", 16}, Field{"block_cnt_max", 12}, Field{"block_grad_max", 12},
		Field{"block_exp", 8}, Field{"block_total_cnt", 32}, Field{"out_src_addr", 32},
		Field{"out_dst_addr", 32}, Field{"out_nh_addr", 32}, Field{"", 24}, Field{"src_cnt", 8},
		Field{"src_mask_0", 64}, Field{"src_mask_1", 64}, Field{"src_mask_2", 64}, Field{"src_mask_3", 64},
	)
	if job.Bytes() != 58 {
		t.Fatalf("trio_ml_job_ctx_t = %d bytes, paper says 58", job.Bytes())
	}
	block := NewLayout(
		Field{"block_exp", 8}, Field{"block_age", 8}, Field{"block_start_time", 64},
		Field{"job_ctx_paddr", 32}, Field{"aggr_paddr", 32}, Field{"", 20}, Field{"grad_cnt", 12},
		Field{"", 24}, Field{"rcvd_cnt", 8},
		Field{"rcvd_mask_0", 64}, Field{"rcvd_mask_1", 64}, Field{"rcvd_mask_2", 64}, Field{"rcvd_mask_3", 64},
	)
	if block.Bytes() != 58 {
		t.Fatalf("trio_ml_block_ctx_t = %d bytes, paper says 58", block.Bytes())
	}
}

func TestHandleMatchesNamedAccess(t *testing.T) {
	l := trioMLHeader()
	b := l.New()
	for i, name := range []string{"job_id", "block_id", "age_op", "degraded", "src_id", "gen_id", "grad_cnt"} {
		v := uint64(0x9E3779B97F4A7C15) >> (i * 3) & (1<<l.Width(name) - 1)
		l.Put(b, name, v)
		if got := l.Handle(name).Get(b); got != v || got != l.Get(b, name) {
			t.Fatalf("%s: handle reads %#x, named read %#x, wrote %#x", name, got, l.Get(b, name), v)
		}
	}
}
