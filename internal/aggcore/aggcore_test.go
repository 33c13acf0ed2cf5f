package aggcore

import (
	"testing"
)

func TestOlderWraps(t *testing.T) {
	for _, tc := range []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{7, 7, false},
		{0xFFFF, 0, true}, // 0 follows 0xFFFF
		{0, 0xFFFF, false},
		{0x8000, 1, false}, // just under half the ring ahead of 1
		{1, 0x8000, true},
	} {
		if got := Older(tc.a, tc.b); got != tc.want {
			t.Errorf("Older(%#x, %#x) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMask(t *testing.T) {
	var m Mask
	for _, s := range []uint8{0, 63, 64, 200, 255} {
		m.Set(s)
	}
	for s := 0; s < 256; s++ {
		want := s == 0 || s == 63 || s == 64 || s == 200 || s == 255
		if m.Has(uint8(s)) != want {
			t.Fatalf("Has(%d) = %v, want %v", s, !want, want)
		}
	}
	m.Clear(64)
	if m.Has(64) || !m.Has(63) || m != (Mask{1 | 1<<63, 0, 0, 1<<8 | 1<<63}) {
		t.Fatalf("after Clear(64): %#x", m)
	}
}

// TestDecide pins each action and the order in which the cases are tried:
// validation first, then the served or open generation, then duplicate,
// restart and size.
func TestDecide(t *testing.T) {
	var members, rcvd Mask
	for _, s := range []uint8{0, 1, 2, 3} {
		members.Set(s)
	}
	rcvd.Set(0)
	job := NewJob(members, 64)
	open, cached := Record(5, 16, &rcvd), Cached(5)
	for _, tc := range []struct {
		name    string
		src     uint8
		gen     uint16
		gradCnt int
		b       Block
		want    Action
	}{
		{"foreign source", 7, 5, 16, open, Refuse},
		{"foreign source to a served block", 7, 5, 16, cached, Refuse},
		{"empty", 1, 5, 0, open, Refuse},
		{"oversized restart", 1, 6, 65, open, Refuse},
		{"oversized stale", 1, 4, 65, open, Refuse},
		{"first", 1, 5, 64, Block{}, Open},
		{"retransmit after serving", 0, 5, 3, cached, Replay},
		{"older than served", 0, 4, 16, cached, Stale},
		{"newer than served", 0, 6, 8, cached, Open},
		{"older than open", 0, 4, 16, open, Stale},
		{"older across the wrap", 1, 0xFFFF, 16, Record(1, 16, &Mask{}), Stale},
		{"newer than open", 0, 6, 8, open, Restart},
		{"duplicate", 0, 5, 16, open, Duplicate},
		{"duplicate of another size", 0, 5, 8, open, Duplicate},
		{"mismatch", 1, 5, 17, open, Refuse},
		{"add", 1, 5, 16, open, Add},
	} {
		if got := Decide(tc.src, tc.gen, tc.gradCnt, &job, &tc.b); got != tc.want {
			t.Errorf("%s: Decide = %d, want %d", tc.name, got, tc.want)
		}
	}
	job.Demote(1)
	if job.Member(1) || !job.Member(2) || Decide(1, 5, 16, &job, &open) != Refuse {
		t.Fatal("a demoted source is still admitted")
	}
}

func TestDecideAllocatesNothing(t *testing.T) {
	var members Mask
	members.Set(1)
	job := NewJob(members, 64)
	var rcvd Mask
	b := Record(5, 16, &rcvd)
	if n := testing.AllocsPerRun(1000, func() { _ = Decide(1, 5, 16, &job, &b) }); n != 0 {
		t.Fatalf("Decide allocated %.1f times per call", n)
	}
}
