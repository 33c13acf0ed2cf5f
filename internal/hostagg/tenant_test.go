package hostagg

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// blackhole is a return address with no listener: whatever a real server
// sends there vanishes instead of echoing back into its own receive loop.
func blackhole() *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
}

func TestLadderNext(t *testing.T) {
	// cap=100: pHi=70, pLo=55, oHi=90, oLo=75.
	cases := []struct {
		cur  int32
		open int64
		want int32
	}{
		{stateNormal, 69, stateNormal},
		{stateNormal, 70, statePressure},
		{stateNormal, 90, stateOverload},
		{statePressure, 55, statePressure}, // hysteresis: no descent until < pLo
		{statePressure, 54, stateNormal},
		{statePressure, 89, statePressure},
		{statePressure, 90, stateOverload},
		{stateOverload, 75, stateOverload}, // hysteresis: no descent until < oLo
		{stateOverload, 74, statePressure},
		{stateOverload, 54, stateNormal},
	}
	for _, c := range cases {
		if got := ladderNext(c.cur, c.open, 100); got != c.want {
			t.Errorf("ladderNext(%s, %d) = %s, want %s",
				overloadStateName(c.cur), c.open, overloadStateName(got), overloadStateName(c.want))
		}
	}
	// Tiny caps must not degenerate: with cap=2, one open block is below
	// every climb watermark (ceil math), so the first block never trips
	// pressure.
	if got := ladderNext(stateNormal, 1, 2); got != stateNormal {
		t.Errorf("ladderNext(normal, 1/2) = %s, want normal", overloadStateName(got))
	}
	if got := ladderNext(stateNormal, 2, 2); got != stateOverload {
		t.Errorf("ladderNext(normal, 2/2) = %s, want overload", overloadStateName(got))
	}
}

func TestTokenBucketRateShed(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:   1,
		TenantQuotas: map[uint8]TenantQuota{1: {PacketsPerSec: 10, PacketBurst: 2}},
	})
	from := blackhole()
	// Ten packets in one instant: the two burst tokens pass, eight are shed.
	for b := uint32(0); b < 10; b++ {
		s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	if st := s.Stats(); st.RateShed != 8 {
		t.Fatalf("rate shed = %d, want 8 (stats %+v)", st.RateShed, st)
	}
	// 250 ms at 10 pps refills to the 2-token cap, not 2.5: of three more
	// packets two pass.
	for b := uint32(10); b < 13; b++ {
		s.Handle(t0.Add(250*time.Millisecond), buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	st := s.Stats()
	if st.RateShed != 9 || s.Pending() != 0 || st.Completed != 4 {
		t.Fatalf("stats = %+v, want 9 shed and the 4 admitted single-worker blocks completed", st)
	}
	ts := s.TenantStats()
	if len(ts) != 1 || ts[0].Tenant != 1 || ts[0].RateShed != st.RateShed {
		t.Fatalf("tenant stats = %+v, want the shed attributed to tenant 1", ts)
	}
	if ts[0].Packets != 13 {
		t.Fatalf("tenant packets = %d, want 13", ts[0].Packets)
	}
}

func TestTenantOpenBlockQuota(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:   2,
		TenantQuotas: map[uint8]TenantQuota{1: {MaxOpenBlocks: 2}},
	})
	from := blackhole()
	for b := uint32(0); b < 5; b++ {
		s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	st := s.Stats()
	if st.QuotaShed != 3 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 3 quota-shed and no global shed", st)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	ts := s.TenantStats()
	if ts[0].Shed != 3 || ts[0].OpenBlocks != 2 {
		t.Fatalf("tenant stats = %+v", ts[0])
	}
	// A second tenant with no quota is untouched by the first one's limit.
	s.Handle(t0, buildContribution(2, 0, 0, 1, []int32{1}), from, discard)
	if s.Pending() != 3 {
		t.Fatalf("pending = %d after second tenant, want 3", s.Pending())
	}
}

func TestTenantBytesInFlightQuota(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:   2,
		TenantQuotas: map[uint8]TenantQuota{1: {MaxBytesInFlight: 4 * 300}},
	})
	from := blackhole()
	grads := make([]int32, 256) // 1024 bytes per open block
	s.Handle(t0, buildContribution(1, 0, 0, 1, grads), from, discard)
	s.Handle(t0, buildContribution(1, 1, 0, 1, grads), from, discard)
	st := s.Stats()
	if st.QuotaShed != 1 || s.Pending() != 1 {
		t.Fatalf("stats = %+v pending = %d, want the second block shed on bytes", st, s.Pending())
	}
	if ts := s.TenantStats(); ts[0].BytesInFlight != 1024 {
		t.Fatalf("bytes in flight = %d, want 1024", ts[0].BytesInFlight)
	}
}

// TestRestartPassesTenantQuota: a generation restart is a close, then an
// open. The superseded record's bytes come back, and the new generation
// passes the admission any new block does: over its tenant's byte quota it
// is shed and charged nothing, and under it, it is charged its own size.
func TestRestartPassesTenantQuota(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:   2,
		TenantQuotas: map[uint8]TenantQuota{1: {MaxBytesInFlight: 1200}},
	})
	from := blackhole()
	s.Handle(t0, buildContribution(1, 0, 0, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(1, 0, 1, 2, make([]int32, packet.MaxGradientsPerPacket)), from, discard)
	st, ts := s.Stats(), s.TenantStats()
	if st.GenRestarts != 1 || st.QuotaShed != 1 || s.Pending() != 0 || ts[0].BytesInFlight != 0 || ts[0].Shed != 1 {
		t.Fatalf("stats = %+v, tenant %+v, pending %d: want the 4096-byte generation shed and nothing charged", st, ts[0], s.Pending())
	}
	s.Handle(t0, buildContribution(1, 0, 0, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(1, 0, 1, 2, make([]int32, 256)), from, discard)
	st, ts = s.Stats(), s.TenantStats()
	if st.GenRestarts != 2 || st.QuotaShed != 1 || s.Pending() != 1 || ts[0].BytesInFlight != 1024 || ts[0].OpenBlocks != 1 {
		t.Fatalf("stats = %+v, tenant %+v, pending %d: want the 1024-byte generation open and charged", st, ts[0], s.Pending())
	}
}

func TestJobsShareTenantQuota(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:   2,
		JobTenants:   map[uint8]uint8{1: 5, 2: 5},
		TenantQuotas: map[uint8]TenantQuota{5: {MaxOpenBlocks: 2}},
	})
	from := blackhole()
	s.Handle(t0, buildContribution(1, 0, 0, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(2, 0, 0, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(2, 1, 0, 1, []int32{1}), from, discard)
	st := s.Stats()
	if st.QuotaShed != 1 || s.Pending() != 2 {
		t.Fatalf("stats = %+v pending = %d, want jobs 1+2 to share tenant 5's 2-block quota", st, s.Pending())
	}
	ts := s.TenantStats()
	if len(ts) != 1 || ts[0].Tenant != 5 || ts[0].OpenBlocks != 2 {
		t.Fatalf("tenant stats = %+v, want a single tenant 5 holding both jobs' blocks", ts)
	}
}

func TestWeightedFairShedding(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:    2,
		MaxOpenBlocks: 4,
	})
	from := blackhole()
	// Aggressor (job 1) fills the whole server.
	for b := uint32(0); b < 4; b++ {
		s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	if got := s.Stats().OverloadState; got != "overload" {
		t.Fatalf("state = %s at cap, want overload", got)
	}
	// A victim under its fair share is admitted by displacing one aggressor
	// block rather than being refused.
	s.Handle(t0, buildContribution(2, 0, 0, 1, []int32{1}), from, discard)
	st := s.Stats()
	if st.FairEvictions != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want exactly one fair eviction and no shed", st)
	}
	ts := s.TenantStats()
	if ts[0].Tenant != 1 || ts[0].Evicted != 1 || ts[0].OpenBlocks != 3 {
		t.Fatalf("aggressor stats = %+v, want the displacement charged to tenant 1", ts[0])
	}
	if ts[1].Tenant != 2 || ts[1].OpenBlocks != 1 {
		t.Fatalf("victim stats = %+v, want the victim's block open", ts[1])
	}
	// The aggressor asking for yet another block is itself the tenant
	// furthest over fair share: refused, not admitted by displacement.
	s.Handle(t0, buildContribution(1, 100, 0, 1, []int32{1}), from, discard)
	st = s.Stats()
	if st.Shed != 1 || st.FairEvictions != 1 {
		t.Fatalf("stats = %+v, want the aggressor's 5th block shed", st)
	}
	if ts := s.TenantStats(); ts[0].Shed != 1 {
		t.Fatalf("aggressor stats = %+v, want its shed counted", ts[0])
	}
	if st.NacksSent != 1 {
		t.Fatalf("stats = %+v, want one retry-after NACK once the ladder is loaded", st)
	}
	// NACKs are rate-limited per tenant to one per RetryAfter/4 (5 ms at the
	// default), measured on the refused packets' own instants.
	s.Handle(t0.Add(4*time.Millisecond), buildContribution(1, 101, 0, 1, []int32{1}), from, discard)
	s.Handle(t0.Add(5*time.Millisecond), buildContribution(1, 102, 0, 1, []int32{1}), from, discard)
	if st, ts := s.Stats(), s.TenantStats(); st.Shed != 3 || st.NacksSent != 2 || ts[0].Nacked != 2 {
		t.Fatalf("stats = %+v tenant = %+v, want 3 refusals answered by 2 NACKs", st, ts[0])
	}
}

func TestWeightRescalesFairShare(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:    2,
		MaxOpenBlocks: 4,
		TenantQuotas:  map[uint8]TenantQuota{1: {Weight: 100}},
	})
	from := blackhole()
	for b := uint32(0); b < 4; b++ {
		s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	// Tenant 1's weight entitles it to ~everything: an unweighted arrival is
	// over ITS fair share relative to the heavyweight, so it is shed instead
	// of displacing.
	s.Handle(t0, buildContribution(2, 0, 0, 1, []int32{1}), from, discard)
	st := s.Stats()
	if st.Shed != 1 || st.FairEvictions != 0 {
		t.Fatalf("stats = %+v, want the lightweight arrival shed", st)
	}
	if ts := s.TenantStats(); ts[0].OpenBlocks != 4 {
		t.Fatalf("heavyweight stats = %+v, want its blocks intact", ts[0])
	}
}

func TestLadderTransitionsWithHysteresis(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:    2,
		MaxOpenBlocks: 20,
	})
	from := blackhole()
	open := func(n int) {
		for b := uint32(0); int(b) < n; b++ {
			s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
		}
	}
	open(13)
	if got := s.Stats().OverloadState; got != "normal" {
		t.Fatalf("state = %s at 13/20, want normal", got)
	}
	open(14) // pHi = 14
	if got := s.Stats().OverloadState; got != "pressure" {
		t.Fatalf("state = %s at 14/20, want pressure", got)
	}
	open(18) // oHi = 18
	st := s.Stats()
	if st.OverloadState != "overload" || st.PressureEnters != 1 || st.OverloadEnters != 1 {
		t.Fatalf("stats = %+v at 18/20, want overload after one climb each", st)
	}
	// Complete blocks (src 1 finishes each 2-worker block) to descend.
	complete := func(b uint32) {
		s.Handle(t0, buildContribution(1, b, 1, 1, []int32{1}), from, discard)
	}
	for b := uint32(0); b < 4; b++ {
		complete(b)
	}
	// 14 open: below oLo=15 → pressure, hysteresis holds it above normal.
	if got := s.Stats().OverloadState; got != "pressure" {
		t.Fatalf("state = %s at 14/20 descending, want pressure", got)
	}
	for b := uint32(4); b < 8; b++ {
		complete(b)
	}
	// 10 open: below pLo=11 → normal.
	if got := s.Stats().OverloadState; got != "normal" {
		t.Fatalf("state = %s at 10/20 descending, want normal", got)
	}
	if st := s.Stats(); st.PressureEnters != 1 || st.OverloadEnters != 1 {
		t.Fatalf("stats = %+v, want no extra transitions on the way down", st)
	}
}

func TestReplayCacheDisabledUnderPressure(t *testing.T) {
	s := newTestTable(t, ServerConfig{
		NumWorkers:    2,
		MaxOpenBlocks: 4, ReplayWindow: 8,
	})
	from := blackhole()
	// Complete block 100 so the cache holds it, then replay a retransmit.
	s.Handle(t0, buildContribution(1, 100, 0, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(1, 100, 1, 1, []int32{1}), from, discard)
	s.Handle(t0, buildContribution(1, 100, 0, 1, []int32{1}), from, discard)
	if st := s.Stats(); st.ResultReplays != 1 {
		t.Fatalf("stats = %+v, want the retransmit replayed while normal", st)
	}
	// Load the ladder to pressure (pHi = 3 of 4): replay lookups stop, so
	// the same retransmit now falls through to admission and reopens the
	// block instead of being answered from the cache.
	for b := uint32(0); b < 3; b++ {
		s.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), from, discard)
	}
	if got := s.Stats().OverloadState; got != "pressure" {
		t.Fatalf("state = %s, want pressure", got)
	}
	s.Handle(t0, buildContribution(1, 100, 0, 1, []int32{1}), from, discard)
	if st := s.Stats(); st.ResultReplays != 1 {
		t.Fatalf("stats = %+v, want no replays under pressure", st)
	}
}

// TestClientShedSurfacesErrShed: a client whose tenant keeps losing the
// fairness comparison is NACKed every time it retries, and AllReduce
// surfaces that as ErrShed — a policy refusal — rather than ErrGaveUp or a
// timeout.
func TestClientShedSurfacesErrShed(t *testing.T) {
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: 2,
		MaxOpenBlocks: 2,
		TenantQuotas:  map[uint8]TenantQuota{9: {Weight: 100}},
		RetryAfter:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// A heavyweight filler owns the whole server; its weight makes every
	// other tenant the furthest over fair share.
	from := blackhole()
	s.tab.Handle(time.Now(), buildContribution(9, 0, 0, 1, []int32{1}), from, discard)
	s.tab.Handle(time.Now(), buildContribution(9, 1, 0, 1, []int32{1}), from, discard)
	if got := s.Stats().OverloadState; got != "overload" {
		t.Fatalf("state = %s, want overload with the filler at cap", got)
	}

	c, err := NewClient(ClientConfig{
		ServerAddr: s.Addr().String(), JobID: 3, SrcID: 0,
		RetransmitEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, err = c.AllReduce(1, []int32{1, 2, 3}, 4, 2, 5*time.Second)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("allreduce err = %v, want ErrShed", err)
	}
	st := c.Stats()
	if st.Nacked < maxRetries+1 || st.Backoffs < maxRetries {
		t.Fatalf("client stats = %+v, want the NACKs and backoffs accounted", st)
	}
	sst := s.Stats()
	if sst.NacksSent == 0 {
		t.Fatalf("server stats = %+v, want NACKs sent", sst)
	}
	found := false
	for _, ts := range s.TenantStats() {
		if ts.Tenant == 3 && ts.Nacked > 0 && ts.Shed > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant stats = %+v, want the refusals attributed to tenant 3", s.TenantStats())
	}
}
