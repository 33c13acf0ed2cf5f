package hostagg

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// t0 is where table tests start the clock; they choose every later instant.
var t0 = time.Unix(1_700_000_000, 0)

// newTestTable builds a bare block table: no socket, no goroutine, no clock.
func newTestTable(t testing.TB, cfg ServerConfig) *Table {
	t.Helper()
	tab, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sent is one datagram a table handed to its send argument.
type sent struct {
	to    *net.UDPAddr
	hdr   packet.TrioML
	grads []int32 // nil for control packets
}

// outbox collects, decoded, everything a table sends.
type outbox []sent

func (o *outbox) send(b []byte, to *net.UDPAddr) {
	m := sent{to: to}
	rest, err := m.hdr.Unmarshal(b)
	if err != nil {
		panic(err)
	}
	if m.hdr.SrcID == packet.ResultSrcID {
		m.grads, _ = packet.Gradients(rest, int(m.hdr.GradCnt))
	}
	*o = append(*o, m)
}

// take returns what was collected and empties the outbox.
func (o *outbox) take() []sent {
	out := *o
	*o = nil
	return out
}

func discard([]byte, *net.UDPAddr) {}

// workerAddr fabricates the return address of source src.
func workerAddr(src uint8) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1+src), Port: 40000 + int(src)}
}

func newTestServer(t *testing.T, workers int, timeout time.Duration) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: workers, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestClient(t *testing.T, s *Server, src uint8) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, SrcID: src, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAllReduceOverLoopback(t *testing.T) {
	const workers = 3
	s := newTestServer(t, workers, 0)
	const n = 5000 // spans multiple blocks at 1024 grads/block
	var wg sync.WaitGroup
	sums := make([][]int32, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		c := newTestClient(t, s, uint8(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32((w + 1) * (i%97 - 48))
			}
			sums[w], errs[w] = c.AllReduce(1, grads, 1024, workers, 10*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for i := 0; i < n; i++ {
		want := int32(6 * (i%97 - 48)) // (1+2+3)x
		for w := 0; w < workers; w++ {
			if sums[w][i] != want {
				t.Fatalf("worker %d gradient %d = %d, want %d", w, i, sums[w][i], want)
			}
		}
	}
	st := s.Stats()
	if st.Completed == 0 || st.Degraded != 0 || st.Duplicates != 0 {
		t.Fatalf("server stats = %+v", st)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestStragglerTimeoutProducesDegradedResult(t *testing.T) {
	const timeout = 150 * time.Millisecond
	tab := newTestTable(t, ServerConfig{NumWorkers: 3, Timeout: timeout})
	var out outbox
	// All three workers register (so results reach them), but worker 2
	// contributes nothing to block 0.
	tab.Handle(t0, buildContribution(1, 99, 2, 1, []int32{0}), workerAddr(2), out.send)
	grads := []int32{10, 20, 30}
	tab.Handle(t0, buildContribution(1, 0, 0, 1, grads), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 1, 1, grads), workerAddr(1), out.send)

	// The first sweep only clears the REF flags; a nanosecond short of the
	// timeout nothing ages; at the timeout both records do.
	tab.Sweep(t0.Add(timeout/4), out.send)
	tab.Sweep(t0.Add(timeout-1), out.send)
	if len(out) != 0 || tab.Pending() != 2 {
		t.Fatalf("aged early: %d datagrams, %d pending", len(out), tab.Pending())
	}
	tab.Sweep(t0.Add(timeout), out.send)
	if st := tab.Stats(); st.Degraded != 2 || st.BlocksTimedOut != 2 || tab.Pending() != 0 {
		t.Fatalf("stats = %+v, want blocks 0 and 99 aged out", st)
	}
	var got []sent
	for _, m := range out { // the registration block (99) also ages out
		if m.hdr.BlockID == 0 {
			got = append(got, m)
		}
	}
	if len(got) != 3 {
		t.Fatalf("block 0 result reached %d workers, want all 3 registered", len(got))
	}
	for src, m := range got {
		if m.to.Port != workerAddr(uint8(src)).Port {
			t.Fatalf("result %d went to %v, want source order", src, m.to)
		}
		if !m.hdr.Degraded || m.hdr.SrcCnt != 2 || m.hdr.AgeOp != 1 {
			t.Fatalf("result = %+v, want degraded with 2 sources", m.hdr)
		}
		if m.grads[0] != 20 || m.grads[2] != 60 {
			t.Fatalf("partial sums = %v", m.grads)
		}
	}
}

// TestSweepWithoutAgingIsNoop: Timeout zero means SwitchML semantics — a
// sweep at any instant leaves every partial block alone.
func TestSweepWithoutAgingIsNoop(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	tab.Handle(t0, buildContribution(1, 0, 0, 1, []int32{1}), workerAddr(0), out.send)
	tab.Sweep(t0.Add(time.Hour), out.send)
	tab.Sweep(t0.Add(2*time.Hour), out.send)
	if len(out) != 0 || tab.Pending() != 1 {
		t.Fatalf("sweep with aging off sent %d datagrams, left %d pending", len(out), tab.Pending())
	}
}

func TestDuplicateContributionIgnored(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	g := []int32{7}
	tab.Handle(t0, buildContribution(1, 0, 0, 1, g), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 0, 1, g), workerAddr(0), out.send) // retransmission
	tab.Handle(t0, buildContribution(1, 0, 1, 1, g), workerAddr(1), out.send)
	if len(out) != 2 || out[0].grads[0] != 14 || out[1].grads[0] != 14 {
		t.Fatalf("sent = %+v, want the sum 14 to both workers", out)
	}
	if st := tab.Stats(); st.Duplicates != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerationRestartOnHost(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	// Gen 1 partially aggregates block 0; gen 2 then reuses block 0.
	tab.Handle(t0, buildContribution(1, 0, 0, 1, []int32{100}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 0, 2, []int32{1}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 1, 2, []int32{2}), workerAddr(1), out.send)
	if len(out) != 2 || out[0].hdr.GenID != 2 || out[0].grads[0] != 3 {
		t.Fatalf("sent = %+v, want gen 2 sum 3 (no gen-1 leak)", out)
	}
	// A gen-1 packet arriving while a gen-2 record is open is stale.
	tab.Handle(t0, buildContribution(1, 1, 0, 2, []int32{5}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 1, 1, 1, []int32{100}), workerAddr(1), out.send)
	if st := tab.Stats(); st.StaleDrops != 1 || st.GenRestarts != 1 || tab.Pending() != 1 {
		t.Fatalf("stats = %+v, want one restart and one stale drop", st)
	}
}

// TestGenerationWrapOnHost: generation ids wrap at 16 bits. A block open at
// 0xFFFF is superseded by a gen-0 contribution (a restart, not a stale drop),
// a late 0xFFFF contribution after that is stale, and the result is gen 0's.
func TestGenerationWrapOnHost(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	tab.Handle(t0, buildContribution(1, 0, 0, 0xFFFF, []int32{100}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 0, 0, []int32{1}), workerAddr(0), out.send)
	if st := tab.Stats(); st.GenRestarts != 1 || st.StaleDrops != 0 || tab.Pending() != 1 {
		t.Fatalf("stats = %+v, want gen 0 to restart the block open at 0xFFFF", st)
	}
	tab.Handle(t0, buildContribution(1, 0, 1, 0xFFFF, []int32{100}), workerAddr(1), out.send)
	if st := tab.Stats(); st.StaleDrops != 1 || len(out) != 0 {
		t.Fatalf("stats = %+v, sent %d: a late 0xFFFF contribution must be stale", st, len(out))
	}
	tab.Handle(t0, buildContribution(1, 0, 1, 0, []int32{2}), workerAddr(1), out.send)
	if len(out) != 2 || out[0].hdr.GenID != 0 || out[0].grads[0] != 3 {
		t.Fatalf("sent = %+v, want the gen-0 sum 3 to both workers", out)
	}
}

func TestBadPacketsCounted(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	// Wire garbage (too short to even decode) is malformed, not a protocol
	// violation.
	tab.Handle(t0, []byte{1, 2, 3}, workerAddr(0), discard)
	// A well-formed header claiming a source outside the 2-worker fleet is a
	// protocol-level bad packet.
	hdr := packet.TrioML{JobID: 1, BlockID: 0, SrcID: 7}
	buf := make([]byte, packet.TrioMLHeaderLen)
	hdr.MarshalTo(buf)
	tab.Handle(t0, buf, workerAddr(0), discard)
	if st := tab.Stats(); st.Malformed != 1 || st.BadPackets != 1 || st.Packets != 0 {
		t.Fatalf("stats = %+v, want one malformed and one bad packet", st)
	}
}

func TestOversizedDatagramMalformed(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	// A valid header whose body carries more bytes than GradCnt accounts
	// for: the tail would silently vanish in aggregation, so the table
	// rejects the datagram whole.
	hdr := packet.TrioML{JobID: 1, BlockID: 3, SrcID: 0, GradCnt: 2}
	buf := make([]byte, packet.TrioMLHeaderLen+4*2+5)
	hdr.MarshalTo(buf)
	tab.Handle(t0, buf, workerAddr(0), discard)
	if st := tab.Stats(); st.Malformed != 1 || st.Packets != 0 || st.BadPackets != 0 {
		t.Fatalf("oversized datagram leaked past decode: %+v", st)
	}
	if tab.Pending() != 0 {
		t.Fatalf("oversized datagram opened a block")
	}
}

func TestServerValidatesConfig(t *testing.T) {
	if _, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 65}); err == nil {
		t.Fatal("65 workers accepted (mask is 64-bit)")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := newTestServer(t, 2, 50*time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerSweepsIdleTable checks that a real server's loop sweeps with no
// traffic arriving: source 0 sends block 0 once and nothing more reaches the
// socket, so only the read deadline can wake the loop to age the block out.
func TestServerSweepsIdleTable(t *testing.T) {
	s := newTestServer(t, 2, 40*time.Millisecond)
	conn, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	grads := []int32{7, -3, 1 << 20}
	if _, err := conn.Write(buildContribution(1, 0, 0, 1, grads)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no aged result: %v", err)
	}
	var h packet.TrioML
	rest, err := h.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	got, err := packet.Gradients(rest, int(h.GradCnt))
	if err != nil {
		t.Fatal(err)
	}
	if h.BlockID != 0 || !h.Degraded || h.SrcCnt != 1 || h.AgeOp != 1 {
		t.Fatalf("result = %+v, want block 0 degraded with 1 source", h)
	}
	if !slices.Equal(got, grads) {
		t.Fatalf("partial sums = %v, want %v", got, grads)
	}
}

// TestSimulatorFrameReplaysOnSocket demonstrates the wire-format claim: a
// frame built for the simulated data path replays against the host
// aggregator by stripping its Ethernet/IPv4/UDP headers.
func TestSimulatorFrameReplaysOnSocket(t *testing.T) {
	s := newTestServer(t, 2, 0)
	c0 := newTestClient(t, s, 0)
	c1 := newTestClient(t, s, 1)

	// Worker 1's contribution is a simulator frame.
	simFrame := packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 2}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
	}, packet.TrioML{JobID: 1, BlockID: 4, SrcID: 1, GenID: 3}, []int32{100, -7})
	f, err := packet.Decode(simFrame)
	if err != nil || !f.IsTrioML() {
		t.Fatalf("decode: %v", err)
	}
	udpPayload := simFrame[packet.EthernetLen+f.IP.HeaderLen()+packet.UDPLen:]

	if err := c0.SendBlock(4, 3, []int32{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.conn.Write(udpPayload); err != nil { // either may land first: sums commute
		t.Fatal(err)
	}
	rs := recvResults(t, c0, time.Now().Add(5*time.Second))
	if len(rs) != 1 {
		t.Fatalf("%d results from the replayed simulator frame, want 1", len(rs))
	}
	if h := rs[0].h; h.BlockID != 4 || h.GenID != 3 {
		t.Fatalf("result = %+v", h)
	}
	if grads := rs[0].grads; grads[0] != 101 || grads[1] != -5 {
		t.Fatalf("sums = %v", grads)
	}
}

func TestJobsIsolatedOnHostServer(t *testing.T) {
	// Two jobs share one table; each job's results reach only its own
	// workers, and sums do not mix.
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	addr := func(job, src uint8) *net.UDPAddr { return &net.UDPAddr{IP: net.IPv4(10, 0, job, src), Port: 5000} }
	var out outbox
	tab.Handle(t0, buildContribution(1, 0, 0, 1, []int32{1}), addr(1, 0), out.send)
	tab.Handle(t0, buildContribution(2, 0, 0, 1, []int32{100}), addr(2, 0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 1, 1, []int32{2}), addr(1, 1), out.send)
	tab.Handle(t0, buildContribution(2, 0, 1, 1, []int32{200}), addr(2, 1), out.send)
	if len(out) != 4 {
		t.Fatalf("sent %d datagrams, want one result per worker", len(out))
	}
	for i, m := range out {
		job, want := uint8(1), int32(3)
		if i >= 2 {
			job, want = 2, 300
		}
		if m.hdr.JobID != job || m.grads[0] != want || !m.to.IP.Equal(addr(job, uint8(i%2)).IP) {
			t.Fatalf("datagram %d = job %d sum %d to %v, want job %d sum %d to its own worker %d",
				i, m.hdr.JobID, m.grads[0], m.to, job, want, i%2)
		}
	}
}
