package hostagg

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// wireWrite is one write a batch made.
type wireWrite struct {
	to  netip.AddrPort
	p   []byte
	seg int
}

// TestBatchTwin drives the batch with seeded random (destination, length)
// sequences and random flushes into a recording writer, and checks what a
// receiver would see: every write, re-split at its segment size the way the
// readers split a UDP_GRO buffer, gives back per destination exactly
// the datagrams that were appended, in order; every write keeps the GSO rules
// (at most maxRunSegs segments and maxRunBytes bytes, equal segments but for
// a shorter, non-empty last one, a run of one as a plain write); and with GSO
// off — from the start, or refused by the first run write — every write is one
// datagram.
func TestBatchTwin(t *testing.T) {
	for _, mode := range []string{"gso", "off", "refused"} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x6273))
			// Every fifth seed spreads over more destinations than a batch
			// holds runs for.
			dests := []netip.AddrPort{netip.MustParseAddrPort("[fd00::3]:4000")}
			for len(dests) < 3 || (seed%5 == 0 && len(dests) < maxRunDests+6) {
				dests = append(dests, netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(len(dests))}), 4000))
			}
			var writes []wireWrite
			refusals := 0
			forceNoGSO = mode == "off"
			b := newBatch(func(p []byte, seg int, to netip.AddrPort) error {
				if mode == "refused" && seg > 0 {
					refusals++
					return syscall.EIO
				}
				writes = append(writes, wireWrite{to, slices.Clone(p), seg})
				return nil
			})
			forceNoGSO = false

			// Odd seeds close runs often; even seeds let them reach the caps.
			shortEvery := 12
			if seed%2 == 0 {
				shortEvery = 500
			}
			want := make(map[netip.AddrPort][][]byte)
			size := make([]int, len(dests)) // each destination's current datagram length
			for i := range 3000 {
				d := rng.IntN(len(dests))
				switch r := rng.IntN(200); {
				case r == 0:
					size[d] = 0
				case r < 3:
					size[d] = 1000 + rng.IntN(600) // byte cap before segment cap
				case r < 8:
					size[d] = 1 + rng.IntN(200)
				}
				n := size[d]
				if rng.IntN(shortEvery) == 0 && n > 0 {
					n = rng.IntN(n) // a shorter one closes the run
				}
				p, err := b.next(n, dests[d])
				if err != nil {
					t.Fatal(err)
				}
				for j := range p {
					p[j] = byte(i*7 + j)
				}
				want[dests[d]] = append(want[dests[d]], slices.Clone(p))
				if rng.IntN(300) == 0 {
					if err := b.flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := b.flush(); err != nil {
				t.Fatal(err)
			}

			got := make(map[netip.AddrPort][][]byte)
			runs := 0
			for w, wr := range writes {
				if wr.seg == 0 {
					got[wr.to] = append(got[wr.to], wr.p)
					continue
				}
				runs++
				if mode != "gso" || !gsoSupported {
					t.Fatalf("%s seed %d write %d: a %d-byte run of %d-byte segments with GSO off", mode, seed, w, len(wr.p), wr.seg)
				}
				segs := 0
				for p := wr.p; len(p) > 0; segs++ {
					var d []byte
					d, p = nextSegment(p, wr.seg)
					if len(d) != wr.seg && len(p) > 0 {
						t.Fatalf("seed %d write %d: %d-byte segment in mid-run, segment size %d", seed, w, len(d), wr.seg)
					}
					got[wr.to] = append(got[wr.to], d)
				}
				if segs < 2 || segs > maxRunSegs || len(wr.p) > maxRunBytes {
					t.Fatalf("seed %d write %d: run of %d segments, %d bytes (want 2..%d, <= %d)", seed, w, segs, len(wr.p), maxRunSegs, maxRunBytes)
				}
			}
			for _, to := range dests {
				if len(got[to]) != len(want[to]) {
					t.Fatalf("%s seed %d: %v received %d datagrams, %d were appended", mode, seed, to, len(got[to]), len(want[to]))
				}
				for i := range want[to] {
					if !bytes.Equal(got[to][i], want[to][i]) {
						t.Fatalf("%s seed %d: %v datagram %d is %d bytes %x, appended %d bytes %x", mode, seed, to, i,
							len(got[to][i]), got[to][i][:min(8, len(got[to][i]))], len(want[to][i]), want[to][i][:min(8, len(want[to][i]))])
					}
				}
			}
			switch {
			case mode == "gso" && gsoSupported && runs == 0:
				t.Fatalf("seed %d: no run formed in %d writes", seed, len(writes))
			case mode == "refused" && gsoSupported && refusals != 1:
				t.Fatalf("seed %d: %d refused run writes, want 1 and then none", seed, refusals)
			}
		}
	}
}

// TestBatchReusesBuffers: a warm batch appends and flushes a burst to the
// same destinations without allocating.
func TestBatchReusesBuffers(t *testing.T) {
	b := newBatch(func([]byte, int, netip.AddrPort) error { return nil })
	dests := []netip.AddrPort{netip.MustParseAddrPort("10.0.0.1:1"), netip.MustParseAddrPort("10.0.0.2:1")}
	burst := func() {
		for i := range 100 {
			if _, err := b.next(144, dests[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		b.flush()
	}
	burst()
	if a := testing.AllocsPerRun(100, burst); a != 0 {
		t.Fatalf("warm burst allocated %.1f times", a)
	}
}

// TestBurstOverLoopback sends one window of blocks, the last one short, as
// one burst over real loopback to a one-worker server, then repeats the
// exchange with GSO forced off on both ends. Each time the server must count
// exactly one packet per block and nothing malformed; the two runs must agree
// on every server counter and every sum. AllReduce returns only after every
// result arrived, and a result leaves after its packet was counted, so the
// counters are final when it returns.
func TestBurstOverLoopback(t *testing.T) {
	const blockGrads, nBlocks = 32, 40
	grads := make([]int32, blockGrads*(nBlocks-1)+7)
	for i := range grads {
		grads[i] = int32(i*31 - 500)
	}
	exchange := func(noGSO bool) (ServerStats, []int32, []wireWrite) {
		forceNoGSO = noGSO
		defer func() { forceNoGSO = false }()
		s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, Window: nBlocks})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var mu sync.Mutex
		var writes []wireWrite
		write := c.write
		c.write = func(p []byte, seg int, to netip.AddrPort) error {
			mu.Lock()
			writes = append(writes, wireWrite{to: to, seg: seg})
			mu.Unlock()
			return write(p, seg, to)
		}
		sum, err := c.AllReduce(1, grads, blockGrads, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Packets != nBlocks || st.Malformed != 0 || st.Completed != nBlocks {
			t.Fatalf("noGSO=%v: server stats %+v, want %d packets, none malformed", noGSO, st, nBlocks)
		}
		mu.Lock()
		defer mu.Unlock()
		return st, sum, writes
	}
	gsoStats, gsoSum, gsoWrites := exchange(false)
	plainStats, plainSum, plainWrites := exchange(true)
	if gsoStats != plainStats {
		t.Fatalf("server stats differ:\nGSO   %+v\nplain %+v", gsoStats, plainStats)
	}
	if !slices.Equal(gsoSum, grads) || !slices.Equal(plainSum, grads) {
		t.Fatal("a one-worker sum differs from its input")
	}
	if seg := packet.TrioMLHeaderLen + 4*blockGrads; gsoSupported && (len(gsoWrites) != 1 || gsoWrites[0].seg != seg) {
		t.Fatalf("GSO run: client writes %+v, want one run of %d-byte segments", gsoWrites, seg)
	}
	if len(plainWrites) != nBlocks {
		t.Fatalf("GSO off: %d client writes, want %d", len(plainWrites), nBlocks)
	}
	for _, w := range plainWrites {
		if w.seg != 0 {
			t.Fatalf("GSO off: a run of %d-byte segments", w.seg)
		}
	}
}
