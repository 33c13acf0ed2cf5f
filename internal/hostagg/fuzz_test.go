package hostagg

import (
	"net"
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/packet"
)

// FuzzHandle throws arbitrary datagrams at the bare table's decode/admission
// path — the same Handle the server's loop calls — looking for panics, counter
// corruption, blocks opened by malformed input, or datagrams sent anywhere
// but to an address Handle was given. Every input gets a fresh table, a fixed
// now and the same three-packet prologue (one open block, one served block),
// so a crasher reproduces from its corpus file alone. The seed corpus in
// testdata/fuzz/FuzzHandle covers the interesting boundaries: a valid
// contribution, truncated headers, bodies shorter and longer than GradCnt
// claims, an out-of-range source, and control/result source ids arriving in
// the client→server direction.
func FuzzHandle(f *testing.F) {
	valid := buildContribution(1, 7, 0, 1, []int32{1, 2, 3})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(valid[:packet.TrioMLHeaderLen-1])                     // truncated header
	f.Add(valid[:len(valid)-2])                                 // truncated body
	f.Add(append(append([]byte{}, valid...), 0xEE, 0xEE, 0xEE)) // oversized body
	f.Add(buildContribution(1, 7, 63, 1, []int32{1}))           // src beyond fleet
	f.Add(packet.BuildRetryAfter(packet.TrioML{JobID: 1}, packet.RetryReasonQuota, 20))
	big := buildContribution(2, 0, 1, 2, make([]int32, packet.MaxGradientsPerPacket))
	f.Add(big)

	known := []*net.UDPAddr{workerAddr(0), workerAddr(1), workerAddr(2)}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newTestTable(t, ServerConfig{
			NumWorkers: 4, MaxOpenBlocks: 64, MaxBlocksPerJob: 16, ReplayWindow: 8,
			TenantQuotas: map[uint8]TenantQuota{1: {MaxOpenBlocks: 8, PacketsPerSec: 1e6}},
		})
		send := func(b []byte, to *net.UDPAddr) {
			if !slices.Contains(known, to) {
				t.Fatalf("Handle sent %d bytes to %v, an address it was never given", len(b), to)
			}
		}
		tab.Handle(t0, buildContribution(1, 7, 1, 1, []int32{1, 2, 3}), known[1], send)
		for src := uint8(0); src < 4; src++ {
			tab.Handle(t0, buildContribution(1, 8, src, 1, []int32{1}), known[src%3], send)
		}
		before := tab.Stats()
		tab.Handle(t0, data, known[2], send)
		tab.Handle(t0, data, known[2], send) // and its own retransmit
		st := tab.Stats()
		if got := (st.Packets - before.Packets) + (st.Malformed - before.Malformed) + (st.BadPackets - before.BadPackets); got != 2 {
			t.Fatalf("two datagrams accounted %d times (stats %+v)", got, st)
		}
		if open := tab.openBlocks.Load(); open > 64 || open != int64(len(tab.blocks)) {
			t.Fatalf("open blocks %d vs %d in the map, cap 64 (stats %+v)", open, len(tab.blocks), st)
		}
	})
}
