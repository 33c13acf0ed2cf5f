package netrpc_test

import (
	"bytes"
	"fmt"

	"github.com/trioml/triogo/internal/apps/netrpc"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
)

// ExampleInstall has three clients call the same idempotent RPC through a
// PFE-resident request cache. The first call claims the entry and pays the
// full origin round trip; a call that overlaps the pending window is
// coalesced and answered by the adopt-time fanout; a later call is served
// straight from PFE memory, and the origin never sees it.
func ExampleInstall() {
	const (
		numClients  = 3
		method      = uint16(7)
		originDelay = 10 * sim.Microsecond
	)
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1})
	pfe := router.PFE(0)
	svc, err := netrpc.Install(pfe, netrpc.Config{Slots: 1024})
	if err != nil {
		panic(err)
	}

	// The origin server sits behind a slow metro link: a miss pays twice
	// originDelay.
	origin := &netrpc.Origin{}
	slow := netsim.DefaultLinkConfig()
	slow.Propagation = originDelay
	var fromOrigin *netsim.Link
	fromOrigin = router.Cable(0, pfe.Cfg.NumPorts-1, slow, slow, netsim.NewSink(eng, func(_ int, f []byte, _ sim.Time) {
		if resp := origin.Handle(f); resp != nil {
			fromOrigin.Send(resp)
		}
	}), 0)

	// Clients sit on ports 1..numClients; each checks its reply payload
	// against the origin's deterministic compute.
	args := []byte("example!")
	cell := make([]byte, 32)
	copy(cell, args)
	want := netrpc.DefaultCompute(method, cell, 32)
	replies, bad := 0, 0
	for i := 0; i < numClients; i++ {
		id := i + 1
		client := netrpc.Client{ID: uint16(id), Spec: packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, byte(id)}, DstIP: [4]byte{10, 0, 0, 200}, SrcPort: 7000,
		}}
		sentAt := sim.Time(0)
		up := router.Cable(0, id, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), netsim.NewSink(eng, func(_ int, f []byte, at sim.Time) {
			h, payload, err := netrpc.ParseResponse(f)
			if err != nil {
				return
			}
			replies++
			path := "origin"
			if h.Flags&packet.NetRPCFlagCoalesced != 0 {
				path = "coalesced"
			} else if h.Flags&packet.NetRPCFlagCached != 0 {
				path = "cache hit"
			}
			fmt.Printf("client %d: reply after %7.2f us via %s\n",
				h.ClientID, (at - sentAt).Microseconds(), path)
			if !bytes.Equal(payload[:len(want)], want) {
				bad++
			}
		}), id)

		// Clients 1 and 2 race during the pending window (claim and
		// coalesce); client 3 calls later and hits the adopted entry.
		delay := sim.Time(i) * 2 * sim.Microsecond
		if i == numClients-1 {
			delay = 3 * originDelay
		}
		req := client.Request(method, args)
		eng.At(delay, func() { sentAt = eng.Now(); up.Send(req) })
	}
	eng.Run()

	st := svc.Stats()
	fmt.Printf("\ncache: claims=%d coalesced=%d hits=%d fanout=%d origin executions=%d\n",
		st.Claims, st.Coalesced, st.Hits, st.Fanout, origin.Served)
	if replies != numClients || bad != 0 || origin.Served != 1 {
		fmt.Printf("FAILED: replies=%d bad=%d origin=%d\n", replies, bad, origin.Served)
		return
	}
	fmt.Println("ok: one origin execution served all clients, every payload verified")
	// Output:
	// client 1: reply after   22.55 us via origin
	// client 2: reply after   20.55 us via coalesced
	// client 3: reply after    2.02 us via cache hit
	//
	// cache: claims=1 coalesced=1 hits=1 fanout=1 origin executions=1
	// ok: one origin execution served all clients, every payload verified
}
