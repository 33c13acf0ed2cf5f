// In-network MLP inference: a quantized int8 detector compiled to branch-free
// microcode (internal/apps/infnet) classifies every packet inside the PFE.
// Small low-TTL floods against low-numbered ports are marked in the IP TOS
// byte; every hardware verdict is checked bit for bit against the Go
// reference model.
//
//	go run ./examples/infnet
package main

import (
	"fmt"
	"os"

	"github.com/trioml/triogo/internal/apps/infnet"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

func main() {
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1, PFE: trioml.RecommendedPFEConfig()})

	// Features: IP total-length high byte (14+2), TTL (14+8), UDP dst port
	// (14+20+2..3). One hidden neuron accumulates attack evidence (low TTL,
	// vetoed by large packets or high ports); three accumulate benign
	// evidence. Ties score benign.
	model := infnet.Config{
		Features: []int{16, 22, 36, 37},
		Hidden: [][]int8{
			{-100, -1, -100, 0},
			{0, 1, 0, 0},
			{1, 0, 0, 0},
			{0, 0, 1, 0},
		},
		Bias1: []int32{32, -32, -1, 0},
		Out:   [2][]int8{{-1, 1, 1, 1}, {4, -2, -2, -2}},
		Bias2: [2]int32{1, 0},
		Mode:  infnet.ModeFlag,
	}
	svc, err := infnet.Install(router.PFE(0), model)
	if err != nil {
		panic(err)
	}

	type probe struct {
		desc  string
		frame []byte
	}
	build := func(dst uint16, ttl uint8, payload int) []byte {
		return packet.BuildUDP(packet.UDPSpec{
			SrcIP: [4]byte{10, 1, 0, 1}, DstIP: [4]byte{10, 9, 9, 9},
			SrcPort: 31337, DstPort: dst, TTL: ttl,
		}, make([]byte, payload))
	}
	probes := []probe{
		{"DNS flood (port 53, TTL 12, 10B)", build(53, 12, 10)},
		{"web fetch (port 8080, TTL 60, 800B)", build(8080, 60, 800)},
		{"legit DNS (port 53, TTL 58, 24B)", build(53, 58, 24)},
		{"low-TTL legit DNS (port 53, TTL 28, 26B)", build(53, 28, 26)},
		{"big transfer (port 53, TTL 12, 900B)", build(53, 12, 900)},
	}

	marked := map[int]bool{}
	router.AttachExternal(0, infnet.EgressPort, func(_ int, f []byte, _ sim.Time) {
		for i, p := range probes {
			if len(f) == len(p.frame) {
				marked[i] = f[infnet.MarkOff] == infnet.Mark
			}
		}
	})
	send := router.Cable(0, 1, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), nil) // send-only
	for _, p := range probes {
		send(p.frame)
	}
	eng.Run()

	bad := 0
	for i, p := range probes {
		want := model.Classify(p.frame)
		verdict := "benign"
		if marked[i] {
			verdict = "ATTACK"
		}
		agree := "ok"
		if marked[i] != want.Attack {
			agree = "MISMATCH vs reference"
			bad++
		}
		fmt.Printf("%-42s -> %-6s (%s)\n", p.desc, verdict, agree)
	}
	st := svc.Stats()
	fmt.Printf("\nclassified %d packets in-network: %d benign, %d attack\n",
		st.Total(), st.Benign, st.Attack)
	if bad != 0 || int(st.Total()) != len(probes) {
		fmt.Printf("FAILED: %d verdicts diverged from the reference model\n", bad)
		os.Exit(1)
	}
	fmt.Println("ok: every hardware verdict matches the Go reference model")
}
