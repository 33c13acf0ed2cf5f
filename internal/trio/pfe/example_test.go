package pfe_test

import (
	"fmt"
	"os"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// ExampleMicrocodeApp builds a one-PFE router, installs the paper's §3.2
// packet filter (Figs. 5–6) and pushes three packets through it. The
// program forwards IPv4 packets without options, drops everything else and
// counts drops per cause in 16-byte Packet/Byte Counters.
func ExampleMicrocodeApp() {
	// 1. Assemble the program (the Trio Compiler step of Fig. 4).
	src, err := os.ReadFile("../../microcode/testdata/filter.mc")
	if err != nil {
		panic(err)
	}
	prog := microcode.MustAssemble(string(src))
	fmt.Printf("assembled %q: %d instructions\n", prog.Name, prog.Len())

	// 2. Install it. Compiling eagerly runs the static verifier and
	// superinstruction fusion before any packet arrives.
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1})
	app := &pfe.MicrocodeApp{
		Program: prog, EgressPort: 1,
		Setup: func(th *microcode.Thread, ctx *pfe.Ctx) {
			th.Regs[1] = uint64(ctx.FrameLen()) // dispatch hands pkt_len to r1
		},
	}
	if err := app.Compile(); err != nil {
		panic(err)
	}
	cost := app.Compiled().Cost()
	fmt.Printf("compiled: %d superinstructions fused, %d branch sites\n\n",
		cost.FusedOps, cost.BranchSites)
	router.PFE(0).SetApp(app)
	router.AttachExternal(0, 1, func(port int, frame []byte, at sim.Time) {
		fmt.Printf("  [%v] forwarded %d-byte frame on port %d\n", at, len(frame), port)
	})

	// 3. Push a plain IPv4 packet, an IPv4 packet with options and an ARP
	// frame.
	spec := packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 4000, DstPort: 4001,
	}
	fmt.Println("injecting: plain IPv4, IPv4 with options, ARP")
	router.Inject(0, 0, 1, packet.BuildUDP(spec, []byte("hello trio")))
	withOpts := spec
	withOpts.IPOptions = []byte{0x94, 0x04, 0x00, 0x00}
	router.Inject(0, 0, 2, packet.BuildUDP(withOpts, []byte("options")))
	arp := make([]byte, 64)
	(&packet.Ethernet{EtherType: packet.EtherTypeARP}).MarshalTo(arp)
	router.Inject(0, 0, 3, arp)
	eng.Run()

	// 4. Read the drop counters back (Fig. 6's layout).
	mem := router.PFE(0).Mem
	nonIPPkts, nonIPBytes := mem.Counter(0x1000)
	optPkts, optBytes := mem.Counter(0x1010)
	st := router.PFE(0).Stats()
	fmt.Printf("\nresults after %d packets:\n", st.Dispatched)
	fmt.Printf("  forwarded:            %d\n", st.Forwarded)
	fmt.Printf("  non-IP drops:         %d packets, %d bytes\n", nonIPPkts, nonIPBytes)
	fmt.Printf("  IP-options drops:     %d packets, %d bytes\n", optPkts, optBytes)
	fmt.Printf("  instructions executed: %d\n", st.Instructions)
	// Output:
	// assembled "filter": 5 instructions
	// compiled: 3 superinstructions fused, 2 branch sites
	//
	// injecting: plain IPv4, IPv4 with options, ARP
	//   [64ns] forwarded 52-byte frame on port 1
	//
	// results after 3 packets:
	//   forwarded:            1
	//   non-IP drops:         1 packets, 64 bytes
	//   IP-options drops:     1 packets, 53 bytes
	//   instructions executed: 10
}
