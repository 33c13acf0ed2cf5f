// Command mcasm assembles a Trio Microcode source file (the C-like language
// of §3 of the paper), lowers it through the v2 compile/verify pipeline,
// and optionally executes it against a simulated PFE with a synthetic test
// packet.
//
// Usage:
//
//	mcasm [-entry label] [-packet ipv4|ipv4opts|arp|none] [-stats] prog.mc
//	mcasm -verify-only prog.mc      # static verification, no execution
//	mcasm -dump-compiled prog.mc    # post-fusion listing with resolved pcs; lowered loops annotated
//
// Without -packet none, the program runs as a PPE thread on the packet and
// the verdict, timing, and shared-memory counters are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		entry      = fs.String("entry", "", "entry label (default: first instruction)")
		pktKind    = fs.String("packet", "ipv4", "test packet: ipv4, ipv4opts, arp, none")
		stats      = fs.Bool("stats", false, "print per-instruction program listing")
		verifyOnly = fs.Bool("verify-only", false, "assemble and statically verify, then exit")
		dumpComp   = fs.Bool("dump-compiled", false, "print the compiled (post-fusion) listing and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mcasm [flags] prog.mc")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "mcasm:", err)
		return 1
	}
	prog, err := microcode.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "mcasm:", err)
		return 1
	}
	compiled, err := microcode.Compile(prog)
	if err != nil {
		fmt.Fprintln(stderr, "mcasm: verify:", err)
		return 1
	}
	if *dumpComp {
		fmt.Fprint(stdout, compiled.DumpCompiled())
		return 0
	}
	cost := compiled.Cost()
	fmt.Fprintf(stdout, "program %q: %d instructions\n", prog.Name, prog.Len())
	if *verifyOnly {
		fmt.Fprintf(stdout, "verify: ok (%d superinstructions fused, %d xtxn sites, %d branch sites)\n",
			cost.FusedOps, cost.XTXNSites, cost.BranchSites)
		return 0
	}
	if *stats {
		fmt.Fprint(stdout, prog.Dump())
	}
	if *pktKind == "none" {
		return 0
	}

	frame, err := buildPacket(*pktKind)
	if err != nil {
		fmt.Fprintln(stderr, "mcasm:", err)
		return 1
	}
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	app := &pfe.MicrocodeApp{
		Program: prog, Entry: *entry, EgressPort: 1,
		Setup: func(th *microcode.Thread, ctx *pfe.Ctx) {
			th.Regs[1] = uint64(ctx.FrameLen()) // pkt_len convention
		},
	}
	if err := app.Compile(); err != nil {
		fmt.Fprintln(stderr, "mcasm:", err)
		return 1
	}
	p.SetApp(app)
	var out string
	p.SetOutput(func(port int, f []byte, at sim.Time) {
		out = fmt.Sprintf("forwarded %d bytes on port %d at %v", len(f), port, at)
	})
	p.Inject(0, 1, frame)
	eng.Run()

	st := p.Stats()
	fmt.Fprintf(stdout, "packet: %s (%d bytes)\n", *pktKind, len(frame))
	switch {
	case st.Forwarded > 0:
		fmt.Fprintln(stdout, "verdict: forward —", out)
	case st.Consumed > 0:
		fmt.Fprintln(stdout, "verdict: consume")
	default:
		fmt.Fprintln(stdout, "verdict: drop")
	}
	fmt.Fprintf(stdout, "instructions executed: %d\n", st.Instructions)
	if app.Errors > 0 {
		fmt.Fprintf(stdout, "microcode errors: %d\n", app.Errors)
		return 1
	}
	// Show any Packet/Byte counters the program touched in low SRAM.
	for addr := uint64(0x1000); addr < 0x1040; addr += 16 {
		if pkts, bytes := p.Mem.Counter(addr); pkts != 0 || bytes != 0 {
			fmt.Fprintf(stdout, "counter @%#x: packets=%d bytes=%d\n", addr, pkts, bytes)
		}
	}
	return 0
}

func buildPacket(kind string) ([]byte, error) {
	spec := packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 4000, DstPort: 4001,
	}
	switch kind {
	case "ipv4":
		return packet.BuildUDP(spec, []byte("mcasm test payload")), nil
	case "ipv4opts":
		spec.IPOptions = []byte{0x94, 0x04, 0x00, 0x00}
		return packet.BuildUDP(spec, []byte("options")), nil
	case "arp":
		f := make([]byte, 64)
		(&packet.Ethernet{EtherType: packet.EtherTypeARP}).MarshalTo(f)
		return f, nil
	default:
		return nil, fmt.Errorf("unknown packet kind %q", kind)
	}
}
