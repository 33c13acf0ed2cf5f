package netrpc

// Analytic cost model for the netrpc service program — the cheap first
// fidelity of program-level DSE. Every path count mirrors source() block by
// block, so the model predicts Thread.Stats exactly (the conformance test
// pins it against measured counts); progdse prunes candidate configurations
// on this model before spending full-sim trials.

// Cost summarizes the static and per-packet dynamic cost of one netrpc
// configuration. Instr* fields are run-time instructions retired by one
// packet on the named path; XTXNs* count the external transactions (hash
// engine ops, bulk reads/writes, RMW counter increments) the path issues.
type Cost struct {
	// StaticInstructions is the assembled program length.
	StaticInstructions int

	// Request paths.
	InstrClaim    int // miss → claim slot, forward upstream
	InstrServe    int // hit on a served entry → in-place replay
	InstrCoalesce int // hit on a pending entry → absorb, consume
	InstrBypass   int // miss on an occupied slot → around the cache

	// Response paths.
	InstrAdopt       int // pending entry adopts the origin response
	InstrPassthrough int // untracked response forwarded unchanged
	InstrPoisonGate  int // response on a client-facing port, dropped
	InstrPoisonDup   int // duplicate response for a served entry, dropped

	XTXNsClaim    int
	XTXNsServe    int
	XTXNsCoalesce int
	XTXNsAdopt    int

	// SRAMBytes / DRAMBytes are the provisioned pool footprints: slot
	// records + global counters + per-slot hit counters in SRAM, result
	// buffers in DRAM.
	SRAMBytes uint64
	DRAMBytes uint64
}

// Cost evaluates the analytic model for cfg (an invalid configuration
// yields the zero cost — check separately via Program).
func (cfg Config) Cost() Cost {
	if cfg.check() != nil {
		return Cost{}
	}
	// Shared prologue: parse + parse2 (2), then req_look or resp_gate.
	const (
		prologue = 2
		reqLook  = 1 // hash_lookup + branch
		missSeq  = 5 // req_miss..req_miss5: slot, rec, read, load, test
		hitSeq   = 5 // req_hit..req_hit5: slot, rec, read, load, tag test
		stateSeq = 2 // req_state + req_state2
		respSeq  = 9 // resp_gate..resp_state2 on the tracked-response path
	)
	return Cost{
		StaticInstructions: 46,

		InstrClaim:    prologue + reqLook + missSeq + 5, // claim..claim5
		InstrServe:    prologue + reqLook + hitSeq + stateSeq + 5,
		InstrCoalesce: prologue + reqLook + hitSeq + stateSeq + 3,
		InstrBypass:   prologue + reqLook + missSeq + 1,

		InstrAdopt:       prologue + respSeq + 6, // adopt..adopt6
		InstrPassthrough: prologue + 2 + 1,       // resp_gate, resp_look, pass
		InstrPoisonGate:  prologue + 1 + 1,       // resp_gate, poison
		InstrPoisonDup:   prologue + respSeq + 1,

		XTXNsClaim:    5, // lookup, record read, record write, insert, counter
		XTXNsServe:    5, // lookup, record read, buffer read, 2 counters
		XTXNsCoalesce: 4, // lookup, record read, record write, counter
		XTXNsAdopt:    5, // lookup, record read, buffer write, record write, counter

		SRAMBytes: uint64(cfg.Slots)*recBytes + numCtrs*16 + uint64(cfg.Slots)*16,
		DRAMBytes: uint64(cfg.Slots) * cellBytes,
	}
}
