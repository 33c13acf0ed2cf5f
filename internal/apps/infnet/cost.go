package infnet

// Analytic cost model for the inference program. Because the layers are
// branch-free, every packet retires exactly the same instruction count —
// the model is a closed form in (D, H), pinned exact by the conformance
// test, and progdse prunes model architectures on it before simulating.

// Cost summarizes one model configuration's data-path cost.
type Cost struct {
	// StaticInstructions is the assembled program length.
	StaticInstructions int
	// InstrPerPacket is the run-time instruction count — identical for
	// every packet, benign or attack (the two terminal blocks cost the
	// same single instruction).
	InstrPerPacket int
	// InstrPerMAC amortizes the whole program over its D*H + 2*H
	// multiply-accumulates.
	InstrPerMAC float64
	// XTXNsPerPacket is the external transactions per packet (the one
	// classification counter increment).
	XTXNsPerPacket int
	// SRAMBytes is the provisioned counter footprint.
	SRAMBytes uint64
}

// Cost evaluates the analytic model for cfg (an invalid configuration
// yields the zero cost — check separately via Program).
func (cfg Config) Cost() Cost {
	if cfg.check() != nil {
		return Cost{}
	}
	d, h := len(cfg.Features), len(cfg.Hidden)
	// Layer 1: per neuron a bias init, D MACs, and the two-instruction
	// mask ReLU + requantize. Layer 2: per class a bias init and H MACs.
	// Decision: compare + branch + one terminal block.
	perPacket := h*(d+3) + 2*(h+1) + 3
	macs := d*h + 2*h
	return Cost{
		StaticInstructions: perPacket + 1, // both terminals assembled, one taken
		InstrPerPacket:     perPacket,
		InstrPerMAC:        float64(perPacket) / float64(macs),
		XTXNsPerPacket:     1,
		SRAMBytes:          numCtrs * 16,
	}
}
