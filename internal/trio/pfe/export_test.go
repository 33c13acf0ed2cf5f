package pfe

// ProcessDirect runs app on pkt in the PFE's thread context, loaded as
// Dispatch loads it — Process alone, without the work queue, Reorder Engine
// and egress around it. Allocation gates on App.Process use it; emits are
// discarded.
func (p *PFE) ProcessDirect(app App, pkt *Packet) Verdict {
	ctx := p.enter()
	ctx.load(pkt)
	app.Process(ctx)
	clear(ctx.emits)
	ctx.emits = ctx.emits[:0]
	ctx.running = false
	return ctx.verdict
}
