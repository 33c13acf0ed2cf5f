package pfe

// ProcessDirect runs app on pkt in a pooled thread context, loaded as
// Dispatch loads it, and recycles the context — Process alone, without the
// work queue, Reorder Engine and egress around it. Allocation gates on
// App.Process use it; emits are discarded.
func (p *PFE) ProcessDirect(app App, pkt *Packet) Verdict {
	ctx := p.getCtx()
	ctx.load(pkt)
	app.Process(ctx)
	v := ctx.verdict
	p.putCtx(ctx)
	return v
}
