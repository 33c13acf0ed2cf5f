package microcode

import (
	"sync/atomic"

	"github.com/trioml/triogo/internal/obs"
)

// Package-level pipeline tallies. They are plain atomics (not registry
// instruments) so compilation and dispatch stay dependency-free and
// allocation-free; RegisterObs exposes them as CounterFunc series.
var (
	mcProgramsCompiled atomic.Uint64
	mcFusedOps         atomic.Uint64
	mcVerifyRejects    atomic.Uint64
	mcDispatchInstrs   atomic.Uint64
)

// PipelineStats is a snapshot of the process-wide compile/verify/dispatch
// tallies.
type PipelineStats struct {
	ProgramsCompiled     uint64
	SuperinstrsFused     uint64
	VerifyRejects        uint64
	DispatchInstructions uint64
}

// ReadPipelineStats snapshots the pipeline tallies.
func ReadPipelineStats() PipelineStats {
	return PipelineStats{
		ProgramsCompiled:     mcProgramsCompiled.Load(),
		SuperinstrsFused:     mcFusedOps.Load(),
		VerifyRejects:        mcVerifyRejects.Load(),
		DispatchInstructions: mcDispatchInstrs.Load(),
	}
}

// RegisterObs exposes the v2 pipeline metrics on reg. The dispatch
// instruction counter is cumulative; rate() it for instrs/s.
func RegisterObs(reg *obs.Registry) {
	reg.CounterFunc(obs.Desc{
		Name: "triogo_microcode_programs_compiled_total",
		Help: "Programs lowered through the Compile/Verify pipeline",
		Unit: "programs",
	}, mcProgramsCompiled.Load)
	reg.CounterFunc(obs.Desc{
		Name: "triogo_microcode_superinstructions_fused_total",
		Help: "Move/Cond operations fused into superinstruction forms, plus loops lowered into kernels, at compile time",
		Unit: "ops",
	}, mcFusedOps.Load)
	reg.CounterFunc(obs.Desc{
		Name: "triogo_microcode_verify_rejects_total",
		Help: "Programs rejected by the static verifier at compile time",
		Unit: "programs",
	}, mcVerifyRejects.Load)
	reg.CounterFunc(obs.Desc{
		Name: "triogo_microcode_dispatch_instructions_total",
		Help: "Micro-instructions retired by the compiled dispatcher (rate() for instrs/s)",
		Unit: "instructions",
	}, mcDispatchInstrs.Load)
}
