// Package mltrain models the distributed data-parallel training workloads of
// §6: six workers training ResNet50, DenseNet161, and VGG11 on ImageNet,
// streaming gradients through an in-network aggregator (Trio-ML or SwitchML)
// or an ideal NCCL ring. Gradient traffic is simulated packet-by-packet
// through the device models; GPU compute and statistical efficiency are
// modelled analytically (per DESIGN.md, real DNN arithmetic contributes
// nothing to the evaluation's shape).
package mltrain

import (
	"math"

	"github.com/trioml/triogo/internal/sim"
)

// Model describes one DNN workload (Table 1 of the paper), extended with the
// timing and convergence parameters the simulation needs.
type Model struct {
	Name      string
	SizeMB    int // gradient/model size
	BatchSize int // per GPU
	Dataset   string

	// ComputeTime is the GPU forward+backward time per iteration,
	// calibrated so the no-straggler iteration times land in the ranges of
	// Fig. 13 (Ideal ≈ 105 / 230 / 560 ms).
	ComputeTime sim.Time

	// TargetAcc is the paper's target validation accuracy (Fig. 12) and
	// BaseIters the iterations a full-gradient run needs to reach it.
	TargetAcc float64
	BaseIters int

	// accStart/accCeil anchor the validation-accuracy curve.
	accStart, accCeil float64
}

// Models returns the three workloads of Table 1.
func Models() []Model {
	return []Model{
		{
			Name: "ResNet50", SizeMB: 98, BatchSize: 64, Dataset: "ImageNet",
			ComputeTime: 90 * sim.Millisecond,
			TargetAcc:   90, BaseIters: 250_000, accStart: 20, accCeil: 94,
		},
		{
			Name: "VGG11", SizeMB: 507, BatchSize: 128, Dataset: "ImageNet",
			ComputeTime: 480 * sim.Millisecond,
			TargetAcc:   80, BaseIters: 50_000, accStart: 20, accCeil: 84,
		},
		{
			Name: "DenseNet161", SizeMB: 109, BatchSize: 64, Dataset: "ImageNet",
			ComputeTime: 215 * sim.Millisecond,
			TargetAcc:   90, BaseIters: 59_000, accStart: 20, accCeil: 94,
		},
	}
}

// Gradients reports the model's gradient count (4-byte gradients).
func (m Model) Gradients() int { return m.SizeMB * 1_000_000 / 4 }

// Bytes reports the model size in bytes.
func (m Model) Bytes() int { return m.SizeMB * 1_000_000 }

// TypicalIter estimates the no-straggler iteration time at the given link
// bandwidth: compute plus streaming the gradients once through the network.
// The paper's straggler injector draws slowdowns relative to this value.
func (m Model) TypicalIter(linkBandwidth uint64) sim.Time {
	comm := sim.Time(uint64(m.Bytes()) * 8 * uint64(sim.Second) / linkBandwidth)
	return m.ComputeTime + comm
}

// Accuracy models top-5 validation accuracy after effIters effective
// full-gradient iterations: an exponential approach to accCeil calibrated so
// the curve crosses TargetAcc at BaseIters.
func (m Model) Accuracy(effIters float64) float64 {
	if effIters <= 0 {
		return m.accStart
	}
	r := math.Log((m.accCeil-m.accStart)/(m.accCeil-m.TargetAcc)) / float64(m.BaseIters)
	return m.accCeil - (m.accCeil-m.accStart)*math.Exp(-r*effIters)
}

// StatEfficiency maps the aggregated-gradient fraction of an iteration to
// its relative convergence progress. Dropping one worker's mini-batch
// shrinks the global batch; in the noise-dominated regime of large-batch
// ImageNet training the progress penalty is well under linear, so we model
// progress ∝ sqrt(fraction). (The paper observes Trio-ML reaching the same
// accuracy targets despite partial aggregation, i.e. a mild penalty.)
func StatEfficiency(gradFraction float64) float64 {
	if gradFraction <= 0 {
		return 0
	}
	if gradFraction >= 1 {
		return 1
	}
	return math.Sqrt(gradFraction)
}
