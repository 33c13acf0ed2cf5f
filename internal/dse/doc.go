// Package dse is a declarative, parallel design-space exploration engine
// over the repository's deterministic simulators.
//
// The paper's evaluation reports single points in a large design space —
// gradients per packet, aggregation window, block timeout, RMW banking, and
// the Microcode program itself. dse turns those knobs into a first-class
// object:
//
//   - A Space names the swept axes and their candidate values, and
//     enumerates candidate Points as the full cross-product grid.
//   - An Executor runs one Runner call per point on a bounded worker pool.
//     Every trial is fully isolated (its own simulator rig) and receives a
//     seed derived purely from (sweep seed, trial index), so results are
//     bit-identical at any parallelism level.
//   - PruneByModel screens a grid through a cheap cost model before any
//     point is simulated.
//   - Pareto reduces a finished sweep to its non-dominated frontier.
//
// internal/harness runs its figure sweeps and the program-variant sweep
// (`triobench -exp progdse`) through the Executor (`triobench -parallel N`),
// and sweep progress exports through internal/obs (see OBSERVABILITY.md,
// `triogo_dse_*`).
package dse
