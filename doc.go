// Package triogo is a from-scratch Go reproduction of "Using Trio — Juniper
// Networks' Programmable Chipset — for Emerging In-Network Applications"
// (SIGCOMM 2022): a discrete-event model of the Trio chipset (multi-threaded
// run-to-completion Packet Processing Engines, a banked shared-memory system
// with read-modify-write engines, a hardware hash engine with REF flags, and
// timer threads), the Microcode programming environment of §3, the Trio-ML
// in-network aggregation application of §4, the timer-thread straggler
// mitigation of §5, a PISA/SwitchML baseline, and the training-workload
// harness that regenerates every table and figure of §6.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// substitution rationale, and EXPERIMENTS.md for paper-vs-measured results.
// The cmd/triobench binary regenerates each experiment as tables; the
// benchmark/ program (go run ./benchmark) measures the host cost of running
// them.
package triogo
