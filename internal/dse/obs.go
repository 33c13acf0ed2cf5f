package dse

import "github.com/trioml/triogo/internal/obs"

// obsInsts holds the executor's instruments. All fields stay nil until
// RegisterObs, and nil instruments no-op, so un-instrumented sweeps pay only
// a nil check per trial.
type obsInsts struct {
	started   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	busy      *obs.Gauge
	wall      *obs.Histogram
}

// RegisterObs attaches sweep-progress metrics to reg (documented in
// OBSERVABILITY.md): trials started/completed/failed, the
// busy-worker gauge, and the per-trial wall-time histogram. A nil registry
// leaves the executor un-instrumented.
func (e *Executor) RegisterObs(reg *obs.Registry) {
	e.insts.started = reg.Counter(obs.Desc{
		Name: "triogo_dse_trials_started_total", Unit: "trials",
		Help: "Trials handed to a worker",
	})
	e.insts.completed = reg.Counter(obs.Desc{
		Name: "triogo_dse_trials_completed_total", Unit: "trials",
		Help: "Trials whose runner returned without error",
	})
	e.insts.failed = reg.Counter(obs.Desc{
		Name: "triogo_dse_trials_failed_total", Unit: "trials",
		Help: "Trials whose runner returned an error (recorded in Result.Err, sweep continues)",
	})
	e.insts.busy = reg.Gauge(obs.Desc{
		Name: "triogo_dse_workers_busy", Unit: "workers",
		Help: "Workers currently executing a trial",
	})
	// Pre-registered at 0 so every sweep dump carries the clamp gauge; the
	// harness sets it when -trace/-metrics forces a serial sweep (its Gauge
	// call rebinds to this same instrument).
	reg.Gauge(obs.Desc{
		Name: "triogo_dse_workers_clamped", Unit: "workers",
		Help: "Requested sweep workers discarded by the -trace/-metrics serialization clamp.",
	})
	// 0.5 ms .. ~16 s: quick-mode trials land in the low milliseconds,
	// paper-scale chaos/training trials in whole seconds.
	e.insts.wall = reg.Histogram(obs.Desc{
		Name: "triogo_dse_trial_wall_seconds", Unit: "seconds",
		Help: "Wall-clock time per trial (host time, not virtual time)",
	}, obs.ExpBuckets(0.0005, 2, 15))
}
