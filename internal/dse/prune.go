package dse

import "fmt"

// Multi-fidelity pruning: before spending full-simulation trials, score
// every candidate point with a cheap model and keep only the points on (or
// within a slack band of) the model's Pareto frontier. A microcode
// program's cost, read off one run of it with no simulator, is the
// motivating first fidelity — see harness's progdse experiment — but the
// helper is generic: any deterministic CostFn over a point's parameters
// works.

// CostFn scores one candidate point without simulating it. It must be a
// pure function of the parameters so pruning is deterministic.
type CostFn func(p Point) (map[string]float64, error)

// Pruned is the outcome of a model-based pruning pass.
type Pruned struct {
	// Points are the surviving candidates, re-indexed 0..len-1 so they can
	// feed Executor.Run directly.
	Points []Point
	// Original maps each surviving point to its index in the input slice.
	Original []int
	// Estimates holds one model Result per input point in input order —
	// the full low-fidelity sweep, for reporting prune decisions.
	Estimates []Result
}

// Kept reports the surviving fraction.
func (pr Pruned) Kept() float64 {
	if len(pr.Estimates) == 0 {
		return 0
	}
	return float64(len(pr.Points)) / float64(len(pr.Estimates))
}

// PruneByModel evaluates model over points and returns the candidates not
// slack-dominated on objs. A point is pruned when some other point is at
// least as good on every objective and strictly better on at least one,
// even after the point's own metrics are improved by the slack fraction
// (slack 0 keeps exactly the model Pareto frontier; slack 0.1 also keeps
// everything within 10% of it, hedging against model error). Ties keep
// both points, so the survivor set is never empty.
func PruneByModel(points []Point, model CostFn, slack float64, objs ...Objective) (Pruned, error) {
	if slack < 0 {
		return Pruned{}, fmt.Errorf("dse: negative prune slack %v", slack)
	}
	if len(objs) == 0 {
		return Pruned{}, fmt.Errorf("dse: pruning needs at least one objective")
	}
	est := make([]Result, len(points))
	for i, p := range points {
		m, err := model(p)
		if err != nil {
			return Pruned{}, fmt.Errorf("dse: cost model on point %d: %w", p.Index, err)
		}
		for _, o := range objs {
			if _, ok := m[o.Metric]; !ok {
				return Pruned{}, fmt.Errorf("dse: cost model on point %d missing objective %q", p.Index, o.Metric)
			}
		}
		est[i] = Result{Trial: p.Index, Params: p.Params, Metrics: m}
	}
	var out Pruned
	out.Estimates = est
	for i, r := range est {
		pruned := false
		for j, q := range est {
			if i != j && slackDominates(q, r, slack, objs) {
				pruned = true
				break
			}
		}
		if !pruned {
			p := points[i]
			p.Index = len(out.Points)
			out.Points = append(out.Points, p)
			out.Original = append(out.Original, i)
		}
	}
	return out, nil
}

// slackDominates reports whether q prunes r: q must dominate r outright
// (at least as good everywhere, strictly better somewhere) AND its margin
// over r must exceed the slack fraction on at least one objective. A
// dominated point whose every deficit is within slack stays — it is close
// enough to the frontier that model error could flip the verdict.
func slackDominates(q, r Result, slack float64, objs []Objective) bool {
	if !dominates(q, r, objs) {
		return false
	}
	if slack == 0 {
		return true
	}
	for _, o := range objs {
		qv, rv := q.Metrics[o.Metric], r.Metrics[o.Metric]
		margin := slack * rv
		if margin < 0 {
			margin = -margin
		}
		if o.Maximize {
			if qv > rv+margin {
				return true
			}
		} else if qv < rv-margin {
			return true
		}
	}
	return false
}
