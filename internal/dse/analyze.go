package dse

// Objective is one Pareto dimension: a metric name and its direction.
type Objective struct {
	Metric   string
	Maximize bool
}

// Pareto returns the non-dominated subset of results under objs, preserving
// trial order. A result dominates another when it is at least as good on
// every objective and strictly better on at least one; exact ties on all
// objectives keep both points. Trials with an Err or a missing objective
// metric are excluded.
func Pareto(results []Result, objs ...Objective) []Result {
	var cand []Result
	for _, r := range results {
		if r.Err != "" || r.Metrics == nil {
			continue
		}
		ok := true
		for _, o := range objs {
			if _, has := r.Metrics[o.Metric]; !has {
				ok = false
				break
			}
		}
		if ok {
			cand = append(cand, r)
		}
	}
	var out []Result
	for i, r := range cand {
		dominated := false
		for j, q := range cand {
			if i != j && dominates(q, r, objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

func dominates(a, b Result, objs []Objective) bool {
	better := false
	for _, o := range objs {
		av, bv := a.Metrics[o.Metric], b.Metrics[o.Metric]
		if !o.Maximize {
			av, bv = -av, -bv
		}
		if av < bv {
			return false
		}
		if av > bv {
			better = true
		}
	}
	return better
}
