package dse

import "testing"

func mkResult(trial int, params, metrics map[string]float64) Result {
	return Result{Trial: trial, Params: params, Metrics: metrics}
}

func TestParetoFrontier(t *testing.T) {
	// Maximize rate, minimize cost. (2) dominates (1); (3) trades off; a
	// failed trial and one missing a metric never qualify.
	results := []Result{
		mkResult(0, map[string]float64{"a": 1}, map[string]float64{"rate": 10, "cost": 5}),
		mkResult(1, map[string]float64{"a": 2}, map[string]float64{"rate": 8, "cost": 5}),
		mkResult(2, map[string]float64{"a": 3}, map[string]float64{"rate": 12, "cost": 9}),
		{Trial: 3, Err: "boom"},
		mkResult(4, map[string]float64{"a": 5}, map[string]float64{"rate": 99}),
	}
	front := Pareto(results,
		Objective{Metric: "rate", Maximize: true},
		Objective{Metric: "cost", Maximize: false},
	)
	if len(front) != 2 || front[0].Trial != 0 || front[1].Trial != 2 {
		t.Fatalf("front = %+v", front)
	}
}

func TestParetoKeepsExactTies(t *testing.T) {
	results := []Result{
		mkResult(0, nil, map[string]float64{"rate": 10}),
		mkResult(1, nil, map[string]float64{"rate": 10}),
	}
	if front := Pareto(results, Objective{Metric: "rate", Maximize: true}); len(front) != 2 {
		t.Fatalf("tied points dropped: %+v", front)
	}
}
