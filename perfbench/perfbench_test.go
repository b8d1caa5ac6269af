package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricEmitted runs every workload on tiny inputs, untraced and
// traced, and checks that the result object carries exactly the metrics
// BENCHMARK.json declares, each finite and with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not implemented", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, _, err := execute(w.Name, drive, 7, 300*time.Millisecond, 0.3, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 && m.Name != "trace.overhead_frac":
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	var s []time.Duration
	for k := 1; k <= 100; k++ {
		s = append(s, time.Duration(k))
	}
	got, pct := tail(s)
	if got != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", got, pct)
	}
	if got, pct := tail(s[:20]); got != median(s[:20]) || pct != 50 {
		t.Errorf("tail of 20 samples = %v at p%v, want the median", got, pct)
	}
}
