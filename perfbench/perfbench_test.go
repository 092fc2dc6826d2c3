package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the self-tests hold the code to.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke runs one workload at tiny scale.
func smoke(t *testing.T, workload string, trace bool, corrupt *tamper) *result {
	t.Helper()
	res, err := execute(options{
		workload: workload,
		seed:     7,
		seconds:  time.Second,
		trace:    trace,
		checkout: t.TempDir(),
		tiny:     true,
		corrupt:  corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestEveryDeclaredMetricIsEmittedWithItsUnit(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := smoke(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", w.Name, trace, name, m.Unit, unit)
				}
			}
		}
	}
}

func TestSwappedRowFailsTheRun(t *testing.T) {
	for _, w := range []string{"envnr-auto", "pokec-hybrid-ooc"} {
		res := smoke(t, w, false, &tamper{swapRow: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a swapped row passed the gate (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestChangedChecksumFailsTheRun(t *testing.T) {
	res := smoke(t, "papard-mixed", false, &tamper{flipChecksum: true})
	if res.Correct || res.Failed == 0 {
		t.Errorf("a changed job checksum passed the gate (correct=%v failed=%d)", res.Correct, res.Failed)
	}
}
