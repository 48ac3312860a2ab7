package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
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

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: seed, seconds: 0.3, trace: trace, tiny: true, work: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return rep
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// checks that each run passes its output checks and emits every metric
// BENCHMARK.json names for that mode, with the declared unit.
func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads or metrics")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w.Name, 7, trace)
			line := rep.result(trace)
			if !line.Correct || line.Failed != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w.Name, trace, line.Failed, line.Attempted, rep.tally.errs())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s not emitted", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace %v): emitted %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), len(want))
			}
		}
	}
}

// TestExactCountsRepeat checks that the counts the benchmark reports as
// exact come out identical from two runs with the same seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
		metrics  []string
	}{
		{"crossover", true, []string{"pages_read_per_query", "core.plans_considered"}},
		{"ingest", false, []string{"disk_bytes_per_row"}},
	} {
		a := tinyRun(t, c.workload, 11, c.trace)
		b := tinyRun(t, c.workload, 11, c.trace)
		for _, m := range c.metrics {
			if a.metrics[m] == 0 || a.metrics[m] != b.metrics[m] {
				t.Errorf("%s %s: %v then %v, want equal and non-zero", c.workload, m, a.metrics[m], b.metrics[m])
			}
		}
	}
}

func TestOpClass(t *testing.T) {
	for label, want := range map[string]string{
		"Scan emp AS e1 filter=e1.age < 20":  "scan",
		"Join[hash] on e.dno = d.dno":        "hash-join",
		"Join[left outer block-nl] on a = b": "block-nl-join",
		"Join[index-nl] on a = b":            "index-nl-join",
		"GroupBy[sort] by e.dno":             "sort-groupby",
		"GroupBy[hash] (scalar)":             "hash-groupby",
		"Sort by e.dno":                      "sort",
		"Project e1.sal AS sal":              "other",
	} {
		if got := opClass(label); got != want {
			t.Errorf("opClass(%q) = %q, want %q", label, got, want)
		}
	}
}
