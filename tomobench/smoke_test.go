package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each named metric is printed with a unit (idle layers say
// so), that the correctness oracle passes and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start real servers")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := options{workload: w.name, seed: 7, seconds: 2, trace: trace, smoke: true, outDir: t.TempDir()}
				res, err := run(context.Background(), o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct {
					t.Fatalf("oracle failed:\n%s", out.String())
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("error_rate: %d of %d operations failed", res.Failed, res.Attempted)
				}
				inJSON := jsonMetrics(trace)
				printed := inJSON
				if !trace {
					printed = append(append([]metricSpec(nil), endToEnd...), humanOnly...)
				}
				for _, m := range printed {
					re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + ` `)
					if !re.MatchString(out.String()) {
						t.Errorf("metric %s [%s] not printed:\n%s", m.name, m.unit, out.String())
					}
				}
				for _, m := range inJSON {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("JSON line lacks %s [%s]", m.name, m.unit)
					}
				}
				if len(res.Metrics) != len(inJSON) {
					t.Errorf("JSON line has %d metrics, want %d", len(res.Metrics), len(inJSON))
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s] %s, program %s [%s] %s", i, m.Name, m.Unit, m.Better, lm.name, lm.unit, lm.better)
		}
	}
}
