package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestMetricNamesAndBenchmarkFile checks the metric-name grammar and keeps
// the metric tables and workload list in step with BENCHMARK.json.
func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind string, defs []metricDef, file []benchMetric) {
		if len(defs) != len(file) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: bad unit %q for %s", kind, d.unit, d.name)
			}
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit {
				t.Errorf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, f.Name, f.Unit)
			}
			if f.Better != "lower" && f.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, f.Name, f.Better)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)

	var setupBound, maxOther float64
	for _, m := range bf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v not in (0, 0.25]", m.Name, m.Bound)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		} else if *m.Bound > maxOther {
			maxOther = *m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}
	for _, m := range bf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per_layer %s has a bound", m.Name)
		}
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q", i, w.name, bf.Workloads[i].Name)
		}
		if n := len(bf.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
}
