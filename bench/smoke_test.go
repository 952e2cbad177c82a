package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// smokeCorpusN is the reduced corpus-cold size the tests run.
const smokeCorpusN = 50

// smokeSize runs every workload for two operations at reduced size,
// with every check on.
func smokeSize(workload string) size {
	s := size{ops: 2, setups: 1, corpusN: smokeCorpusN, checkEvery: 1,
		warmN: 5, lightN: 20, heavyN: 20, saturateN: 20, searchSteps: 1, searchSec: 0.1}
	if workload == "served" {
		s.checkEvery = 10 // each checked tenant-B request is a cold measurement
	}
	return s
}

// TestWorkloadsSmoke runs each workload untraced and traced and checks
// that it passes its checks and reports every metric, end-to-end ones
// non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			out, err := execute(name, 1, smokeSize(name), traced, t.TempDir(), &buf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 2 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					name, traced, out.Correct, out.Attempted, out.Failed, buf.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%t: metric %s = %+v", name, traced, d.name, m)
				}
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s: last output line is not the JSON outcome: %v", name, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metric tables here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	for _, c := range []struct {
		json []metricJSON
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
