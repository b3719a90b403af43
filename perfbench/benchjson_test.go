package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json must name exactly the metrics the program reports, with
// the same units, in the same order.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end names %v, program reports %v", e2e, endToEndNames)
	}
	var want strings.Builder
	for i, m := range perLayerSpec {
		sep := ","
		if i == len(perLayerSpec)-1 {
			sep = ""
		}
		fmt.Fprintf(&want, "    {\"name\": %q, \"unit\": %q, \"better\": %q}%s\n", m.name, m.unit, m.better, sep)
	}
	var got strings.Builder
	for i, m := range spec.PerLayer {
		sep := ","
		if i == len(spec.PerLayer)-1 {
			sep = ""
		}
		fmt.Fprintf(&got, "    {\"name\": %q, \"unit\": %q, \"better\": %q}%s\n", m.Name, m.Unit, m.Better, sep)
	}
	if got.String() != want.String() {
		t.Errorf("per_layer differs from the program's metrics; the program reports:\n%s", want.String())
	}
}
