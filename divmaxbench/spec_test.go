package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is BENCHMARK.json: exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

// BENCHMARK.json states this package's tables, within the limits tools
// reading it rely on.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Paths, []string{"divmaxbench"}) || !slices.Equal(f.Command, []string{"bash", "divmaxbench/run.sh"}) {
		t.Errorf("paths %q, command %q", f.Paths, f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", f.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q %q; want %q %q (at most 200 characters)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v; want %+v", i, m, s)
		}
	}
	setup, _ := findMetric("setup_s")
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s's bound %v exceeds setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}

	want := perLayer()
	if len(f.PerLayer) != len(want) || len(want) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(f.PerLayer), len(want))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		if m != want[i] || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: %+v; want %+v", i, m, want[i])
		}
	}
}
