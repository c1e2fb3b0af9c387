package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke builds divmaxd and runs every workload for about a second,
// traced, with every check on, so the benchmark cannot silently rot.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds divmaxd and runs every workload")
	}
	t.Chdir("..")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seconds", "1", "-trace", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Attempted == 0 || sum.Failed != 0 {
		t.Errorf("summary: correct %v, %d failed of %d attempted", sum.Correct, sum.Failed, sum.Attempted)
	}
	for _, w := range workloads {
		for _, m := range perLayer() {
			if _, ok := sum.Metrics[w.Name+"."+m.Name]; !ok {
				t.Errorf("%s: no %s", w.Name, m.Name)
			}
		}
	}
}
