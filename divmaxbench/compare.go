package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every workload and end-to-end metric, each
// side's median and quartiles over its runs, the metric's bound and the
// verdict of judge. args are two files of -out result lines: the
// baseline's, then the change's. Runs that failed their checks are
// left out.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files: baseline, then change")
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-7s %s\n", "workload", "metric", "baseline median [q1, q3] (n)", "change median [q1, q3] (n)", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := base[wl.Name][m.Name], change[wl.Name][m.Name]
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			bound := fmt.Sprintf("%g%%", 100*m.Bound)
			if m.Floor > 0 {
				bound += fmt.Sprintf("|%g%s", m.Floor, m.Unit)
			}
			fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-7s %s\n", wl.Name, m.Name, describe(a), describe(b), bound, judge(m, a, b))
		}
	}
	return nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}

// readResults reads -out lines into workload → metric → values.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}
