// Command divmaxbench is divmaxd's end-to-end benchmark. It builds
// ./cmd/divmaxd from the tree under test, starts real divmaxd processes
// on loopback, drives four workloads against them from seeded,
// pre-encoded inputs, checks every answer, and prints every metric by
// name with its unit. With -trace 1 it then replays each workload's
// exact request sequence in-process, timing the calls into each layer,
// and prints the per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash divmaxbench/run.sh                                  # every workload, traced
//	bash divmaxbench/run.sh -workload churn_d128 -seed 7 -seconds 10 -trace 0
//	bash divmaxbench/run.sh -compare base.jsonl change.jsonl # judge two sets of runs
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics with -trace 0 and the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, under the repository
// root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are a run's flags.
type options struct {
	seed     uint64
	secs     float64
	trace    bool
	traceOut string
}

// result is one workload run's full result, the line -out appends.
type result struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Problems    []string         `json:"problems,omitempty"`
	Fingerprint fingerprint      `json:"fingerprint"`
	WALOnTmpfs  *bool            `json:"wal_on_tmpfs,omitempty"`
	Metrics     map[string]value `json:"metrics"`
	Layers      map[string]value `json:"layers,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("divmaxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of each workload's measured window, in seconds")
	traceFlag := fs.Int("trace", 1, "1: after the end-to-end run, replay it traced and print the per-layer metrics; 0: print the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "trace-event JSON file for the replay's spans (default "+buildDir+"/trace-<workload>.json)")
	outFile := fs.String("out", "", "append each workload's full result as a JSON line to this file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, the baseline's first")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "divmaxbench:", err)
		return 2
	}
	if *compare {
		if err := compareFiles(fs.Args(), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(errors.New("-trace must be 0 or 1"))
	}
	if !(*seconds > 0) {
		return fail(errors.New("-seconds must be positive"))
	}
	ws := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		ws = []workloadSpec{w}
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sig:
			stopAll()
			os.Exit(130)
		case <-finished:
		}
	}()

	bin, err := buildDivmaxd(root)
	if err != nil {
		return fail(err)
	}
	fp := takeFingerprint(root)
	fmt.Fprintf(stdout, "fingerprint: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.CPU, fp.Commit)
	opts := options{seed: *seed, secs: *seconds, trace: *traceFlag == 1, traceOut: *traceOut}
	last := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		fmt.Fprintf(stdout, "== %s (seed %d, %gs window)\n", w.Name, opts.seed, opts.secs)
		res, err := runWorkload(root, bin, w, opts, stdout)
		if err != nil {
			stopAll()
			fmt.Fprintf(stderr, "divmaxbench: %s: %v\n", w.Name, err)
			return 1
		}
		res.Fingerprint = fp
		if *outFile != "" {
			if err := appendResult(*outFile, res); err != nil {
				return fail(err)
			}
		}
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		ms := res.Metrics
		if opts.trace {
			ms = res.Layers
		}
		for name, v := range ms {
			if len(ws) > 1 {
				name = w.Name + "." + name
			}
			last.Metrics[name] = v
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w end to end and, with tracing, replays it.
func runWorkload(root, bin string, w workloadSpec, opts options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{work: work, bin: bin, seed: opts.seed, secs: opts.secs}
	out, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%w (server logs in %s)", err, work)
	}
	res := &result{Workload: w.Name, Seed: opts.seed, Seconds: opts.secs, Metrics: e2eMetrics(out)}
	res.Attempted, res.Failed = out.tally.totals()
	if out.walFsync != "" {
		res.WALOnTmpfs = &out.walOnTmpfs
	}
	printE2E(stdout, out, res.Metrics)
	if opts.trace {
		t0 := time.Now()
		traced, plain, err := replay(e, out)
		if err != nil {
			out.problem("replay: %v", err)
		} else {
			res.Layers = layerMetrics(out, traced, plain)
			path := opts.traceOut
			if path == "" {
				path = filepath.Join(root, buildDir, "trace-"+w.Name+".json")
			}
			if err := writeTrace(path, traced.spans); err != nil {
				return nil, fmt.Errorf("writing the trace: %w", err)
			}
			fmt.Fprintf(stdout, "  traced replay of %d ops in %.1fs; spans in %s\n", traced.replayed, time.Since(t0).Seconds(), path)
			printLayers(stdout, res.Layers)
		}
	}
	res.Problems = out.problems
	res.Correct = len(out.problems) == 0 && res.Failed == 0
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
	}
	if res.Correct {
		os.RemoveAll(work)
	} else {
		fmt.Fprintf(stdout, "  server logs kept in %s\n", work)
	}
	return res, nil
}

// replay runs the replay twice on fresh state: untraced, stopping the
// load once a window's worth of it has run, then traced over exactly
// the same ops. The difference between the two is the tracing overhead.
func replay(e *env, out *outcome) (traced, plain *replayOut, err error) {
	plain = &replayOut{}
	cut, err := replayOnce(e, out, newTracer(false), plain, -1)
	if err != nil {
		return nil, nil, err
	}
	traced = &replayOut{}
	tr := newTracer(true)
	if _, err := replayOnce(e, out, tr, traced, cut); err != nil {
		return nil, nil, err
	}
	traced.spans = tr.spans
	// A replay of the whole sequence must also have made the decisions
	// /v1/stats counted.
	if st := out.stats; out.seq.fidelity && cut == out.seq.readback &&
		(traced.hits != st.CacheHits || traced.patches != st.DeltaPatches || traced.rebuilds != st.FullRebuilds) {
		return nil, nil, fmt.Errorf("replay decided %d cached, %d patched, %d rebuilt; /v1/stats counts %d, %d, %d",
			traced.hits, traced.patches, traced.rebuilds, st.CacheHits, st.DeltaPatches, st.FullRebuilds)
	}
	return traced, plain, nil
}

// replayBudget caps the replayed time of the measured ops before the
// read-back phase: one window, at most maxReplay.
func replayBudget(e *env) time.Duration { return min(e.window(), maxReplay) }

const maxReplay = 10 * time.Second

func replayOnce(e *env, out *outcome, tr *tracer, res *replayOut, cut int) (int, error) {
	runtime.GC()
	if out.cluster {
		top, err := startCluster(e)
		if err != nil {
			return cut, err
		}
		defer top.stop()
		var urls []string
		for _, w := range top.workers {
			urls = append(urls, w.url)
		}
		r := newClusterReplay(tr, res, top.entry.url, urls)
		defer r.close()
		return replayPass(out.seq, r, tr, res, replayBudget(e), cut)
	}
	walDir := ""
	if out.walFsync != "" {
		var err error
		if walDir, err = os.MkdirTemp(e.work, "replay-wal-"); err != nil {
			return cut, err
		}
		defer os.RemoveAll(walDir)
	}
	r, err := newLocalReplay(tr, res, walDir, out.walFsync)
	if err != nil {
		return cut, err
	}
	cut, err = replayPass(out.seq, r, tr, res, replayBudget(e), cut)
	return cut, errors.Join(err, r.close())
}

// findRoot returns the working directory, which must be the root of the
// repository under test.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "cmd", "divmaxd", "main.go")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	return wd, nil
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
