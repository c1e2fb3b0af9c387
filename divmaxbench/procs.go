package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDivmaxd compiles ./cmd/divmaxd of the tree under test into the
// benchmark's build directory and returns the binary's path.
func buildDivmaxd(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "divmaxd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/divmaxd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building divmaxd: %w", err)
	}
	return bin, nil
}

// proc is one running divmaxd process on loopback.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// running tracks every started process, so a signal can stop them all.
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// startProc starts divmaxd with args on a free loopback port and waits
// until it answers /v1/healthz. Its output goes to name.log in dir.
func startProc(bin, dir, name string, args ...string) (*proc, error) {
	var lastErr error
	// A port found free can be taken before divmaxd binds it; retry then.
	for range 3 {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Killed with the benchmark, should it die first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
		go func() {
			cmd.Wait()
			logf.Close()
			close(p.done)
		}()
		running.Lock()
		running.procs[p] = true
		running.Unlock()
		if lastErr = p.waitReady(15 * time.Second); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, fmt.Errorf("%s did not become ready (see %s.log): %w", name, filepath.Join(dir, name), lastErr)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return errors.New("exited during start-up")
		default:
		}
		resp, err := hc.Get(p.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no answer within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM — divmaxd drains and exits — and waits for the
// exit, killing the process if the drain takes too long.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	running.Lock()
	ps := make([]*proc, 0, len(running.procs))
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// peakRSSKB reads the process's peak resident set size (VmHWM) in kB.
func (p *proc) peakRSSKB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// topology is the set of divmaxd processes one workload runs: a single
// server, or a coordinator over workers. Requests go to entry.
type topology struct {
	entry   *proc
	workers []*proc // the coordinator's workers; nil for a single server
}

// Server flags shared by the workloads and mirrored by the replay: they
// are passed explicitly so the benchmark does not follow default changes.
const (
	maxK        = 16
	kPrime      = 4 * maxK
	spares      = 2
	deltaBudget = 0.25
)

func serverFlags(shards int) []string {
	return []string{
		"-shards", strconv.Itoa(shards),
		"-maxk", strconv.Itoa(maxK),
		"-kprime", strconv.Itoa(kPrime),
		"-spares", strconv.Itoa(spares),
		"-delta-budget", strconv.FormatFloat(deltaBudget, 'g', -1, 64),
	}
}

func startSingle(e *env, extra ...string) (*topology, error) {
	p, err := startProc(e.bin, e.work, "divmaxd", append(serverFlags(2), extra...)...)
	if err != nil {
		return nil, err
	}
	return &topology{entry: p}, nil
}

func startCluster(e *env) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := range 2 {
		w, err := startProc(e.bin, e.work, fmt.Sprintf("worker%d", i), serverFlags(1)...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, w)
		urls = append(urls, w.url)
	}
	co, err := startProc(e.bin, e.work, "coordinator",
		"-coordinator", "-workers", strings.Join(urls, ","),
		"-maxk", strconv.Itoa(maxK),
		"-delta-budget", strconv.FormatFloat(deltaBudget, 'g', -1, 64))
	if err != nil {
		t.stop()
		return nil, err
	}
	t.entry = co
	return t, nil
}

func (t *topology) procs() []*proc {
	var ps []*proc
	if t.entry != nil {
		ps = append(ps, t.entry)
	}
	return append(ps, t.workers...)
}

// peakRSSMB sums the peak RSS of the topology's processes, in MB.
func (t *topology) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range t.procs() {
		v, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func (t *topology) stop() {
	for _, p := range t.procs() {
		p.stop()
	}
}
