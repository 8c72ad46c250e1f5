package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests run the real benchmark binary against real dpserve
// processes, on the workloads' full 1M-point dataset.

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// binaries builds dpgrid, dpserve and the benchmark once per test run.
func binaries(t *testing.T) string {
	t.Helper()
	if _, err := os.Stat(filepath.Join(binDir, "perfbench")); err == nil {
		return binDir
	}
	for _, b := range []struct{ dir, out string }{
		{"..", binDir + "/"},
		{".", filepath.Join(binDir, "perfbench")},
	} {
		args := []string{"build", "-o", b.out}
		if b.dir == ".." {
			args = append(args, "./cmd/dpgrid", "./cmd/dpserve")
		} else {
			args = append(args, ".")
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return binDir
}

// startBench starts the benchmark with its own work directory,
// returning the command and a reader of its stderr.
func startBench(t *testing.T, args ...string) (*exec.Cmd, *bufio.Scanner, *bytes.Buffer, string) {
	t.Helper()
	bin := binaries(t)
	root := t.TempDir()
	work := filepath.Join(root, "work")
	cmd := exec.Command(filepath.Join(bin, "perfbench"), append([]string{
		"-root", root, "-bin", bin, "-work", work, "-seed", "3"}, args...)...)
	stdout := &bytes.Buffer{}
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, bufio.NewScanner(stderr), stdout, work
}

// waitFor reads stderr lines until one contains want.
func waitFor(t *testing.T, sc *bufio.Scanner, want string) {
	t.Helper()
	for sc.Scan() {
		if strings.Contains(sc.Text(), want) {
			return
		}
	}
	t.Fatalf("benchmark ended before printing %q", want)
}

// childrenOf lists the pids of processes other than the benchmark whose
// command line mentions the run's work directory: every dpserve and
// dpgrid the run started.
func childrenOf(t *testing.T, work string, bench int) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err == nil && pid != bench && bytes.Contains(cmdline, []byte(work)) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// procState returns a process's state letter ('Z' for a zombie), or 0
// once it no longer exists.
func procState(pid int) byte {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 || i+2 >= len(b) {
		return 0
	}
	return b[i+2]
}

// becomeSubreaper makes orphans of this test's descendants reparent to
// the test process instead of init, so the test can see whether they
// are left running or as zombies.
func becomeSubreaper(t *testing.T) {
	t.Helper()
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		t.Skipf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
	}
}

func TestKilledBenchmarkLeavesNoChild(t *testing.T) {
	becomeSubreaper(t)
	cmd, sc, _, work := startBench(t, "-workload", "node-point", "-seconds", "60")
	waitFor(t, sc, "timed phase")
	pids := childrenOf(t, work, cmd.Process.Pid)
	if len(pids) == 0 {
		t.Fatal("found no dpserve of the run")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Pdeathsig kills every child with the benchmark; as the subreaper the
	// test then reaps them. A child that survived stays running.
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for {
			st := procState(pid)
			if st == 'Z' {
				var ws syscall.WaitStatus
				syscall.Wait4(pid, &ws, 0, nil)
				continue
			}
			if st == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("child %d still in state %c after the benchmark was killed", pid, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func TestSignalledBenchmarkStopsAndReapsChildren(t *testing.T) {
	becomeSubreaper(t)
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		cmd, sc, stdout, work := startBench(t, "-workload", "cluster-scatter", "-seconds", "60")
		waitFor(t, sc, "timed phase")
		pids := childrenOf(t, work, cmd.Process.Pid)
		if len(pids) != 4 {
			t.Fatalf("%v: found %d processes of the run, want a router and 3 backends", sig, len(pids))
		}
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		go func() {
			for sc.Scan() { // drain stderr so the benchmark never blocks on it
			}
		}()
		err := cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: benchmark exit %v, want code 1", sig, err)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: an interrupted run printed a result", sig)
		}
		// The benchmark reaps its own children before it exits: none may be
		// left running, nor as a zombie reparented to the test.
		for _, pid := range pids {
			if st := procState(pid); st != 0 {
				t.Errorf("%v: child %d left in state %c", sig, pid, st)
			}
		}
		if _, err := os.Stat(work); !os.IsNotExist(err) {
			t.Errorf("%v: work directory left behind (%v)", sig, err)
		}
	}
}

// runBench runs the benchmark to completion and decodes its last line.
func runBench(t *testing.T, args ...string) (*result, int, string) {
	t.Helper()
	cmd, sc, stdout, work := startBench(t, args...)
	var log strings.Builder
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
	}
	err := cmd.Wait()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(work); !os.IsNotExist(err) {
		t.Errorf("work directory left behind (%v)", err)
	}
	log.WriteString(stdout.String())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, code, log.String()
	}
	return &res, code, log.String()
}

func TestCorruptReferenceFailsRun(t *testing.T) {
	res, code, log := runBench(t, "-workload", "node-point", "-seconds", "1", "-corrupt-ref")
	if code == 0 || res == nil || res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted reference: exit %d, result %+v\n%s", code, res, log)
	}
	if !strings.Contains(log, "reference") {
		t.Errorf("failure does not name the mismatch:\n%s", log)
	}
}

func TestRunReportsEveryEndToEndMetric(t *testing.T) {
	res, code, log := runBench(t, "-workload", "node-point", "-seconds", "1")
	if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, log)
	}
	for _, m := range endToEnd {
		if got, ok := res.Metrics[m[0]]; !ok || got.Value <= 0 || got.Unit != m[1] {
			t.Errorf("metric %s = %+v", m[0], got)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	for _, name := range []string{"query_p50_ms", "query_p99_ms", "failed_frac"} {
		if !strings.Contains(log, name) {
			t.Errorf("output does not print %s", name)
		}
	}
}

func TestStaleServerOnThePortFailsSetUp(t *testing.T) {
	bin := binaries(t)
	// A stale server holds the port the child is told to bind, and
	// answers 200 to everything, the run-unique name included.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	port := l.Addr().(*net.TCPAddr).Port

	e := newEnv(config{bin: bin, work: t.TempDir()}, newSupervisor(t.TempDir()))
	defer e.sup.stopAll()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, _, err = e.startServer(ctx, "node", port, nil, nil, nil)
	if err == nil {
		t.Fatal("set-up accepted a server the run did not start")
	}
	if !strings.Contains(err.Error(), "address already in use") && !strings.Contains(err.Error(), "held by another process") {
		t.Errorf("error does not report the stolen port: %v", err)
	}
}

func TestOwnedPortPassesCheck(t *testing.T) {
	bin := binaries(t)
	ports, err := freePorts(1)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(config{bin: bin, work: t.TempDir()}, newSupervisor(t.TempDir()))
	defer e.sup.stopAll()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	p, _, err := e.startServer(ctx, "node", ports[0], nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOwnsPort(p, ports[0]); err != nil {
		t.Error(err)
	}
	e.sup.stopAll()
	if !p.exited() {
		t.Error("stopAll returned before the child was reaped")
	}
}
