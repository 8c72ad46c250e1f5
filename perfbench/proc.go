package main

import (
	"context"
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

// Child processes. Every process the benchmark starts is started here,
// directly with os/exec (never through a shell), in its own process
// group and with Pdeathsig SIGKILL, so that:
//
//   - a signal aimed at the benchmark's own group (Ctrl-C) does not
//     reach the servers before the benchmark tears them down in order;
//   - if the benchmark itself is SIGKILLed, the kernel kills every
//     child at once — nothing outlives the run.
//
// Pdeathsig fires when the OS thread that forked the child exits. The
// Go runtime only retires threads whose goroutine exited while locked
// to them, which this program never does.
//
// Every child has one goroutine blocked in Wait, so it is reaped as
// soon as it exits and is never left a zombie, and stop signals a group
// only while that Wait has not returned.

// proc is one started child.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	started time.Time
	done    chan struct{} // closed once Wait returned
	waitErr error         // valid after done is closed
}

// exited reports whether the child has exited (and been reaped).
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the last bytes the child wrote to stdout/stderr.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	const max = 2048
	if len(b) > max {
		b = b[len(b)-max:]
	}
	return strings.TrimSpace(string(b))
}

// exitError describes how the child ended, with its last output.
func (p *proc) exitError() error {
	return fmt.Errorf("%s exited early (%v): %s", p.name, p.waitErr, p.logTail())
}

// supervisor owns every child of the run.
type supervisor struct {
	logDir string

	mu     sync.Mutex
	procs  []*proc
	closed bool // set by stopAll: nothing may start after teardown
}

func newSupervisor(logDir string) *supervisor { return &supervisor{logDir: logDir} }

// start launches bin with args as a supervised child.
func (s *supervisor) start(name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(s.logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("run is shutting down")
	}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s.procs = append(s.procs, p)
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// run starts a child and waits for it to finish, failing on a nonzero
// exit, and returns the CPU time it used; ctx cancellation stops it
// like any other child.
func (s *supervisor) run(ctx context.Context, name, bin string, args ...string) (time.Duration, error) {
	p, err := s.start(name, bin, args...)
	if err != nil {
		return 0, err
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		s.stop(p)
		return 0, fmt.Errorf("%s: %w", name, ctx.Err())
	}
	if p.waitErr != nil {
		return 0, fmt.Errorf("%s failed (%v): %s", name, p.waitErr, p.logTail())
	}
	// The kernel splits a reaped child's scheduler run time between
	// user and system; their sum is that run time, as exact as cpuTime.
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime(), nil
}

// stopGrace is how long a child gets between SIGTERM and SIGKILL.
const stopGrace = 3 * time.Second

// stop ends the given children and drops them from the run's list.
func (s *supervisor) stop(procs ...*proc) {
	stopProcs(procs)
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.procs[:0]
	for _, p := range s.procs {
		if !p.exited() {
			kept = append(kept, p)
		}
	}
	s.procs = kept
}

// stopAll ends every child of the run, returns once each is reaped,
// and refuses any later start.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.closed = true
	s.mu.Unlock()
	stopProcs(procs)
}

// stopProcs sends SIGTERM to every live child's group, SIGKILL to the
// groups still alive after stopGrace, and waits until all are reaped.
func stopProcs(procs []*proc) {
	signalAll := func(sig syscall.Signal) {
		for _, p := range procs {
			if !p.exited() {
				_ = syscall.Kill(-p.cmd.Process.Pid, sig)
			}
		}
	}
	signalAll(syscall.SIGTERM)
	deadline := time.After(stopGrace)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			signalAll(syscall.SIGKILL)
			deadline = nil
			<-p.done
		}
	}
}

// freePorts reserves n distinct loopback ports by binding them all at
// once, then releases them for the children to bind. A port taken in
// between makes that child exit with a bind error, or leaves its
// listening socket someone else's; set-up fails on either instead of
// measuring some other server.
func freePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// probe is one readiness condition: a request that must answer 200.
type probe struct {
	method, path string
	body         []byte
}

// readyTimeout bounds how long one server may take to become ready.
const readyTimeout = 30 * time.Second

// waitReady polls base until every probe answers 200, failing as soon
// as the child exits, readyTimeout passes or ctx ends.
func waitReady(ctx context.Context, p *proc, base string, probes []probe) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	c := newConn(ctx, base)
	defer c.close()
	for _, pr := range probes {
		var last string
		for {
			if p.exited() {
				return p.exitError()
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("waiting for %s %s%s (last answer: %s): %w", p.name, pr.method, pr.path, last, err)
			}
			status, body, err := c.do(pr.method, pr.path, pr.body)
			if err == nil && status == http.StatusOK {
				break
			}
			last = fmt.Sprintf("%d %.200s %v", status, body, err)
			select {
			case <-ctx.Done():
			case <-p.done:
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// checkOwnsPort fails unless the child itself holds the listening
// socket on the loopback port: a readiness answer proves only that
// something answers there, and a stale server left by another run
// would answer too.
func checkOwnsPort(p *proc, port int) error {
	inode, err := listenInode(port)
	if err != nil {
		return err
	}
	fdDir := fmt.Sprintf("/proc/%d/fd", p.cmd.Process.Pid)
	fds, err := os.ReadDir(fdDir)
	if err != nil {
		return err
	}
	want := fmt.Sprintf("socket:[%s]", inode)
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join(fdDir, fd.Name())); err == nil && target == want {
			return nil
		}
	}
	if p.exited() {
		return p.exitError()
	}
	return fmt.Errorf("port %d is held by another process, not by %s (pid %d)", port, p.name, p.cmd.Process.Pid)
}

// listenInode returns the socket inode listening on 127.0.0.1:port.
func listenInode(port int) (string, error) {
	b, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		return "", err
	}
	local := fmt.Sprintf("0100007F:%04X", port)
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		// sl local_address rem_address st tx:rx tr:tm retrnsmt uid timeout inode
		if len(f) >= 10 && f[1] == local && f[3] == "0A" {
			return f[9], nil
		}
	}
	return "", fmt.Errorf("nothing listens on 127.0.0.1:%d", port)
}

// cpuTime returns the CPU time the process's threads have run, summed
// from each thread's /proc/<pid>/task/<tid>/schedstat, the scheduler's
// own nanosecond count. The utime and stime of /proc/<pid>/stat are
// charged a whole 10 ms tick to whatever runs when the tick fires,
// which on a kernel with tick-based accounting samples a server's
// sub-millisecond requests too coarsely to compare two runs. A server
// thread that exits between two readings would take its time with it;
// dpserve's threads live as long as the process.
func cpuTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for thread %s of %d", t.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of thread %s of %d: %w", t.Name(), pid, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// hostTicks returns the machine's steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran something else while
// this machine's CPUs had work: it slows every latency, and says so.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuOf sums cpuTime over procs.
func cpuOf(procs []*proc) (time.Duration, error) {
	var t time.Duration
	for _, p := range procs {
		c, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		t += c
	}
	return t, nil
}
