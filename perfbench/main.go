// Command perfbench is the repository's benchmark. For one workload it
// builds the releases with the real dpgrid CLI, serves them from real
// dpserve processes it starts and stops itself, drives them open-loop
// from this one process, checks every answer against references
// computed in process, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds this
// program and the binaries it drives from the checkout's source:
//
//	bash perfbench/run.sh --workload node-point --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads, the
// metrics and their bounds, and why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	root    string // checkout root
	bin     string // directory holding the dpgrid and dpserve binaries
	work    string // per-run work directory, removed at exit
	sweep   string // where runs killed before teardown left theirs; "" for none
	// corruptRef perturbs one reference answer by one ulp before the
	// timed phase, so the answer check must fail the run.
	corruptRef bool
}

// runDeadline bounds a whole run; past it the run fails and tears down.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A spare processor per connection: open-loop workers sleep in a
	// blocking syscall and must not starve the rest of the program.
	runtime.GOMAXPROCS(runtime.NumCPU() + maxConns())
	// No collection cycles while measuring: a mark phase would compete
	// with the connections for the CPUs and stall the schedule. The
	// limit bounds the heap instead, and openLoop collects before it
	// starts.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// A reader that went away must not kill the run before teardown: a
	// write to a closed stdout or stderr then fails instead.
	signal.Ignore(syscall.SIGPIPE)

	if cfg.sweep != "" {
		sweepDeadRuns(cfg.sweep)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	sup := newSupervisor(cfg.work)
	// Deferred calls also run while a panic unwinds this goroutine, so
	// every exit path of the run reaps its children here.
	defer sup.stopAll()

	var res *result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, sup)
	} else {
		res, err = runTimed(ctx, cfg, sup)
	}
	sup.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed for the dataset and the request stream")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: run the traced per-layer measurement instead of the end-to-end one")
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bin", "", "directory with the dpgrid and dpserve binaries (default <root>/.bench_build/bin)")
	work := fs.String("work", "", "work directory for this run, removed at exit (default under <root>/.bench_build/runs)")
	corrupt := fs.Bool("corrupt-ref", false, "self-test: corrupt one reference answer; the run must then fail")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds < 1 {
		return config{}, errors.New("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("-trace must be 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return config{}, err
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: absRoot, bin: *bin, work: *work, corruptRef: *corrupt,
	}
	if cfg.bin == "" {
		cfg.bin = filepath.Join(absRoot, ".bench_build", "bin")
	}
	if cfg.work == "" {
		cfg.sweep = filepath.Join(absRoot, ".bench_build", "runs")
		cfg.work = filepath.Join(cfg.sweep, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	}
	return cfg, nil
}

// sweepDeadRuns removes the work directories, named <...>-<pid>, that
// runs killed before their teardown left in dir.
func sweepDeadRuns(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return // nothing to sweep
	}
	for _, e := range ents {
		i := strings.LastIndexByte(e.Name(), '-')
		pid, err := strconv.Atoi(e.Name()[i+1:])
		if err != nil {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric and prints it by name with its unit.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s is %v", name, v))
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-34s %14.4f %s\n", name, v, unit)
}

// count adds checked outcomes to the result's totals.
func (r *result) count(errs ...error) {
	for _, err := range errs {
		r.Attempted++
		if err != nil {
			if r.Failed == 0 {
				fmt.Fprintln(os.Stderr, "perfbench: first failure:", err)
			}
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
}

// progress notes a run phase on stderr.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
