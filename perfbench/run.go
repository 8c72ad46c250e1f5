package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/datasets"
)

// setups is how many times a run sets up its servers; setup_s is the
// median, which keeps one slow build from moving it.
const setups = 5

// warmup is the untimed open-loop phase before measuring: connections,
// lazily decoded tiles and (on node-batch-hot) the answer cache settle.
const warmup = time.Second

// env is the state of one run.
type env struct {
	cfg   config
	sup   *supervisor
	dom   dpgrid.Domain
	csv   string
	names map[string]string // release kind -> run-unique synopsis name
	files map[string]string // release kind -> release file
}

func newEnv(cfg config, sup *supervisor) *env {
	e := &env{cfg: cfg, sup: sup, names: map[string]string{}, files: map[string]string{}}
	// Names unique to this run: a readiness check that finds them can
	// only be answered by a server this run started.
	tag := fmt.Sprintf("pb%d-%d", os.Getpid(), time.Now().UnixNano()%1e9)
	for _, k := range []string{kindUG, kindAG, kindSH} {
		e.names[k] = tag + "-" + k
		e.files[k] = filepath.Join(cfg.work, k+".dpgrid")
	}
	return e
}

func (e *env) bin(name string) string { return filepath.Join(e.cfg.bin, name) }

// writeDataset generates the seeded checkin dataset as CSV.
func (e *env) writeDataset() (*datasets.Dataset, error) {
	ds := datasets.Checkin(datasetScale, e.cfg.seed)
	e.dom = ds.Domain
	e.csv = filepath.Join(e.cfg.work, "points.csv")
	f, err := os.Create(e.csv)
	if err != nil {
		return nil, err
	}
	if err := datasets.WriteCSV(f, ds.Points); err != nil {
		f.Close()
		return nil, err
	}
	return ds, f.Close()
}

func (e *env) domainSpec() string {
	d := e.dom
	return fmt.Sprintf("%g,%g,%g,%g", d.MinX, d.MinY, d.MaxX, d.MaxY)
}

// buildRelease runs the dpgrid CLI to build one release file and
// returns the CPU time the build used.
func (e *env) buildRelease(ctx context.Context, kind string) (time.Duration, error) {
	method := kindAG
	if kind == kindUG {
		method = kindUG
	}
	args := []string{"-in", e.csv, "-domain", e.domainSpec(), "-method", method,
		"-eps", strconv.Itoa(epsilon), "-seed", strconv.Itoa(noiseSeed),
		"-format", "binary", "-save", e.files[kind]}
	if kind == kindSH {
		args = append(args, "-shards", fmt.Sprintf("%dx%d", shardKX, shardKY))
	}
	return e.sup.run(ctx, "dpgrid-"+kind, e.bin("dpgrid"), args...)
}

// topology is the set of servers answering a workload.
type topology struct {
	base     string  // where clients send
	node     *proc   // single node; nil for a cluster
	router   *proc   // cluster router; nil for a node
	backends []*proc // cluster backends
	readyMS  []float64
}

func (t *topology) procs() []*proc {
	if t.node != nil {
		return []*proc{t.node}
	}
	return append([]*proc{t.router}, t.backends...)
}

// checkAlive fails if any server of the topology has exited.
func (t *topology) checkAlive() error {
	for _, p := range t.procs() {
		if p.exited() {
			return p.exitError()
		}
	}
	return nil
}

// startServer starts one dpserve and waits until it is ready and
// serves every release named in names.
func (e *env) startServer(ctx context.Context, label string, port int, extra []string, kinds []string, probes []probe) (*proc, float64, error) {
	args := append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", port)}, extra...)
	for _, k := range kinds {
		args = append(args, "-synopsis", e.names[k]+"="+e.files[k])
		probes = append(probes, probe{method: http.MethodGet, path: "/v1/synopses/" + e.names[k]})
	}
	p, err := e.sup.start(label, e.bin("dpserve"), args...)
	if err != nil {
		return nil, 0, err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	if err := waitReady(ctx, p, base, append([]probe{{method: http.MethodGet, path: "/readyz"}}, probes...)); err != nil {
		return nil, 0, err
	}
	ready := ms(time.Since(p.started))
	if err := checkOwnsPort(p, port); err != nil {
		return nil, 0, err
	}
	return p, ready, nil
}

// startNode starts one dpserve with default flags serving kinds.
func (e *env) startNode(ctx context.Context, kinds []string) (*topology, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	p, ready, err := e.startServer(ctx, "node", ports[0], nil, kinds, nil)
	if err != nil {
		return nil, err
	}
	return &topology{base: fmt.Sprintf("http://127.0.0.1:%d", ports[0]), node: p, readyMS: []float64{ready}}, nil
}

// startCluster starts three backends serving the sharded release and a
// router whose v2 placement puts every tile on two of them. The
// backends read the release instead of mapping it: a -mmap backend
// answers /v1/cluster/query with 400, because the handler does not
// unwrap the mapped synopsis to reach its tile router.
func (e *env) startCluster(ctx context.Context) (*topology, error) {
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	t := &topology{base: fmt.Sprintf("http://127.0.0.1:%d", ports[3])}
	nodes := make([]cluster.Node, 3)
	for i := range nodes {
		label := fmt.Sprintf("backend%d", i)
		p, ready, err := e.startServer(ctx, label, ports[i], nil, []string{kindSH}, nil)
		if err != nil {
			return nil, err
		}
		t.backends = append(t.backends, p)
		t.readyMS = append(t.readyMS, ready)
		nodes[i] = cluster.Node{Name: label, URL: fmt.Sprintf("http://127.0.0.1:%d", ports[i])}
	}
	placement := filepath.Join(e.cfg.work, "placement.json")
	if err := e.writePlacement(placement, nodes); err != nil {
		return nil, err
	}
	// The router is ready once a full-domain query through it — every
	// tile, every backend, the run-unique name — answers 200.
	d := e.dom
	body, err := json.Marshal(queryRequest{Synopsis: e.names[kindSH], Rects: [][4]float64{{d.MinX, d.MinY, d.MaxX, d.MaxY}}})
	if err != nil {
		return nil, err
	}
	p, ready, err := e.startServer(ctx, "router", ports[3], []string{"-cluster", "-placement", placement}, nil,
		[]probe{{method: http.MethodPost, path: "/v1/query", body: body}})
	if err != nil {
		return nil, err
	}
	t.router = p
	t.readyMS = append(t.readyMS, ready)
	return t, nil
}

// writePlacement writes a version-2 placement putting tile i on nodes
// i mod 3 (primary) and i+1 mod 3 (replica).
func (e *env) writePlacement(path string, nodes []cluster.Node) error {
	tiles := make([][]int, len(nodes))
	for ti := 0; ti < shardKX*shardKY; ti++ {
		tiles[ti%len(nodes)] = append(tiles[ti%len(nodes)], ti)
	}
	var assign []map[string]any
	for i, n := range nodes {
		assign = append(assign, map[string]any{"node": n.Name, "tiles": tiles[i]})
	}
	for i, n := range nodes {
		assign = append(assign, map[string]any{"node": n.Name, "tiles": tiles[(i+len(nodes)-1)%len(nodes)]})
	}
	d := e.dom
	doc := map[string]any{
		"version": 2,
		"nodes":   nodes,
		"releases": []map[string]any{{
			"synopsis":    e.names[kindSH],
			"domain":      [4]float64{d.MinX, d.MinY, d.MaxX, d.MaxY},
			"tiles":       fmt.Sprintf("%dx%d", shardKX, shardKY),
			"assignments": assign,
		}},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if _, err := cluster.ParsePlacement(b); err != nil {
		return fmt.Errorf("generated placement: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// setupCost is what one set-up took.
type setupCost struct {
	// cpu is the CPU time of every process the set-up ran: the dpgrid
	// builds, and each dpserve until the whole topology was ready. It
	// is setup_s: the kernel accounts it from the scheduler's run time,
	// which leaves out host steal, so it does not follow the load other
	// tenants put on a shared machine as the wall time does.
	cpu time.Duration
	// wall is the time from the first build to the last readiness.
	wall time.Duration
}

// setup builds the workload's releases and starts its servers.
func (e *env) setup(ctx context.Context) (*topology, setupCost, error) {
	start := time.Now()
	var cost setupCost
	for _, k := range e.cfg.w.kinds {
		c, err := e.buildRelease(ctx, k)
		if err != nil {
			return nil, cost, err
		}
		cost.cpu += c
	}
	var t *topology
	var err error
	if e.cfg.w.cluster {
		t, err = e.startCluster(ctx)
	} else {
		t, err = e.startNode(ctx, e.cfg.w.kinds)
	}
	if err != nil {
		return nil, cost, err
	}
	cost.wall = time.Since(start)
	c, err := cpuOf(t.procs())
	if err != nil {
		return nil, cost, err
	}
	cost.cpu += c
	return t, cost, nil
}

// loadRefs decodes the reference synopses from the release files.
func (e *env) loadRefs(kinds []string) (map[string]dpgrid.Synopsis, error) {
	refs := make(map[string]dpgrid.Synopsis, len(kinds))
	for _, k := range kinds {
		syn, err := dpgrid.ReadSynopsisFile(e.files[k])
		if err != nil {
			return nil, err
		}
		refs[k] = syn
	}
	return refs, nil
}

// corrupt perturbs the first query's first reference by one ulp.
func corrupt(items []*item) {
	for _, it := range items {
		if it.isQuery() {
			it.want[0] = math.Nextafter(it.want[0], math.Inf(1))
			return
		}
	}
}

// phase is a prepared request stream: warm-up then timed slots.
type phase struct {
	warm, timed []*item
}

// prepare draws the warm-up and timed schedules, the latter seconds
// long, and computes their references.
func (e *env) prepare(g *generator, seconds float64, refs map[string]dpgrid.Synopsis) (phase, error) {
	var putBody []byte
	if e.cfg.w.putEvery > 0 {
		b, err := os.ReadFile(e.files[kindAG])
		if err != nil {
			return phase{}, err
		}
		putBody = b
	}
	w := e.cfg.w
	warm, err := schedule(w, g, int(w.rate*warmup.Seconds()), e.names, putBody)
	if err != nil {
		return phase{}, err
	}
	timed, err := schedule(w, g, int(w.rate*seconds), e.names, putBody)
	if err != nil {
		return phase{}, err
	}
	computeRefs(warm, refs)
	computeRefs(timed, refs)
	if e.cfg.corruptRef {
		corrupt(timed)
	}
	return phase{warm: warm, timed: timed}, nil
}

// latencies returns the query latencies in schedule order and the
// sorted lateness of every request, in ms, and every request's error.
func latencies(items []*item, outs []outcome) (lat, late []float64, errs []error) {
	for i, o := range outs {
		errs = append(errs, o.err)
		if items[i].isQuery() {
			lat = append(lat, ms(o.latency()))
		}
		late = append(late, ms(o.lateness()))
	}
	sort.Float64s(late)
	return lat, late, errs
}

// runTimed is the end-to-end measurement.
func runTimed(ctx context.Context, cfg config, sup *supervisor) (*result, error) {
	e := newEnv(cfg, sup)
	w := cfg.w
	progress("%s seed %d: generating the dataset", w.name, cfg.seed)
	if _, err := e.writeDataset(); err != nil {
		return nil, err
	}
	g, err := newGenerator(cfg.seed, e.dom)
	if err != nil {
		return nil, err
	}

	var topo *topology
	var setupCPU, setupWall []float64
	for i := 0; i < setups; i++ {
		if topo != nil {
			sup.stop(topo.procs()...)
		}
		progress("set-up %d of %d", i+1, setups)
		t, cost, err := e.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		topo = t
		setupCPU = append(setupCPU, cost.cpu.Seconds())
		setupWall = append(setupWall, cost.wall.Seconds())
	}

	refs, err := e.loadRefs(w.kinds)
	if err != nil {
		return nil, err
	}
	ph, err := e.prepare(g, float64(cfg.seconds), refs)
	if err != nil {
		return nil, err
	}
	conns := maxConns()
	res := &result{}

	progress("warm-up: %d requests", len(ph.warm))
	for _, o := range openLoop(ctx, topo.base, ph.warm, w.rate, conns, nil) {
		res.count(o.err)
	}
	cpu0, err := cpuOf(topo.procs())
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	progress("timed phase: %d requests at %g/s over %d connections", len(ph.timed), w.rate, conns)
	outs := openLoop(ctx, topo.base, ph.timed, w.rate, conns, nil)
	cpu1, err := cpuOf(topo.procs())
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := topo.checkAlive(); err != nil {
		return nil, err
	}
	var rss int64
	for _, p := range topo.procs() {
		r, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += r
	}

	lat, late, errs := latencies(ph.timed, outs)
	res.count(errs...)
	ok := okQueries(ph.timed, outs)
	if ok == 0 {
		return nil, fmt.Errorf("no query succeeded")
	}
	p50, p99, err := latencyStats(lat)
	if err != nil {
		return nil, err
	}
	latep99, _ := quantile(late, 0.99)

	fmt.Printf("workload %s, seed %d: %d timed queries and %d other requests, open loop at %g/s over %d connections\n",
		w.name, cfg.seed, len(lat), len(outs)-len(lat), w.rate, conns)
	fmt.Printf("host steal during the timed phase: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	fmt.Printf("set-ups: CPU %s s, wall %s s\n", joinFloats(setupCPU), joinFloats(setupWall))
	// Latency is printed, not gated: on a shared host it follows other
	// tenants' load (the steal line above) more than this program.
	fmt.Printf("%-34s %14.4f ms (not gated)\n", "query_p50_ms", p50)
	fmt.Printf("%-34s %14.4f ms (not gated)\n", "query_p99_ms", p99)
	fmt.Printf("%-34s %14.4f s (not gated: wall time follows steal as latency does)\n", "setup_wall_s", median(setupWall))
	values := map[string]float64{
		"setup_s":                 median(setupCPU),
		"server_cpu_us_per_query": us(cpu1-cpu0) / float64(ok),
		"server_rss_mb":           float64(rss) / (1 << 20),
	}
	for _, m := range endToEnd {
		res.set(m[0], values[m[0]], m[1])
	}
	fmt.Printf("%-34s %14.4f frac (%d of %d requests)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("%-34s %14.4f ms (validity check: how late requests left)\n", "loadgen.late_p99_ms", latep99)
	return res, nil
}

// Latency windows: p50 is the median over windows of p50Window
// consecutive queries of each window's median; p99 the median over
// windows of the fewest queries whose p99 has ten samples beyond it.
const p50Window = 200

// latencyStats reduces query latencies in schedule order to the
// windowed p50 and p99, printing every window.
func latencyStats(lat []float64) (p50, p99 float64, err error) {
	p50, p50s, err := windowed(lat, p50Window, 0.50)
	if err != nil {
		return 0, 0, fmt.Errorf("query_p50_ms: %w; run longer", err)
	}
	p99, p99s, err := windowed(lat, minSamplesFor(0.99), 0.99)
	if err != nil {
		return 0, 0, fmt.Errorf("query_p99_ms: %w; run longer", err)
	}
	fmt.Printf("latency: %d queries; p50 is the median of %d window medians, p99 the median of %d window p99s (%d+ samples beyond each)\n",
		len(lat), len(p50s), len(p99s), len(lat)/len(p99s)-rank(len(lat)/len(p99s), 0.99))
	fmt.Printf("window p50s: %s ms\nwindow p99s: %s ms\n", joinFloats(p50s), joinFloats(p99s))
	return p50, p99, nil
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(s, " ")
}
