package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cache"
	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/obs"
)

// The traced run measures layer by layer. It sends the workload's
// seeded requests over HTTP, recording each one's spans, then replays
// the requests' stages in process by timing calls into each layer's
// public functions, and reads the servers' /metrics deltas. Spans are
// recorded at the benchmark's own call sites (the servers carry no
// tracing), kept in memory, and written out when the run ends.

// span is one timed interval. Spans of one request share trace; n > 1
// marks a span timing n repetitions of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) per() time.Duration {
	d := time.Duration(s.End - s.Start)
	if s.N > 1 {
		d /= time.Duration(s.N)
	}
	return d
}

// tracer keeps spans in memory.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	trace int // last trace id handed out
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace identifier.
func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// add records a span and returns its id.
func (t *tracer) add(trace, parent int, name string, start, end time.Time, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n})
	return id
}

// time runs f as a span and returns its duration.
func (t *tracer) time(trace, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, parent, name, start, end, 1)
	return end.Sub(start)
}

// timeN runs f n times as one span.
func (t *tracer) timeN(trace, parent int, name string, n int, f func()) {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	t.add(trace, parent, name, start, time.Now(), n)
}

// per returns the per-operation durations of every span named name.
func (t *tracer) per(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.per()))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeats is how often the traced run repeats a millisecond-scale
// in-process operation; the metric is the median.
const repeats = 5

// kernelReps is how many times one rect is queried per timing span, so
// a sub-microsecond query is not lost in the clock's resolution.
const kernelReps = 16

// probeRequests caps the closed-loop passes and in-process replays.
const probeRequests = 400

// maxKernelRects caps the rects timed per kernel.
const maxKernelRects = 20000

// runTraced is the per-layer measurement.
func runTraced(ctx context.Context, cfg config, sup *supervisor) (*result, error) {
	e := newEnv(cfg, sup)
	w := cfg.w
	tr := newTracer()
	res := &result{}
	lm := map[string]float64{} // per-layer metrics by name, set at the end
	allKinds := []string{kindUG, kindAG, kindSH}

	progress("%s seed %d (traced): generating the dataset", w.name, cfg.seed)
	ds, err := e.writeDataset()
	if err != nil {
		return nil, err
	}

	// internal/datasets: the CSV scan every build starts with.
	setupTrace := tr.newTrace()
	for i := 0; i < repeats; i++ {
		var scanErr error
		tr.time(setupTrace, 0, "ingest.csv_scan", func() {
			scanErr = datasets.CSVFileSeq{Path: e.csv}.ForEachChunk(func([]geom.Point) error { return nil })
		})
		if scanErr != nil {
			return nil, scanErr
		}
	}
	scan := median(tr.per("ingest.csv_scan"))
	lm["ingest.csv_scan_ms"] = scan / 1e6
	lm["ingest.points_per_s"] = float64(len(ds.Points)) / (scan / 1e9)

	// internal/core and internal/shard builds, in process from the
	// points, as dpgrid builds them.
	plan, err := dpgrid.NewShardPlan(e.dom, shardKX, shardKY)
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		var buildErr error
		tr.time(setupTrace, 0, "core.build_ug", func() {
			_, buildErr = dpgrid.BuildUniformGrid(ds.Points, e.dom, epsilon, dpgrid.UGOptions{}, dpgrid.NewNoiseSource(noiseSeed))
		})
		tr.time(setupTrace, 0, "core.build_ag", func() {
			if buildErr == nil {
				_, buildErr = dpgrid.BuildAdaptiveGrid(ds.Points, e.dom, epsilon, dpgrid.AGOptions{}, dpgrid.NewNoiseSource(noiseSeed))
			}
		})
		tr.time(setupTrace, 0, "shard.build", func() {
			if buildErr == nil {
				_, buildErr = dpgrid.BuildShardedAdaptiveGrid(ds.Points, plan, epsilon, dpgrid.AGOptions{}, dpgrid.ShardOptions{}, dpgrid.NewNoiseSource(noiseSeed))
			}
		})
		if buildErr != nil {
			return nil, buildErr
		}
	}
	lm["core.build_ug_ms"] = median(tr.per("core.build_ug")) / 1e6
	lm["core.build_ag_ms"] = median(tr.per("core.build_ag")) / 1e6
	lm["shard.build_ms"] = median(tr.per("shard.build")) / 1e6

	progress("building releases")
	for _, k := range allKinds {
		if _, err := e.buildRelease(ctx, k); err != nil {
			return nil, err
		}
	}
	if err := e.traceCodec(tr, setupTrace, lm); err != nil {
		return nil, err
	}

	// Both topologies: the workload's own, and the other one for the
	// probes its layers need.
	progress("starting servers")
	nodeKinds := w.kinds
	if w.cluster {
		nodeKinds = []string{kindSH}
	}
	node, err := e.startNode(ctx, nodeKinds)
	if err != nil {
		return nil, err
	}
	clu, err := e.startCluster(ctx)
	if err != nil {
		return nil, err
	}
	lm["dpserve.ready_ms"] = median(append(append([]float64(nil), node.readyMS...), clu.readyMS...))
	refs, err := e.loadRefs(allKinds)
	if err != nil {
		return nil, err
	}

	main := node
	if w.cluster {
		main = clu
	}
	g, err := newGenerator(cfg.seed, e.dom)
	if err != nil {
		return nil, err
	}
	ph, err := e.prepare(g, float64(cfg.seconds), refs)
	if err != nil {
		return nil, err
	}
	conns := maxConns()

	progress("open loop on the %s topology: %d requests", w.name, len(ph.timed))
	for _, o := range openLoop(ctx, main.base, ph.warm, w.rate, conns, nil) {
		res.count(o.err)
	}
	before, err := snapshot(ctx, main)
	if err != nil {
		return nil, err
	}
	outs := openLoop(ctx, main.base, ph.timed, w.rate, conns, func(i int, o outcome, checked time.Time) {
		id := tr.newTrace()
		root := tr.add(id, 0, "request", o.due, checked, 1)
		tr.add(id, root, "loadgen.queue", o.due, o.sent, 1)
		tr.add(id, root, "http", o.sent, o.done, 1)
		tr.add(id, root, "check", o.done, checked, 1)
	})
	after, err := snapshot(ctx, main)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lat, late, errs := latencies(ph.timed, outs)
	res.count(errs...)
	lm["e2e.query_p50_ms"], lm["e2e.query_p99_ms"], err = latencyStats(lat)
	if err != nil {
		return nil, err
	}
	lm["loadgen.late_p99_ms"], _ = quantile(late, 0.99)
	mainQueries := okQueries(ph.timed, outs)
	mainDelta := after.sub(before)

	// Closed-loop passes over one connection: the node always (round
	// trip and stage replay), the cluster always (router and backends).
	probeItems := firstQueries(ph.timed, probeRequests)
	nodeItems := probeItems
	routerItems, err := e.retarget(probeItems, kindSH, refs)
	if err != nil {
		return nil, err
	}
	progress("closed-loop passes: %d requests to the node, %d to the router", len(nodeItems), len(routerItems))
	nodeDelta, nodeRTT, err := e.pass(ctx, node, nodeItems, res)
	if err != nil {
		return nil, err
	}
	cluDelta, _, err := e.pass(ctx, clu, routerItems, res)
	if err != nil {
		return nil, err
	}
	if w.cluster {
		cluDelta = mainDelta
	} else {
		nodeDelta = mainDelta
	}
	clusterQueries, nodeQueries := len(routerItems), len(nodeItems)
	if w.cluster {
		clusterQueries = mainQueries
	} else {
		nodeQueries = mainQueries
	}
	lm["proc.cpu_us_per_query.node"] = us(nodeDelta.cpu[0]) / float64(nodeQueries)
	lm["proc.cpu_us_per_query.router"] = us(cluDelta.cpu[0]) / float64(clusterQueries)
	var backendCPU time.Duration
	for _, c := range cluDelta.cpu[1:] {
		backendCPU += c
	}
	lm["proc.cpu_us_per_query.backend"] = us(backendCPU) / float64(clusterQueries)
	hits, misses := nodeDelta.metrics["dpserve_cache_hits_total"], nodeDelta.metrics["dpserve_cache_misses_total"]
	if hits+misses == 0 {
		return nil, fmt.Errorf("node /metrics recorded no cache lookups")
	}
	lm["cache.hit_ratio"] = hits / (hits + misses)
	lm["cluster.backend_errors"] = cluDelta.metrics["dpserve_cluster_backend_errors_total"]
	lm["cluster.failovers"] = cluDelta.metrics["dpserve_cluster_tile_failovers_total"]
	lm["cluster.shed"] = cluDelta.metrics["dpserve_cluster_backend_shed_total"]

	// cmd/dpserve: round trip against the in-process stages it runs.
	if err := e.traceStages(tr, nodeItems, nodeRTT, nodeKinds, lm); err != nil {
		return nil, err
	}
	putMS, err := e.tracePut(ctx, tr, node)
	if err != nil {
		return nil, err
	}
	lm["dpserve.put_ms"] = putMS

	// internal/cluster: the router in process against the live backends.
	if err := e.traceCluster(ctx, tr, routerItems, lm); err != nil {
		return nil, err
	}

	// internal/core, internal/pool, internal/shard: the kernels over
	// every rect of the workload.
	var rects []dpgrid.Rect
	for _, it := range ph.timed {
		for _, r := range it.q.rects {
			if len(rects) < maxKernelRects {
				rects = append(rects, dpgrid.NewRect(r[0], r[1], r[2], r[3]))
			}
		}
	}
	if err := e.traceKernels(tr, rects, lm); err != nil {
		return nil, err
	}

	lm["trace.span_ns"] = spanCost()

	if err := topologiesAlive(node, clu); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s, seed %d (traced): %d spans written to %s\n", w.name, cfg.seed, len(tr.spans), tracePath)
	for _, l := range layers {
		fmt.Printf("# %s: should move %s on %s\n", l.module, l.moves, l.on)
		for _, m := range l.metrics {
			v, ok := lm[m[0]]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m[0])
			}
			res.set(m[0], v, m[1])
		}
	}
	return res, nil
}

func okQueries(items []*item, outs []outcome) int {
	n := 0
	for i, o := range outs {
		if o.err == nil && items[i].isQuery() {
			n++
		}
	}
	return n
}

func firstQueries(items []*item, n int) []*item {
	var out []*item
	for _, it := range items {
		if it.isQuery() && len(out) < n {
			out = append(out, it)
		}
	}
	return out
}

func topologiesAlive(ts ...*topology) error {
	for _, t := range ts {
		if err := t.checkAlive(); err != nil {
			return err
		}
	}
	return nil
}

// retarget re-addresses queries to the release of another kind, with
// references recomputed against it.
func (e *env) retarget(items []*item, kind string, refs map[string]dpgrid.Synopsis) ([]*item, error) {
	out := make([]*item, len(items))
	for i, it := range items {
		q := query{kind: kind, rects: it.q.rects}
		body, err := json.Marshal(queryRequest{Synopsis: e.names[kind], Rects: q.rects})
		if err != nil {
			return nil, err
		}
		out[i] = &item{method: http.MethodPost, path: "/v1/query", body: body, q: q}
	}
	computeRefs(out, refs)
	return out, nil
}

// serverState is a topology's CPU per process (router first) and
// summed /metrics families at one moment.
type serverState struct {
	cpu     []time.Duration
	metrics map[string]float64
}

func snapshot(ctx context.Context, t *topology) (serverState, error) {
	var st serverState
	st.metrics = map[string]float64{}
	for _, p := range t.procs() {
		c, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return st, err
		}
		st.cpu = append(st.cpu, c)
	}
	m, err := scrape(ctx, t.base)
	if err != nil {
		return st, err
	}
	st.metrics = m
	return st, nil
}

func (a serverState) sub(b serverState) serverState {
	d := serverState{metrics: map[string]float64{}}
	for i := range a.cpu {
		d.cpu = append(d.cpu, a.cpu[i]-b.cpu[i])
	}
	for k, v := range a.metrics {
		d.metrics[k] = v - b.metrics[k]
	}
	return d
}

// scrape sums every sample of each metric family on base's Prometheus
// text page, over all label sets.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	c := newConn(ctx, base)
	defer c.close()
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// pass sends items closed-loop to t and returns its state delta and
// the round trips.
func (e *env) pass(ctx context.Context, t *topology, items []*item, res *result) (serverState, []time.Duration, error) {
	before, err := snapshot(ctx, t)
	if err != nil {
		return serverState{}, nil, err
	}
	rtts, errs := closedLoop(ctx, t.base, items)
	res.count(errs...)
	after, err := snapshot(ctx, t)
	if err != nil {
		return serverState{}, nil, err
	}
	return after.sub(before), rtts, ctx.Err()
}

// traceCodec times the codec and mmap layers over the workload's
// release files.
func (e *env) traceCodec(tr *tracer, trace int, lm map[string]float64) error {
	var enc, dec, lazy, mapped, size float64
	for _, k := range e.cfg.w.kinds {
		data, err := os.ReadFile(e.files[k])
		if err != nil {
			return err
		}
		size += float64(len(data))
		syn, err := dpgrid.ReadSynopsis(bytes.NewReader(data))
		if err != nil {
			return err
		}
		var opErr error
		for i := 0; i < repeats; i++ {
			tr.time(trace, 0, "codec.encode."+k, func() {
				var buf bytes.Buffer
				buf.Grow(len(data))
				opErr = firstErr(opErr, dpgrid.WriteSynopsisBinary(&buf, syn))
			})
			tr.time(trace, 0, "codec.decode."+k, func() {
				_, err := dpgrid.ReadSynopsis(bytes.NewReader(data))
				opErr = firstErr(opErr, err)
			})
			tr.time(trace, 0, "codec.lazy_decode."+k, func() {
				_, err := dpgrid.ReadSynopsisLazy(bytes.NewReader(data))
				opErr = firstErr(opErr, err)
			})
			tr.time(trace, 0, "mmapfile.map."+k, func() {
				m, err := dpgrid.MapSynopsisFile(e.files[k])
				if err == nil {
					err = m.Close()
				}
				opErr = firstErr(opErr, err)
			})
		}
		if opErr != nil {
			return opErr
		}
		enc += median(tr.per("codec.encode." + k))
		dec += median(tr.per("codec.decode." + k))
		lazy += median(tr.per("codec.lazy_decode." + k))
		mapped += median(tr.per("mmapfile.map." + k))
	}
	lm["codec.encode_ms"] = enc / 1e6
	lm["codec.decode_ms"] = dec / 1e6
	lm["codec.lazy_decode_ms"] = lazy / 1e6
	lm["mmapfile.map_ms"] = mapped / 1e6
	lm["codec.release_bytes"] = size
	return nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// traceStages replays each request's node stages in process — JSON
// decode, cache lookups and fills, the kernel, JSON encode — over the
// synopses as the node loads them, and sets the node round trip and
// what the stages leave unaccounted.
func (e *env) traceStages(tr *tracer, items []*item, rtts []time.Duration, kinds []string, lm map[string]float64) error {
	served := map[string]dpgrid.Synopsis{}
	for _, k := range kinds {
		syn, err := dpgrid.ReadSynopsisFileLazy(e.files[k])
		if err != nil {
			return err
		}
		served[k] = syn
	}
	c := cache.New(4096)
	var sums, rt, reqBytes, respBytes []float64
	var allKeys []cache.Key
	for i, it := range items {
		id := tr.newTrace()
		root := tr.add(id, 0, "dpserve.roundtrip", time.Now().Add(-rtts[i]), time.Now(), 1)
		rt = append(rt, us(rtts[i]))
		var req queryRequest
		var decErr error
		dec := tr.time(id, root, "dpserve.json_decode", func() { decErr = json.Unmarshal(it.body, &req) })
		if decErr != nil {
			return decErr
		}
		syn := served[it.q.kind]
		rects := make([]dpgrid.Rect, len(req.Rects))
		keys := make([]cache.Key, len(req.Rects))
		for j, q := range req.Rects {
			rects[j] = dpgrid.NewRect(q[0], q[1], q[2], q[3])
			keys[j] = cache.Key{Synopsis: req.Synopsis, MinX: rects[j].MinX, MinY: rects[j].MinY, MaxX: rects[j].MaxX, MaxY: rects[j].MaxY}
		}
		// As the node does: hits from the cache, the misses through the
		// synopsis's batch path, then the misses into the cache.
		counts := make([]float64, len(keys))
		var miss []int
		get := tr.time(id, root, "cache.get", func() {
			for j, k := range keys {
				if v, ok := c.Get(k); ok {
					counts[j] = v
				} else {
					miss = append(miss, j)
				}
			}
		})
		allKeys = append(allKeys, keys...)
		missRects := make([]dpgrid.Rect, len(miss))
		for j, i := range miss {
			missRects[j] = rects[i]
		}
		kern := tr.time(id, root, "dpserve.kernel", func() {
			for j, v := range dpgrid.QueryBatch(syn, missRects, 0) {
				counts[miss[j]] = v
			}
		})
		put := tr.time(id, root, "cache.put", func() {
			for _, j := range miss {
				c.Put(keys[j], counts[j])
			}
		})
		var out []byte
		var encErr error
		enc := tr.time(id, root, "dpserve.json_encode", func() {
			out, encErr = json.Marshal(queryResponse{Synopsis: req.Synopsis, Counts: counts})
		})
		if encErr != nil {
			return encErr
		}
		for j, v := range counts {
			if v != it.want[j] {
				return fmt.Errorf("in-process replay of rect %v: %v, reference %v", it.q.rects[j], v, it.want[j])
			}
		}
		sums = append(sums, us(dec+get+kern+put+enc))
		reqBytes = append(reqBytes, float64(len(it.body)))
		respBytes = append(respBytes, float64(len(out)+1)) // dpserve's encoder ends the body with a newline
	}
	getNS, putNS := cacheCost(tr, allKeys)
	lm["dpserve.roundtrip_us"] = median(rt)
	lm["dpserve.json_decode_us"] = median(tr.per("dpserve.json_decode")) / 1e3
	lm["dpserve.json_encode_us"] = median(tr.per("dpserve.json_encode")) / 1e3
	lm["dpserve.unaccounted_us"] = median(rt) - median(sums)
	lm["dpserve.req_bytes"] = mean(reqBytes)
	lm["dpserve.resp_bytes"] = mean(respBytes)
	lm["cache.get_ns"] = getNS
	lm["cache.put_ns"] = putNS
	return nil
}

// spanCost returns what tracing adds to a timed stage: a block of
// empty stages run through tracer.time, less the same block called
// directly, per stage, as the median over repeats blocks. The servers
// carry no tracing, so this is all the tracing a traced run does; the
// stages it times take microseconds to milliseconds, too long and too
// variable for the span cost to show in their own difference.
func spanCost() float64 {
	const block = 1000
	tr := newTracer()
	id := tr.newTrace()
	empty := func() {}
	var costs []float64
	for r := 0; r < repeats; r++ {
		start := time.Now()
		for i := 0; i < block; i++ {
			empty()
		}
		mid := time.Now()
		for i := 0; i < block; i++ {
			tr.time(id, 0, "trace.empty", empty)
		}
		costs = append(costs, ns(time.Since(mid)-mid.Sub(start))/block)
	}
	return median(costs)
}

// cacheCost replays a key sequence through a fresh answer cache in
// blocks of 64 lookups, each followed by the fills of its misses, and
// returns the median cost per Get and per Put. Timing blocks rather
// than single calls keeps the clock's own cost out of a ~100 ns
// operation.
func cacheCost(tr *tracer, keys []cache.Key) (getNS, putNS float64) {
	c := cache.New(4096)
	id := tr.newTrace()
	const block = 64
	var gets, puts []float64
	for i := 0; i < len(keys); i += block {
		blk := keys[i:min(i+block, len(keys))]
		var miss []cache.Key
		start := time.Now()
		for _, k := range blk {
			if _, ok := c.Get(k); !ok {
				miss = append(miss, k)
			}
		}
		mid := time.Now()
		for _, k := range miss {
			c.Put(k, 1)
		}
		end := time.Now()
		tr.add(id, 0, "cache.get_block", start, mid, len(blk))
		gets = append(gets, ns(mid.Sub(start))/float64(len(blk)))
		if len(miss) > 0 {
			tr.add(id, 0, "cache.put_block", mid, end, len(miss))
			puts = append(puts, ns(end.Sub(mid))/float64(len(miss)))
		}
	}
	if len(puts) == 0 {
		return median(gets), 0
	}
	return median(gets), median(puts)
}

// tracePut times PUTs of the pre-built AG release to the node under a
// name no query uses.
func (e *env) tracePut(ctx context.Context, tr *tracer, node *topology) (float64, error) {
	data, err := os.ReadFile(e.files[kindAG])
	if err != nil {
		return 0, err
	}
	c := newConn(ctx, node.base)
	defer c.close()
	it := &item{method: http.MethodPut, path: "/v1/synopses/" + e.names[kindAG] + "-put", body: data}
	id := tr.newTrace()
	for i := 0; i < repeats; i++ {
		var status int
		var body []byte
		var putErr error
		tr.time(id, 0, "dpserve.put", func() { status, body, putErr = c.do(it.method, it.path, it.body) })
		if putErr == nil {
			putErr = checkAnswer(it, status, body)
		}
		if putErr != nil {
			return 0, putErr
		}
	}
	return median(tr.per("dpserve.put")) / 1e6, nil
}

// traceCluster runs a cluster.Router in process against the live
// backends, and times the backends directly with the share of each
// request the router would send them.
func (e *env) traceCluster(ctx context.Context, tr *tracer, items []*item, lm map[string]float64) error {
	p, err := cluster.LoadPlacement(filepath.Join(e.cfg.work, "placement.json"))
	if err != nil {
		return err
	}
	rel, ok := p.Release(e.names[kindSH])
	if !ok {
		return fmt.Errorf("placement lacks %s", e.names[kindSH])
	}
	// The router's own transport: it is part of the layer measured.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	router := cluster.NewRouter(p, cluster.Options{ProbeInterval: -1, Client: client}, cluster.NewMetrics(obs.NewRegistry()))
	conns := make([]*conn, len(p.Nodes))
	for i, n := range p.Nodes {
		conns[i] = newConn(ctx, n.URL)
		defer conns[i].close()
	}
	var routerUS, backendUS, overheadUS, backends, tiles []float64
	for _, it := range items {
		id := tr.newTrace()
		rects := make([]dpgrid.Rect, len(it.q.rects))
		for j, q := range it.q.rects {
			rects[j] = dpgrid.NewRect(q[0], q[1], q[2], q[3])
		}
		var r *cluster.Result
		var qErr error
		rd := tr.time(id, 0, "cluster.router_query", func() { r, qErr = router.Query(ctx, e.names[kindSH], rects) })
		if qErr != nil {
			return qErr
		}
		if r.Partial {
			return fmt.Errorf("in-process router answer is partial")
		}
		for j, v := range r.Counts {
			if v != it.want[j] {
				return fmt.Errorf("in-process router on rect %v: %v, reference %v", it.q.rects[j], v, it.want[j])
			}
		}
		routerUS = append(routerUS, us(rd))
		backends = append(backends, float64(r.Backends))

		// The primaries' share of the request, as the router scatters it
		// with every breaker closed.
		byNode := map[int][]int{}
		for _, rect := range rects {
			ts := rel.Plan.OverlappingTiles(rect)
			tiles = append(tiles, float64(len(ts)))
			for _, ti := range ts {
				byNode[rel.OwnerOf(ti)] = appendUnique(byNode[rel.OwnerOf(ti)], ti)
			}
		}
		var slowest time.Duration
		for ni, ts := range byNode {
			sort.Ints(ts)
			body, err := json.Marshal(cluster.ShardQueryRequest{Synopsis: e.names[kindSH], Tiles: ts, Rects: it.q.rects})
			if err != nil {
				return err
			}
			var status int
			var resp []byte
			var bErr error
			d := tr.time(id, 0, "cluster.backend_roundtrip", func() {
				status, resp, bErr = conns[ni].do(http.MethodPost, cluster.ShardQueryPath, body)
			})
			if bErr != nil {
				return bErr
			}
			if status != http.StatusOK {
				return fmt.Errorf("backend %s: status %d: %.200s", p.Nodes[ni].Name, status, resp)
			}
			backendUS = append(backendUS, us(d))
			if d > slowest {
				slowest = d
			}
		}
		overheadUS = append(overheadUS, us(rd-slowest))
	}
	lm["cluster.router_query_us"] = median(routerUS)
	lm["cluster.backend_roundtrip_us"] = median(backendUS)
	lm["cluster.merge_overhead_us"] = median(overheadUS)
	lm["cluster.backends_per_query"] = mean(backends)
	lm["cluster.tiles_per_rect"] = mean(tiles)
	return nil
}

func appendUnique(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// traceKernels times the query kernels per rect, the batch fan-out
// against a plain loop, and the sharded fan-out.
func (e *env) traceKernels(tr *tracer, rects []dpgrid.Rect, lm map[string]float64) error {
	ug, err := dpgrid.ReadSynopsisFile(e.files[kindUG])
	if err != nil {
		return err
	}
	ag, err := dpgrid.ReadSynopsisFile(e.files[kindAG])
	if err != nil {
		return err
	}
	view, err := dpgrid.MapSynopsisFile(e.files[kindAG])
	if err != nil {
		return err
	}
	defer view.Close()
	sh, err := dpgrid.ReadSynopsisFile(e.files[kindSH])
	if err != nil {
		return err
	}
	shStats, ok := sh.(dpgrid.ShardObserver)
	if !ok {
		return fmt.Errorf("sharded release %T reports no fan-out", sh)
	}
	lazy, err := dpgrid.ReadSynopsisFileLazy(e.files[kindSH])
	if err != nil {
		return err
	}
	lazySh, ok := lazy.(*dpgrid.LazySharded)
	if !ok {
		return fmt.Errorf("lazy sharded release is %T", lazy)
	}

	id := tr.newTrace()
	var sink float64
	var fanout []float64
	for _, r := range rects {
		r := r
		tr.timeN(id, 0, "core.ug_query", kernelReps, func() { sink += ug.Query(r) })
		tr.timeN(id, 0, "core.ag_query", kernelReps, func() { sink += ag.Query(r) })
		tr.timeN(id, 0, "core.agview_query", kernelReps, func() { sink += view.Query(r) })
		tr.timeN(id, 0, "shard.query", kernelReps, func() { sink += sh.Query(r) })
		_, st := shStats.QueryStats(r)
		fanout = append(fanout, float64(st.Shards))
		sink += lazySh.Query(r)
	}
	for i := 0; i+64 <= len(rects); i += 64 {
		batch := rects[i : i+64]
		tr.time(id, 0, "pool.batch64", func() { sink += dpgrid.QueryBatch(ag, batch, 0)[0] })
		tr.time(id, 0, "core.loop64", func() {
			for _, r := range batch {
				sink += ag.Query(r)
			}
		})
	}
	if sink == 0.5 { // keeps the timed calls from being optimized away
		fmt.Fprintln(os.Stderr, "perfbench: kernel checksum", sink)
	}
	for _, k := range []string{"ug", "ag", "agview"} {
		lat := sortedCopy(tr.per("core." + k + "_query"))
		lm["core."+k+"_query_ns_p50"], _ = quantile(lat, 0.5)
		lm["core."+k+"_query_ns_p99"], _ = quantile(lat, 0.99)
	}
	if len(tr.per("pool.batch64")) == 0 {
		return fmt.Errorf("fewer than 64 rects to batch")
	}
	lm["pool.batch64_us"] = median(tr.per("pool.batch64")) / 1e3
	lm["core.loop64_us"] = median(tr.per("core.loop64")) / 1e3
	lm["shard.query_ns"] = median(tr.per("shard.query"))
	lm["shard.fanout_mean"] = mean(fanout)
	lm["shard.materialized"] = float64(lazySh.MaterializedShards())
	return nil
}
