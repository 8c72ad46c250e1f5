package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

// Options tune the router's robustness knobs; the zero value gets
// production defaults.
type Options struct {
	// Timeout bounds each backend attempt (default 2s).
	Timeout time.Duration
	// Retries is how many extra attempts follow a failed one
	// (default 1; negative means none).
	Retries int
	// Backoff is the base pause before the first retry, doubling per
	// attempt (default 50ms). The actual pause is jittered over
	// [base/2, 3*base/2) — see Jitter.
	Backoff time.Duration
	// Jitter supplies the uniform draws that spread retry backoff, so
	// a fleet of synchronized clients doesn't hammer a recovering
	// backend in lockstep. Nil gets a fixed-seed source; commands
	// should inject a per-process seed, tests a pinned one.
	Jitter noise.Source
	// FailureThreshold consecutive failures open a backend's breaker
	// (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker sheds traffic before
	// admitting a half-open trial (default 5s).
	Cooldown time.Duration
	// ProbeInterval spaces background health probes; 0 gets the 2s
	// default, negative disables probing.
	ProbeInterval time.Duration
	// HealthPath is the backend endpoint probes GET (default /readyz).
	HealthPath string
	// Client overrides the HTTP client (default: http.Client with
	// per-request timeouts supplied via context).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Jitter == nil {
		o.Jitter = noise.NewSource(1)
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.HealthPath == "" {
		o.HealthPath = "/readyz"
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// ErrUnknownSynopsis is returned for a query naming a release the
// placement does not place.
var ErrUnknownSynopsis = errors.New("cluster: unknown synopsis")

// ErrAllBackendsDown is returned when a query needed at least one tile
// and no backend produced an answer — nothing useful can be served, as
// opposed to partial degradation where the surviving nodes' sum is.
var ErrAllBackendsDown = errors.New("cluster: all backends down")

// Result is one router query's merged answer.
type Result struct {
	// Counts are the merged estimates, one per request rectangle. For a
	// complete answer each is bit-identical to the estimate a single
	// process serving the whole release would return.
	Counts []float64
	// Partial reports that one or more needed tiles were unanswered by
	// every one of their replicas; Counts then hold the sum over the
	// tiles that did answer — a lower bound the caller can serve while
	// the cluster degrades.
	Partial bool
	// MissingTiles are the unanswered global tile indices, ascending.
	MissingTiles []int
	// Backends is how many distinct backends the query scattered to.
	Backends int
	// Failovers counts tile assignments that went to a non-primary
	// replica (because an earlier replica failed or its breaker was
	// open), one per tile per hop.
	Failovers int
	// Generation is the placement generation that answered the query.
	// A query runs start to finish on one placement, so a batch is
	// never merged across generations.
	Generation uint64
}

// backendRef is a node plus its breaker. Refs are pooled by node name
// across placement reloads so breaker state (an open breaker on a dead
// node) survives a hot swap.
type backendRef struct {
	name string
	url  string
	br   *breaker
}

// routerState is one immutable placement generation's serving state:
// the placement plus the backend refs indexed like its Nodes. Queries
// load it once at entry, so an in-flight query finishes on the
// placement it started with even while Reload swaps in a new one.
type routerState struct {
	placement *Placement
	backends  []*backendRef
}

// Router scatters rectangle queries across the backends of a
// Placement and gathers the per-tile partials into merged answers,
// failing over between a tile's replicas within a single query. It is
// safe for concurrent use. Start launches the background health
// prober; Close stops it; Reload hot-swaps the placement.
type Router struct {
	opts Options
	met  *Metrics

	state atomic.Pointer[routerState]

	// reloadMu serializes Reload and guards refs.
	reloadMu sync.Mutex
	refs     map[string]*backendRef

	// jitterMu guards draws from the (stateful) jitter source.
	jitterMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewRouter builds a router over p. met may be nil. p is stamped as
// generation 1 unless the caller already numbered it.
func NewRouter(p *Placement, opts Options, met *Metrics) *Router {
	opts = opts.withDefaults()
	r := &Router{
		opts: opts,
		met:  met,
		refs: make(map[string]*backendRef, len(p.Nodes)),
		stop: make(chan struct{}),
	}
	if p.Generation == 0 {
		p.Generation = 1
	}
	r.reloadMu.Lock()
	r.state.Store(r.buildState(p))
	r.reloadMu.Unlock()
	met.setGeneration(p.Generation)
	return r
}

// buildState assembles serving state for p, reusing pooled backend
// refs (and their breakers) for nodes whose name and URL are
// unchanged. reloadMu must be held.
func (r *Router) buildState(p *Placement) *routerState {
	st := &routerState{placement: p, backends: make([]*backendRef, len(p.Nodes))}
	for i, n := range p.Nodes {
		ref := r.refs[n.Name]
		if ref == nil || ref.url != n.URL {
			ref = &backendRef{
				name: n.Name,
				url:  n.URL,
				br:   newBreaker(r.opts.FailureThreshold, r.opts.Cooldown, nil),
			}
			r.refs[n.Name] = ref
		}
		st.backends[i] = ref
		r.met.setState(n.Name, ref.br.state())
	}
	return st
}

// Reload atomically swaps the serving placement and returns the new
// generation. Queries already in flight finish on the placement they
// loaded at entry; new queries see the new one. Breaker state carries
// over for nodes whose name and URL are unchanged, so a reload does
// not reopen traffic to a known-dead node; nodes that vanish from the
// placement drop their metric series and pooled breaker.
func (r *Router) Reload(p *Placement) uint64 {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	old := r.state.Load()
	p.Generation = old.placement.Generation + 1
	st := r.buildState(p)
	kept := make(map[string]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		kept[n.Name] = true
	}
	for _, n := range old.placement.Nodes {
		if !kept[n.Name] {
			r.met.forgetBackend(n.Name)
			delete(r.refs, n.Name)
		}
	}
	r.state.Store(st)
	r.met.reloadAccepted(p.Generation)
	return p.Generation
}

// Placement returns the placement currently serving queries.
func (r *Router) Placement() *Placement { return r.state.Load().placement }

// Generation returns the serving placement's generation.
func (r *Router) Generation() uint64 { return r.state.Load().placement.Generation }

// RetryAfter returns how long a client should wait after an
// all-backends-down failure: the shortest remaining breaker cooldown
// across the current backends — the earliest instant a shed backend is
// admitted for a half-open trial — rounded up to a whole second, and
// at least one second (also the answer when no breaker is open, e.g.
// when every backend failed its in-flight attempts instead).
func (r *Router) RetryAfter() time.Duration {
	st := r.state.Load()
	var min time.Duration
	for _, be := range st.backends {
		if rem := be.br.remaining(); rem > 0 && (min == 0 || rem < min) {
			min = rem
		}
	}
	if min <= 0 {
		return time.Second
	}
	if rounded := min.Truncate(time.Second); rounded == min {
		return min
	} else if next := rounded + time.Second; next > 0 {
		return next
	}
	return time.Second
}

// Start launches the background health prober (a no-op when probing is
// disabled). Call Close to stop it.
func (r *Router) Start() {
	if r.opts.ProbeInterval < 0 {
		return
	}
	r.wg.Add(1)
	go r.probeLoop()
}

// Close stops the prober and waits for it to exit.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// probeLoop GETs every backend's health endpoint each interval,
// feeding the breakers so dead nodes are shed (and recovered nodes
// readmitted) without query traffic paying for the discovery. Each
// sweep probes the backends of the placement serving at that moment.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		r.probeAll()
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
	}
}

func (r *Router) probeAll() {
	for _, be := range r.state.Load().backends {
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
		ok := r.probeOne(ctx, be)
		cancel()
		if ok {
			be.br.success()
		} else {
			be.br.failure()
			r.met.probeFailed(be.name)
		}
		r.met.setState(be.name, be.br.state())
	}
}

func (r *Router) probeOne(ctx context.Context, be *backendRef) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, be.url+r.opts.HealthPath, nil)
	if err != nil {
		return false
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// BackendStatus is one backend's health as the router sees it.
type BackendStatus struct {
	Name  string       `json:"name"`
	URL   string       `json:"url"`
	State BreakerState `json:"state"`
}

// BackendStatuses reports every current backend's breaker state, for
// health endpoints and operator visibility.
func (r *Router) BackendStatuses() []BackendStatus {
	st := r.state.Load()
	out := make([]BackendStatus, len(st.backends))
	for i, be := range st.backends {
		out[i] = BackendStatus{Name: be.name, URL: be.url, State: be.br.state()}
	}
	return out
}

// gather is one backend's outcome: the per-(rect, tile) counts it
// returned, or ok=false when every attempt failed.
type gather struct {
	ok     bool
	counts map[int64]float64 // rectIdx<<32 | tileIdx -> count
}

func gatherKey(rect, tile int) int64 { return int64(rect)<<32 | int64(tile) }

// Query scatters rects across the backends holding their overlapping
// tiles and merges the partials. Each tile is asked of its replicas in
// placement preference order: the first replica whose breaker admits
// traffic gets the tile, and a failed exchange moves the tile to the
// next replica within the same query, so a single node loss costs a
// failover hop, not an answer. The merge visits each rectangle's tiles
// in ascending global index order — the same order the in-process
// fan-out sums in — so whenever at least one replica per tile answers,
// the result is bit-identical to a single node serving the whole
// release. Only a tile whose every replica is down goes missing
// (Partial=true); only a query that needed tiles and got none at all
// back fails, with ErrAllBackendsDown. A query whose ctx ends while
// tiles are still pending fails with ctx's error instead: the replicas
// were not down, the caller stopped waiting.
func (r *Router) Query(ctx context.Context, synopsis string, rects []geom.Rect) (*Result, error) {
	st := r.state.Load()
	rel, ok := st.placement.Release(synopsis)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSynopsis, synopsis)
	}
	gen := st.placement.Generation

	// Route: which tiles does each rectangle need, and which rects does
	// each needed tile serve?
	perRect := make([][]int, len(rects))
	tilesPerRect := make([]int, len(rects))
	rectsOf := make(map[int][]int) // tile -> rect indices overlapping it
	for i, rect := range rects {
		perRect[i] = rel.Plan.OverlappingTiles(rect)
		tilesPerRect[i] = len(perRect[i])
		for _, ti := range perRect[i] {
			rectsOf[ti] = append(rectsOf[ti], i)
		}
	}

	counts := make([]float64, len(rects))
	if len(rectsOf) == 0 {
		// No rectangle overlaps the domain: a complete all-zero answer.
		r.met.observeFanout(0, tilesPerRect)
		return &Result{Counts: counts, Generation: gen}, nil
	}

	allTiles := sortedKeys(rectsOf)

	// Scatter in failover rounds. Round 0 assigns every tile to its
	// first admissible replica; each later round reassigns the tiles
	// whose backend failed to their next untried replica. A tile with
	// no admissible replica left is missing.
	tileCounts := make(map[int64]float64)
	resolved := make(map[int]bool, len(allTiles))
	nextPos := make(map[int]int, len(allTiles))
	attempted := make(map[int]bool)
	shedSeen := make(map[int]bool)
	wireRects := rectsToWire(rects)
	failovers := 0
	anySuccess := false

	pending := allTiles
	for len(pending) > 0 {
		// A round that starts past the caller's deadline could only fail
		// every attempt.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		assign := make(map[int][]int) // backend index -> tiles this round
		for _, ti := range pending {
			reps := rel.Replicas(ti)
			pos := nextPos[ti]
			ni := -1
			for ; pos < len(reps); pos++ {
				cand := reps[pos]
				if st.backends[cand].br.allow() {
					ni = cand
					break
				}
				// Shed: breaker open, skip to the next replica without
				// waiting out a timeout. Counted once per backend per query.
				if !shedSeen[cand] {
					shedSeen[cand] = true
					r.met.shed(st.backends[cand].name)
				}
			}
			if ni == -1 {
				continue // every replica shed or already tried: missing
			}
			if pos > 0 {
				failovers++
				r.met.failover(1)
			}
			nextPos[ti] = pos + 1
			assign[ni] = append(assign[ni], ti)
		}
		if len(assign) == 0 {
			break
		}

		nodes := sortedKeys(assign)
		results := make([]*gather, len(nodes))
		var wg sync.WaitGroup
		for idx, ni := range nodes {
			attempted[ni] = true
			tiles := assign[ni]
			sort.Ints(tiles)
			wg.Add(1)
			go func(idx int, be *backendRef, tiles []int) {
				defer wg.Done()
				results[idx] = r.queryBackend(ctx, be, synopsis, tiles, wireRects, len(rects))
			}(idx, st.backends[ni], tiles)
		}
		wg.Wait()

		// A tile is resolved only when its backend answered it for every
		// rect that overlaps it; anything less (failed exchange, or a
		// backend whose manifest lacks the tile) sends the whole tile to
		// the next replica, keeping the merge all-or-nothing per tile.
		var next []int
		for idx, ni := range nodes {
			g := results[idx]
			if g.ok {
				anySuccess = true
			}
			for _, ti := range assign[ni] {
				complete := g.ok
				if complete {
					for _, i := range rectsOf[ti] {
						if _, got := g.counts[gatherKey(i, ti)]; !got {
							complete = false
							break
						}
					}
				}
				if !complete {
					next = append(next, ti)
					continue
				}
				for _, i := range rectsOf[ti] {
					tileCounts[gatherKey(i, ti)] = g.counts[gatherKey(i, ti)]
				}
				resolved[ti] = true
			}
		}
		sort.Ints(next)
		pending = next
	}
	r.met.observeFanout(len(attempted), tilesPerRect)

	if !anySuccess {
		return nil, fmt.Errorf("%w: no replica of %d tile(s) answered for %q",
			ErrAllBackendsDown, len(allTiles), synopsis)
	}

	// Gather: merge in ascending tile order per rectangle; tiles whose
	// every replica failed go on the missing list.
	var missing []int
	for _, ti := range allTiles {
		if !resolved[ti] {
			missing = append(missing, ti)
		}
	}
	for i := range rects {
		for _, ti := range perRect[i] {
			if v, got := tileCounts[gatherKey(i, ti)]; got {
				counts[i] += v
			}
		}
	}
	res := &Result{Counts: counts, Backends: len(attempted), Failovers: failovers, Generation: gen}
	if len(missing) > 0 {
		res.Partial = true
		res.MissingTiles = missing
		r.met.partial()
	}
	return res, nil
}

// queryBackend runs the bounded retry loop for one backend: each
// attempt gets its own timeout, transport errors and 5xx responses
// back off (jittered, doubling) and retry, and 4xx responses fail fast
// (the node is healthy; the request will not get better). Breaker and
// metrics see every attempt.
func (r *Router) queryBackend(ctx context.Context, be *backendRef, synopsis string, tiles []int, wireRects [][4]float64, numRects int) *gather {
	body, err := json.Marshal(ShardQueryRequest{Synopsis: synopsis, Tiles: tiles, Rects: wireRects})
	if err != nil {
		return &gather{}
	}
	backoff := r.opts.Backoff
	for attempt := 0; ; attempt++ {
		g, retryable := r.attempt(ctx, be, body, numRects)
		r.met.setState(be.name, be.br.state())
		if g != nil {
			return g
		}
		if !retryable || attempt >= r.opts.Retries {
			return &gather{}
		}
		select {
		case <-ctx.Done():
			return &gather{}
		case <-time.After(r.jittered(backoff)):
		}
		backoff *= 2
	}
}

// jittered spreads a backoff delay uniformly over [base/2, 3*base/2)
// using the injected jitter source. Deterministic doubling from a
// fixed base means every client that saw the same failure would
// otherwise retry at the same instants — synchronized retry storms are
// exactly what a recovering backend cannot absorb.
func (r *Router) jittered(base time.Duration) time.Duration {
	r.jitterMu.Lock()
	u := r.opts.Jitter.Uniform()
	r.jitterMu.Unlock()
	return base/2 + time.Duration(u*float64(base))
}

// attempt performs one exchange. It returns a non-nil gather on
// success (and on fail-fast 4xx: an empty, ok=false gather); nil with
// retryable reporting whether another attempt could help.
func (r *Router) attempt(ctx context.Context, be *backendRef, body []byte, numRects int) (*gather, bool) {
	actx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	start := time.Now()
	fail := func() (*gather, bool) {
		r.met.attempt(be.name, time.Since(start).Seconds(), true)
		// An attempt cut short by the caller's deadline says nothing
		// about the backend; only its own timeout or a bad answer does.
		if ctx.Err() == nil {
			be.br.failure()
		}
		return nil, true
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, be.url+ShardQueryPath, bytes.NewReader(body))
	if err != nil {
		return fail()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return fail()
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The node answered decisively: it cannot serve this request
		// (unknown synopsis, malformed body). Retrying or opening the
		// breaker would punish a healthy node for a routing problem.
		r.met.attempt(be.name, time.Since(start).Seconds(), true)
		be.br.success()
		return &gather{}, false
	default:
		return fail()
	}
	var sqr ShardQueryResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&sqr); err != nil {
		return fail()
	}
	if len(sqr.Partials) != numRects {
		return fail()
	}
	r.met.attempt(be.name, time.Since(start).Seconds(), false)
	be.br.success()
	g := &gather{ok: true, counts: make(map[int64]float64)}
	for i, parts := range sqr.Partials {
		for _, tp := range parts {
			g.counts[gatherKey(i, tp.Tile)] = tp.Count
		}
	}
	return g, false
}

func rectsToWire(rects []geom.Rect) [][4]float64 {
	out := make([][4]float64, len(rects))
	for i, rc := range rects {
		out[i] = [4]float64{rc.MinX, rc.MinY, rc.MaxX, rc.MaxY}
	}
	return out
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
