package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/shard"
)

// Workloads. Inputs follow Cormode et al., "Differentially Private
// Spatial Decompositions": random unaligned rectangles whose sides
// range from tiny to most of the domain, over the checkin dataset
// (1M points at scale 1). The request stream is drawn from the run's
// seed; the servers only ever see the generated requests.

// Release kinds every workload draws from. Each is built by the dpgrid
// CLI with a fixed noise seed, so one dataset seed gives one release.
const (
	kindUG = "ug"
	kindAG = "ag"
	kindSH = "sh" // 3x2 sharded AG
)

const (
	datasetScale = 1 // the checkin set's 1M points
	noiseSeed    = 7
	epsilon      = 1
	shardKX      = 3
	shardKY      = 2
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// rate is the offered load of the timed phase, requests per second.
	rate float64
	// cluster serves the workload from a router over three backends
	// instead of one node.
	cluster bool
	// kinds are the releases the workload builds and serves.
	kinds []string
	// putEvery interleaves one PUT of the pre-built AG release every
	// putEvery schedule slots (0: none).
	putEvery int
	// next draws the next query from rng.
	next func(g *generator) query
}

// query is one POST /v1/query before encoding.
type query struct {
	kind  string
	rects [][4]float64
}

var workloads = []*workload{
	{
		name: "node-point",
		why: "one fresh unaligned rect per request (seeded) over UG, AG and 3x2 AG on one dpserve: " +
			"HTTP, JSON, timeout handler and registry dominate; the cache only misses",
		rate:  1000,
		kinds: []string{kindUG, kindAG, kindSH},
		next: func(g *generator) query {
			kind := []string{kindUG, kindAG, kindSH}[g.n%3]
			return query{kind: kind, rects: [][4]float64{g.rect(g.dom, 0.005, 0.5)}}
		},
	},
	{
		name: "node-batch-hot",
		why: "64-rect batches (80% from a seeded hot set of 16) over AG and 3x2 AG plus 1 PUT/s: " +
			"kernel, pool.For fan-out, cache hits, big bodies and cache invalidation dominate",
		rate:     250,
		kinds:    []string{kindAG, kindSH},
		putEvery: 250,
		next: func(g *generator) query {
			kind := []string{kindAG, kindSH}[g.n%2]
			rects := make([][4]float64, 64)
			for i := range rects {
				if g.rng.Float64() < 0.8 {
					rects[i] = g.hot[g.rng.Intn(len(g.hot))]
				} else {
					rects[i] = g.rect(g.dom, 0.005, 0.9)
				}
			}
			return query{kind: kind, rects: rects}
		},
	},
	{
		name: "cluster-scatter",
		why: "1-4 seeded rects per request, half one tile and half across tiles, via a router over 3 backends " +
			"with every tile on two: scatter, merge and backend wire path dominate",
		rate:    300,
		cluster: true,
		kinds:   []string{kindSH},
		next: func(g *generator) query {
			rects := make([][4]float64, 1+g.rng.Intn(4))
			for i := range rects {
				if g.rng.Intn(2) == 0 {
					rects[i] = g.oneTileRect()
				} else {
					rects[i] = g.multiTileRect()
				}
			}
			return query{kind: kindSH, rects: rects}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// generator draws a workload's requests from the run's seed.
type generator struct {
	rng  *rand.Rand
	dom  dpgrid.Domain
	plan shard.Plan
	hot  [][4]float64 // node-batch-hot's hot set
	n    int          // queries drawn so far
}

func newGenerator(seed int64, dom dpgrid.Domain) (*generator, error) {
	plan, err := shard.NewPlan(dom, shardKX, shardKY)
	if err != nil {
		return nil, err
	}
	g := &generator{rng: rand.New(rand.NewSource(seed)), dom: dom, plan: plan}
	g.hot = make([][4]float64, 16)
	for i := range g.hot {
		g.hot[i] = g.rect(dom, 0.005, 0.9)
	}
	return g, nil
}

// draw returns the workload's next query.
func (g *generator) draw(w *workload) query {
	q := w.next(g)
	g.n++
	return q
}

// logUniform draws from [lo, hi] with log-uniform density.
func (g *generator) logUniform(lo, hi float64) float64 {
	return lo * math.Exp(g.rng.Float64()*math.Log(hi/lo))
}

// rect draws a rectangle inside box whose sides are independent
// log-uniform fractions in [lo, hi] of the box's sides, at a uniform
// position — unaligned with any grid.
func (g *generator) rect(box dpgrid.Domain, lo, hi float64) [4]float64 {
	w := box.Width() * g.logUniform(lo, hi)
	h := box.Height() * g.logUniform(lo, hi)
	x := box.MinX + g.rng.Float64()*(box.Width()-w)
	y := box.MinY + g.rng.Float64()*(box.Height()-h)
	return [4]float64{x, y, x + w, y + h}
}

// oneTileRect draws a rectangle inside a single tile of the mosaic.
func (g *generator) oneTileRect() [4]float64 {
	for {
		tile := g.plan.Tile(g.rng.Intn(g.plan.NumTiles()))
		r := g.rect(tile, 0.005, 0.9)
		if len(g.plan.OverlappingTiles(dpgrid.NewRect(r[0], r[1], r[2], r[3]))) == 1 {
			return r
		}
	}
}

// multiTileRect draws a rectangle from a point in one tile to a point
// in another, so it spans two tiles up to the whole mosaic.
func (g *generator) multiTileRect() [4]float64 {
	dom := g.plan.Domain()
	tw, th := dom.Width()/shardKX, dom.Height()/shardKY
	for {
		cx0, cx1 := g.rng.Intn(shardKX), g.rng.Intn(shardKX)
		cy0, cy1 := g.rng.Intn(shardKY), g.rng.Intn(shardKY)
		x0 := dom.MinX + (float64(cx0)+g.rng.Float64())*tw
		x1 := dom.MinX + (float64(cx1)+g.rng.Float64())*tw
		y0 := dom.MinY + (float64(cy0)+g.rng.Float64())*th
		y1 := dom.MinY + (float64(cy1)+g.rng.Float64())*th
		r := dpgrid.NewRect(x0, y0, x1, y1)
		if len(g.plan.OverlappingTiles(r)) > 1 {
			return [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
		}
	}
}

// item is one scheduled request with its expected answer.
type item struct {
	method string
	path   string
	body   []byte
	q      query
	want   []float64 // reference counts; nil for a PUT
}

func (it *item) isQuery() bool { return it.method == http.MethodPost }

// queryRequest mirrors dpserve's POST /v1/query body.
type queryRequest struct {
	Synopsis string       `json:"synopsis"`
	Rects    [][4]float64 `json:"rects"`
}

// queryResponse mirrors the fields of dpserve's answer the check reads.
type queryResponse struct {
	Synopsis string    `json:"synopsis"`
	Counts   []float64 `json:"counts"`
	Partial  bool      `json:"partial,omitempty"`
}

// schedule draws n schedule slots of workload w: queries, with a PUT of
// putBody to the AG release every w.putEvery slots.
func schedule(w *workload, g *generator, n int, names map[string]string, putBody []byte) ([]*item, error) {
	items := make([]*item, n)
	for i := range items {
		if w.putEvery > 0 && i%w.putEvery == w.putEvery/2 {
			items[i] = &item{method: http.MethodPut, path: "/v1/synopses/" + names[kindAG], body: putBody}
			continue
		}
		q := g.draw(w)
		body, err := json.Marshal(queryRequest{Synopsis: names[q.kind], Rects: q.rects})
		if err != nil {
			return nil, err
		}
		items[i] = &item{method: http.MethodPost, path: "/v1/query", body: body, q: q}
	}
	return items, nil
}

// computeRefs fills every query's expected answer from the release
// files, in process, before any timed request: the same Query a single
// node runs. For a cluster the reference is the single-node sharded
// Query, which the router's merge must reproduce bit for bit.
func computeRefs(items []*item, refs map[string]dpgrid.Synopsis) {
	for _, it := range items {
		if !it.isQuery() {
			continue
		}
		syn := refs[it.q.kind]
		it.want = make([]float64, len(it.q.rects))
		for i, r := range it.q.rects {
			it.want[i] = syn.Query(dpgrid.NewRect(r[0], r[1], r[2], r[3]))
		}
	}
}

// checkAnswer compares one response with its reference: any non-200,
// undecodable body, partial answer or count that is not == its
// reference is a failure.
func checkAnswer(it *item, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", it.method, it.path, status, body)
	}
	if !it.isQuery() {
		return nil
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	if resp.Partial {
		return fmt.Errorf("partial answer: %.200s", body)
	}
	if len(resp.Counts) != len(it.want) {
		return fmt.Errorf("%d counts for %d rects", len(resp.Counts), len(it.want))
	}
	for i, v := range resp.Counts {
		if v != it.want[i] {
			return fmt.Errorf("rect %v: got %v, reference %v", it.q.rects[i], v, it.want[i])
		}
	}
	return nil
}
