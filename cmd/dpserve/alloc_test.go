// The race detector makes sync.Pool drop items at random, so
// allocation counts are only deterministic without it.

//go:build !race

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
)

// allocRuns is the AllocsPerRun count of TestQueryAllocs: enough runs
// that a sync.Pool refill after a stray collection averages out below
// one allocation per request.
const allocRuns = 200

// TestQueryAllocs gates the allocations of an in-process 1-rect
// POST /v1/query through the full handler stack (deadline, admission,
// mux, decode, cache miss, kernel, encode) at the serving defaults.
// Allocation counts are deterministic where timings are not, so a
// per-request goroutine or response buffer that creeps back into the
// serving path fails here rather than hiding in benchmark noise. The
// ceilings sit a few allocations above the counts measured with go1.24
// (45, 45, 46), leaving room for drift between Go releases in net/http
// and encoding/json, and below the 60-61 the path took when every
// request spawned a timeout goroutine and buffered its response.
func TestQueryAllocs(t *testing.T) {
	dom, err := dpgrid.NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pts := make([]dpgrid.Point, 5000)
	for i := range pts {
		pts[i] = dpgrid.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	ug, err := dpgrid.BuildUniformGrid(pts, dom, 1, dpgrid.UGOptions{}, dpgrid.NewNoiseSource(5))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		syn     dpgrid.Synopsis
		ceiling float64
	}{
		{"ug", ug, 50},
		{"ag", testSynopsis(t, 6), 50},
		{"sharded-ag", testShardedSynopsis(t, 7), 51},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newRegistry()
			reg.put("syn", tc.syn)
			h := newDPServer(reg, serverOptions{cacheEntries: 4096, requestTimeout: time.Minute}).handler()

			// A fresh unaligned rect per request, so every run misses the
			// cache and reaches the kernel. AllocsPerRun makes one warm-up
			// call before the counted runs.
			bodies := make([][]byte, allocRuns+1)
			for i := range bodies {
				x, y := rng.Float64()*60, rng.Float64()*60
				bodies[i] = []byte(fmt.Sprintf(`{"synopsis":"syn","rects":[[%g,%g,%g,%g]]}`,
					x, y, x+1+rng.Float64()*39, y+1+rng.Float64()*39))
			}
			next := 0
			got := testing.AllocsPerRun(allocRuns, func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[next]))
				next++
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
			t.Logf("%s: %.0f allocs per 1-rect query", tc.name, got)
			if got > tc.ceiling {
				t.Errorf("%s: %.0f allocs per 1-rect query, ceiling %.0f", tc.name, got, tc.ceiling)
			}
		})
	}
}
