package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
)

// postQuery sends one POST /v1/query and returns the decoded counts.
func postQuery(t *testing.T, url, synopsis string, rects [][4]float64) []float64 {
	t.Helper()
	body, _ := json.Marshal(queryRequest{Synopsis: synopsis, Rects: rects})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status = %d: %s", resp.StatusCode, raw)
	}
	var got queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got.Counts
}

// scrapeMetrics GETs /metrics, checks the exposition is well formed
// line by line, and returns every series as name{labels} -> value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = v
	}
	if len(series) == 0 {
		t.Fatal("metrics exposition held no series")
	}
	return series
}

// TestMetricsEndpoint drives a lazily loaded sharded synopsis through
// the API and asserts the exposition parses and every counter family
// the issue names moves as traffic flows.
func TestMetricsEndpoint(t *testing.T) {
	syn := testShardedSynopsis(t, 71) // 2x2 mosaic over [0,100]^2
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsisBinary(&buf, syn); err != nil {
		t.Fatal(err)
	}
	lazy, err := dpgrid.ReadSynopsisLazy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	reg.put("mosaic", lazy)
	dps := newTestDPServer(reg, serverOptions{})
	srv := httptest.NewServer(dps.handler())
	t.Cleanup(srv.Close)

	// Before traffic: gauges present, counters absent or zero.
	before := scrapeMetrics(t, srv.URL)
	if got := before["dpserve_synopses"]; got != 1 {
		t.Fatalf("dpserve_synopses = %g, want 1", got)
	}
	if got := before["dpserve_cache_entries"]; got != 0 {
		t.Fatalf("dpserve_cache_entries = %g, want 0 before traffic", got)
	}

	// Request 1: two rects, both inside the lower-left tile (fan-out 1
	// each, one lazy materialization total). Request 2 repeats the first
	// rect (cache hit) and adds a straddling rect (fan-out 4, three more
	// materializations).
	postQuery(t, srv.URL, "mosaic", [][4]float64{{5, 5, 20, 20}, {10, 10, 30, 30}})
	postQuery(t, srv.URL, "mosaic", [][4]float64{{5, 5, 20, 20}, {45, 45, 55, 55}})

	m := scrapeMetrics(t, srv.URL)
	want := map[string]float64{
		`dpserve_query_rects_total{synopsis="mosaic"}`:           4,
		`dpserve_query_request_seconds_count{synopsis="mosaic"}`: 2,
		`dpserve_cache_hits_total{synopsis="mosaic"}`:            1,
		`dpserve_cache_misses_total{synopsis="mosaic"}`:          3,
		`dpserve_shard_fanout_count{synopsis="mosaic"}`:          3, // misses only
		`dpserve_shard_fanout_sum{synopsis="mosaic"}`:            6, // 1 + 1 + 4
		`dpserve_lazy_materializations_total{synopsis="mosaic"}`: 4,
		"dpserve_cache_entries":                                  3,
		"dpserve_decode_errors_total":                            0,
		"dpserve_requests_rejected_total":                        0,
		"dpserve_inflight_requests":                              0,
	}
	for series, wantV := range want {
		got, ok := m[series]
		if !ok {
			t.Errorf("series %s missing from exposition", series)
			continue
		}
		if got != wantV {
			t.Errorf("%s = %g, want %g", series, got, wantV)
		}
	}
	// The latency histogram carries cumulative buckets ending at +Inf.
	if got := m[`dpserve_query_request_seconds_bucket{synopsis="mosaic",le="+Inf"}`]; got != 2 {
		t.Errorf("latency +Inf bucket = %g, want 2", got)
	}

	// A rejected upload moves the decode-error counter.
	put, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/bad", strings.NewReader("{garbage"))
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad PUT status = %d, want 400", resp.StatusCode)
	}
	if got := scrapeMetrics(t, srv.URL)["dpserve_decode_errors_total"]; got != 1 {
		t.Errorf("dpserve_decode_errors_total = %g, want 1", got)
	}
}

// TestCachedAnswersBitIdentical proves the cache is semantically
// transparent: answers served from the cache, answers computed on a
// cache miss, and answers from a cache-disabled server are all equal
// bit for bit — and match direct library queries.
func TestCachedAnswersBitIdentical(t *testing.T) {
	syn := testSynopsis(t, 72)
	rects := [][4]float64{
		{10, 10, 40, 40},
		{0, 0, 100, 100},
		{55.5, 1.25, 99, 63},
		{40, 40, 10, 10}, // swapped corners canonicalize to rect 0
	}
	reg := newRegistry()
	reg.put("main", syn)
	cached := httptest.NewServer(newDPServer(reg, serverOptions{cacheEntries: 64}).handler())
	t.Cleanup(cached.Close)
	uncachedReg := newRegistry()
	uncachedReg.put("main", syn)
	uncached := httptest.NewServer(newDPServer(uncachedReg, serverOptions{cacheEntries: 0}).handler())
	t.Cleanup(uncached.Close)

	first := postQuery(t, cached.URL, "main", rects)   // all misses
	second := postQuery(t, cached.URL, "main", rects)  // all hits
	plain := postQuery(t, uncached.URL, "main", rects) // never cached
	for i, q := range rects {
		direct := syn.Query(dpgrid.NewRect(q[0], q[1], q[2], q[3]))
		if first[i] != direct || second[i] != direct || plain[i] != direct {
			t.Errorf("rect %d: direct %v, miss %v, hit %v, uncached %v — must all be identical",
				i, direct, first[i], second[i], plain[i])
		}
	}
	// All four rects missed on the first request and hit on the second;
	// the swapped-corner rect canonicalized into rect 0's entry, so only
	// three distinct answers are cached.
	m := scrapeMetrics(t, cached.URL)
	if got := m[`dpserve_cache_misses_total{synopsis="main"}`]; got != 4 {
		t.Errorf("cache misses = %g, want 4", got)
	}
	if got := m[`dpserve_cache_hits_total{synopsis="main"}`]; got != 4 {
		t.Errorf("cache hits = %g, want 4", got)
	}
	if got := m["dpserve_cache_entries"]; got != 3 {
		t.Errorf("cache entries = %g, want 3 (swapped corners share one entry)", got)
	}
	// A cache-disabled server reports no hit/miss series at all — an
	// operator who turned the cache off should not see "misses".
	um := scrapeMetrics(t, uncached.URL)
	for _, series := range []string{
		`dpserve_cache_hits_total{synopsis="main"}`,
		`dpserve_cache_misses_total{synopsis="main"}`,
	} {
		if _, present := um[series]; present {
			t.Errorf("cache-disabled server exposes %s", series)
		}
	}
}

// TestCacheInvalidatedOnPut: replacing a synopsis under a name must
// drop its cached answers — the same rect re-queried after the swap
// answers from the new release.
func TestCacheInvalidatedOnPut(t *testing.T) {
	old := testSynopsis(t, 73)
	repl := testSynopsis(t, 74) // different seed, different answers
	reg := newRegistry()
	reg.put("main", old)
	dps := newTestDPServer(reg, serverOptions{})
	srv := httptest.NewServer(dps.handler())
	t.Cleanup(srv.Close)

	rect := [][4]float64{{10, 10, 60, 60}}
	r := dpgrid.NewRect(10, 10, 60, 60)
	got := postQuery(t, srv.URL, "main", rect)
	if got[0] != old.Query(r) {
		t.Fatalf("pre-swap answer %v, want %v", got[0], old.Query(r))
	}
	postQuery(t, srv.URL, "main", rect) // warm the cache

	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsisBinary(&buf, repl); err != nil {
		t.Fatal(err)
	}
	put, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/synopses/main", &buf)
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if dps.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after PUT, want 0", dps.cache.Len())
	}

	got = postQuery(t, srv.URL, "main", rect)
	if want := repl.Query(r); got[0] != want {
		t.Fatalf("post-swap answer %v, want the replacement's %v (old was %v)",
			got[0], want, old.Query(r))
	}
}

// TestCacheInvalidatedOnDelete: retiring a name drops its cached
// answers, and a later re-registration under the same name cannot see
// them (fresh generation).
func TestCacheInvalidatedOnDelete(t *testing.T) {
	old := testSynopsis(t, 75)
	reg := newRegistry()
	reg.put("main", old)
	dps := newTestDPServer(reg, serverOptions{})
	srv := httptest.NewServer(dps.handler())
	t.Cleanup(srv.Close)

	rect := [][4]float64{{20, 20, 70, 70}}
	postQuery(t, srv.URL, "main", rect)
	if dps.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", dps.cache.Len())
	}

	del, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/synopses/main", nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if dps.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after DELETE, want 0", dps.cache.Len())
	}
	// DELETE also retires the name's metric series, so cardinality
	// tracks the live registry under name churn.
	for series := range scrapeMetrics(t, srv.URL) {
		if strings.Contains(series, `synopsis="main"`) {
			t.Errorf("retired synopsis still exposes %s", series)
		}
	}

	// Re-register a different synopsis under the same name: answers come
	// from it, not any cache remnant.
	repl := testSynopsis(t, 76)
	reg.put("main", repl)
	got := postQuery(t, srv.URL, "main", rect)
	r := dpgrid.NewRect(20, 20, 70, 70)
	if want := repl.Query(r); got[0] != want {
		t.Fatalf("post-delete answer %v, want %v", got[0], want)
	}
}

// blockingSynopsis signals when a query starts and then blocks until
// released — the fixture for exercising admission and timeouts
// deterministically.
type blockingSynopsis struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingSynopsis) Query(dpgrid.Rect) float64 {
	b.started <- struct{}{}
	<-b.release
	return 1
}

// TestMaxInflightRejects: with -max-inflight 1, a request that arrives
// while another is in flight gets an immediate 429 (and the rejection
// counter moves); the admitted request still completes.
func TestMaxInflightRejects(t *testing.T) {
	blk := &blockingSynopsis{started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := newRegistry()
	reg.put("slow", blk)
	dps := newDPServer(reg, serverOptions{cacheEntries: 0, maxInflight: 1})
	srv := httptest.NewServer(dps.handler())
	t.Cleanup(srv.Close)

	firstDone := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(queryRequest{Synopsis: "slow", Rects: [][4]float64{{0, 0, 1, 1}}})
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("first request status = %d", resp.StatusCode)
			return
		}
		firstDone <- nil
	}()
	<-blk.started // the slot is held and the handler is inside Query

	body, _ := json.Marshal(queryRequest{Synopsis: "slow", Rects: [][4]float64{{0, 0, 1, 1}}})
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body not a JSON error: %v, %+v", err, e)
	}
	if got := dps.met.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Health and metrics bypass the limiter even while the API is full.
	for _, path := range []string{"/healthz", "/metrics"} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("GET %s during saturation = %d, want 200", path, r2.StatusCode)
		}
	}

	close(blk.release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeout: a query outliving -request-timeout is answered
// with a JSON 503 — and its admission slot stays held until the work
// actually finishes, so timed-out requests cannot pile unbounded
// concurrent work behind -max-inflight. The deadline is cooperative:
// the batch's first rect blocks past it, and the 503 arrives when that
// rect returns and the check before the second rect fires.
func TestRequestTimeout(t *testing.T) {
	const timeout = 30 * time.Millisecond
	blk := &blockingSynopsis{started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := newRegistry()
	reg.put("slow", blk)
	dps := newDPServer(reg, serverOptions{
		cacheEntries:   0,
		maxInflight:    1,
		requestTimeout: timeout,
	})
	srv := httptest.NewServer(dps.handler())
	t.Cleanup(srv.Close)

	type result struct {
		status      int
		contentType string
		body        []byte
		err         error
	}
	first := make(chan result, 1)
	body, _ := json.Marshal(queryRequest{Synopsis: "slow", Rects: [][4]float64{{0, 0, 1, 1}, {0, 0, 2, 2}}})
	go func() {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		first <- result{resp.StatusCode, resp.Header.Get("Content-Type"), raw, err}
	}()
	<-blk.started
	// The deadline was set at admission, before the first rect started,
	// so it has passed once this sleep ends; the rect is still blocked.
	time.Sleep(timeout)

	// The timed-out query is still computing, so its slot is still held:
	// a new request must be rejected, not admitted on top of it.
	r2, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request during timed-out query = %d, want 429 (slot must stay held)", r2.StatusCode)
	}
	select {
	case res := <-first:
		t.Fatalf("answered (%d) while its first rect was still blocked", res.status)
	default:
	}

	close(blk.release)
	res := <-first
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 past the deadline: %s", res.status, res.body)
	}
	if !strings.HasPrefix(res.contentType, "application/json") {
		t.Errorf("503 Content-Type = %q, want application/json", res.contentType)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(res.body, &e); err != nil || !strings.Contains(e.Error, "timed out") {
		t.Errorf("timeout body not a JSON error: %v, %s", err, res.body)
	}

	// Once the work finishes the slot frees and traffic flows again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r3, err := http.Get(srv.URL + "/v1/synopses")
		if err != nil {
			t.Fatal(err)
		}
		r3.Body.Close()
		if r3.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after the query finished (last status %d)", r3.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
