package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dpgrid/dpgrid"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{1010, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{200, 0.99, false},
		{10000, 0.999, true},
		{9999, 0.999, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		_, err := tailQuantile(xs, tc.q)
		if got := err == nil; got != tc.want {
			t.Errorf("n=%d q=%g: ok=%v, want %v (err %v)", tc.n, tc.q, got, tc.want, err)
		}
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q            float64
		want         float64
		beyond       int
		tailRejected bool
	}{
		{0.5, 500, 500, false},
		{0.99, 990, 10, false},
		{0.999, 999, 1, true},
	} {
		v, beyond := quantile(xs, tc.q)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("quantile(%g) = %v (%d beyond), want %v (%d beyond)", tc.q, v, beyond, tc.want, tc.beyond)
		}
		if _, err := tailQuantile(xs, tc.q); (err != nil) != tc.tailRejected {
			t.Errorf("tailQuantile(%g) err = %v, want rejected=%v", tc.q, err, tc.tailRejected)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWindowedIgnoresAStalledWindow(t *testing.T) {
	// Five windows of 1000 samples; one second of the run stalls.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1 + float64(i%1000)/1000 // p50 1.5, p99 1.99 in every window
		if i >= 2000 && i < 3000 {
			xs[i] += 50
		}
	}
	p99, ws, err := windowed(xs, 1000, 0.99)
	if err != nil || len(ws) != 5 || p99 != xs[989] {
		t.Errorf("windowed p99 = %v over %d windows (%v), want %v over 5", p99, len(ws), err, xs[989])
	}
	if p50, _, _ := windowed(xs, 1000, 0.5); p50 != xs[499] {
		t.Errorf("windowed p50 = %v, want %v", p50, xs[499])
	}
	// 1999 samples make one window of 1999, not two short ones.
	if _, ws, err := windowed(xs[:1999], 1000, 0.99); err != nil || len(ws) != 1 {
		t.Errorf("1999 samples: %d windows, err %v", len(ws), err)
	}
	if _, _, err := windowed(xs[:999], 1000, 0.99); err == nil {
		t.Error("999 samples gave a window")
	}
}

func TestScheduleDueTimesAreFixed(t *testing.T) {
	start := time.Unix(1000, 0)
	for i, want := range []time.Duration{0, 2500 * time.Microsecond, 5 * time.Millisecond} {
		if got := dueAt(start, 400, i).Sub(start); got != want {
			t.Errorf("slot %d due at +%v, want +%v", i, got, want)
		}
	}
	// The last slot of a 10 s schedule at 400/s is due just before 10 s.
	if got := dueAt(start, 400, 3999).Sub(start); got != 9997500*time.Microsecond {
		t.Errorf("last slot due at +%v", got)
	}
}

func testGenerator(t *testing.T, seed int64) *generator {
	t.Helper()
	dom, err := dpgrid.NewDomain(-180, -70, 180, 80)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(seed, dom)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var testNames = map[string]string{kindUG: "u", kindAG: "a", kindSH: "s"}

func TestScheduleIsSeededAndShaped(t *testing.T) {
	for _, w := range workloads {
		a, err := schedule(w, testGenerator(t, 5), 600, testNames, []byte("release"))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := schedule(w, testGenerator(t, 5), 600, testNames, []byte("release"))
		c, _ := schedule(w, testGenerator(t, 6), 600, testNames, []byte("release"))
		same, differ := true, false
		puts := 0
		for i := range a {
			same = same && string(a[i].body) == string(b[i].body)
			differ = differ || string(a[i].body) != string(c[i].body)
			if !a[i].isQuery() {
				puts++
				if a[i].method != http.MethodPut || a[i].path != "/v1/synopses/a" {
					t.Errorf("%s: slot %d is %s %s", w.name, i, a[i].method, a[i].path)
				}
				continue
			}
			var req queryRequest
			if err := json.Unmarshal(a[i].body, &req); err != nil {
				t.Fatal(err)
			}
			checkShape(t, w, a[i].q, req)
		}
		if !same || !differ {
			t.Errorf("%s: same seed same stream = %v, other seed other stream = %v", w.name, same, differ)
		}
		if wantPuts := putsIn(w, 600); puts != wantPuts {
			t.Errorf("%s: %d PUTs in 600 slots, want %d", w.name, puts, wantPuts)
		}
	}
}

func putsIn(w *workload, n int) int {
	if w.putEvery == 0 {
		return 0
	}
	return n / w.putEvery
}

func checkShape(t *testing.T, w *workload, q query, req queryRequest) {
	t.Helper()
	g := testGenerator(t, 1)
	dom := g.dom
	if req.Synopsis != testNames[q.kind] || len(req.Rects) != len(q.rects) {
		t.Fatalf("%s: request %+v does not encode query %+v", w.name, req, q)
	}
	switch w.name {
	case "node-point":
		if len(q.rects) != 1 {
			t.Errorf("node-point: %d rects", len(q.rects))
		}
	case "node-batch-hot":
		if len(q.rects) != 64 || q.kind == kindUG {
			t.Errorf("node-batch-hot: %d rects on %s", len(q.rects), q.kind)
		}
	case "cluster-scatter":
		if n := len(q.rects); n < 1 || n > 4 || q.kind != kindSH {
			t.Errorf("cluster-scatter: %d rects on %s", n, q.kind)
		}
	}
	for _, r := range q.rects {
		if r[0] >= r[2] || r[1] >= r[3] || r[0] < dom.MinX || r[2] > dom.MaxX || r[1] < dom.MinY || r[3] > dom.MaxY {
			t.Errorf("%s: rect %v is empty or leaves the domain", w.name, r)
		}
		if w.name == "node-point" {
			if f := (r[2] - r[0]) / dom.Width(); f < 0.005-1e-12 || f > 0.5+1e-12 {
				t.Errorf("node-point: side fraction %g outside [0.005, 0.5]", f)
			}
		}
	}
}

func TestClusterRectsHalfOneTile(t *testing.T) {
	g := testGenerator(t, 3)
	w, _ := workloadByName("cluster-scatter")
	one, many, full := 0, 0, 0
	for i := 0; i < 2000; i++ {
		for _, r := range g.draw(w).rects {
			switch n := len(g.plan.OverlappingTiles(dpgrid.NewRect(r[0], r[1], r[2], r[3]))); {
			case n == 1:
				one++
			case n == shardKX*shardKY:
				full++
				many++
			default:
				many++
			}
		}
	}
	if frac := float64(one) / float64(one+many); math.Abs(frac-0.5) > 0.05 {
		t.Errorf("one-tile fraction %.3f, want about 0.5", frac)
	}
	if full == 0 {
		t.Error("no rect spans the full mosaic")
	}
}

func TestHotSetShare(t *testing.T) {
	g := testGenerator(t, 4)
	w, _ := workloadByName("node-batch-hot")
	hot := map[[4]float64]bool{}
	for _, r := range g.hot {
		hot[r] = true
	}
	n, h := 0, 0
	for i := 0; i < 200; i++ {
		for _, r := range g.draw(w).rects {
			n++
			if hot[r] {
				h++
			}
		}
	}
	if frac := float64(h) / float64(n); math.Abs(frac-0.8) > 0.03 {
		t.Errorf("hot share %.3f, want about 0.8", frac)
	}
}

func TestCheckAnswer(t *testing.T) {
	it := &item{method: http.MethodPost, path: "/v1/query",
		q: query{rects: [][4]float64{{0, 0, 1, 1}, {1, 1, 2, 2}}}, want: []float64{12.5, -0.25}}
	answer := func(counts []float64, partial bool) []byte {
		b, err := json.Marshal(queryResponse{Synopsis: "s", Counts: counts, Partial: partial})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		fail   string
	}{
		{"exact", 200, answer([]float64{12.5, -0.25}, false), ""},
		{"one ulp off", 200, answer([]float64{12.5, math.Nextafter(-0.25, 0)}, false), "reference"},
		{"partial", 200, answer([]float64{12.5, -0.25}, true), "partial"},
		{"short", 200, answer([]float64{12.5}, false), "1 counts for 2 rects"},
		{"status", 503, []byte(`{"error":"x"}`), "status 503"},
		{"garbage", 200, []byte(`{`), "undecodable"},
	} {
		err := checkAnswer(it, tc.status, tc.body)
		if tc.fail == "" && err != nil || tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)) {
			t.Errorf("%s: err = %v, want failure containing %q", tc.name, err, tc.fail)
		}
	}
	put := &item{method: http.MethodPut, path: "/v1/synopses/a"}
	if err := checkAnswer(put, 200, []byte(`{"loaded":"a"}`)); err != nil {
		t.Errorf("PUT 200: %v", err)
	}
	if err := checkAnswer(put, 400, nil); err == nil {
		t.Error("PUT 400 passed the check")
	}
}

func TestSweepRemovesOnlyDeadRuns(t *testing.T) {
	dir := t.TempDir()
	live := fmt.Sprintf("node-point-1-%d", os.Getpid())
	for _, name := range []string{live, "node-point-1-999999999", "unrelated"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sweepDeadRuns(dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if strings.Join(left, " ") != live+" unrelated" {
		t.Errorf("left %v, want the live run and the unrelated entry", left)
	}
}

func TestCorruptChangesOneReference(t *testing.T) {
	items := []*item{
		{method: http.MethodPut},
		{method: http.MethodPost, want: []float64{3, 4}},
		{method: http.MethodPost, want: []float64{5}},
	}
	corrupt(items)
	if items[1].want[0] == 3 || items[1].want[1] != 4 || items[2].want[0] != 5 {
		t.Errorf("corrupt changed %v %v", items[1].want, items[2].want)
	}
}
