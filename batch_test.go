package dpgrid

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func batchTestData(t *testing.T, n int, seed int64) ([]Point, Domain) {
	t.Helper()
	dom, err := NewDomain(0, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts, dom
}

func batchTestRects(n int, seed int64) []Rect {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = NewRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
	}
	return rects
}

// QueryBatch must agree exactly with Query for every synopsis method
// and worker count.
func TestQueryBatchAllMethods(t *testing.T) {
	pts, dom := batchTestData(t, 8000, 1)
	rects := batchTestRects(200, 2)

	ug, err := BuildUniformGrid(pts, dom, 1, UGOptions{GridSize: 25}, NewNoiseSource(1))
	if err != nil {
		t.Fatal(err)
	}
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 6}, NewNoiseSource(2))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 32, Branching: 2, Depth: 3}, NewNoiseSource(3))
	if err != nil {
		t.Fatal(err)
	}
	kd, err := BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid}, NewNoiseSource(4))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		syn  Synopsis
	}{
		{"UG", ug}, {"AG", ag}, {"Hierarchy", hier}, {"KDHybrid", kd},
	} {
		for _, workers := range []int{0, 1, 4} {
			got := QueryBatch(tc.syn, rects, workers)
			if len(got) != len(rects) {
				t.Fatalf("%s workers=%d: %d results for %d rects", tc.name, workers, len(got), len(rects))
			}
			for i, r := range rects {
				if want := tc.syn.Query(r); got[i] != want {
					t.Fatalf("%s workers=%d rect %d: batch %v != single %v", tc.name, workers, i, got[i], want)
				}
			}
		}
	}
}

// Parallel construction through the public facade: same seed, same
// release, for every Workers value.
func TestParallelBuildFacadeDeterministic(t *testing.T) {
	pts, dom := batchTestData(t, 20000, 3)
	rects := batchTestRects(100, 4)

	ref, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{Workers: 1}, NewNoiseSource(42))
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{Workers: 8}, NewNoiseSource(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		if a, b := par.Query(r), ref.Query(r); a != b {
			t.Fatalf("rect %d: parallel %v != sequential %v", i, a, b)
		}
	}
	if _, ok := NewNoiseSource(1).(ForkableNoiseSource); !ok {
		t.Error("NewNoiseSource should return a ForkableNoiseSource")
	}
}

func TestSynopsisFileRoundTrip(t *testing.T) {
	pts, dom := batchTestData(t, 5000, 5)
	ag, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{M1: 5}, NewNoiseSource(6))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ag.dpgrid")
	if err := WriteSynopsisFile(path, ag); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The reader re-derives the level-1 totals from the cell tables, so
	// answers can differ in the last few ulps from the builder's
	// summation order — but no more.
	for _, r := range batchTestRects(50, 7) {
		a, b := got.Query(r), ag.Query(r)
		if diff := math.Abs(a - b); diff > 1e-9*(1+math.Abs(b)) {
			t.Fatalf("round-tripped synopsis answers %v, original %v", a, b)
		}
	}
	if _, err := ReadSynopsisFile(filepath.Join(t.TempDir(), "missing.dpgrid")); err == nil {
		t.Fatal("reading a missing file should error")
	}
}
