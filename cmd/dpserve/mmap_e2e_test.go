package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/cluster"
	"github.com/dpgrid/dpgrid/internal/codec"
)

// stripSATTrailer removes the summed-area trailer from a UG/AG
// container by decoding the dimension fields off the wire, yielding the
// bytes an older writer would have produced.
func stripSATTrailer(t *testing.T, data []byte) []byte {
	t.Helper()
	d, kind, err := codec.NewDec(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Domain(); err != nil {
		t.Fatal(err)
	}
	d.F64() // eps
	var mx, my int
	switch kind {
	case codec.KindUniform:
		d.Int32()
		mx, my = d.Int32(), d.Int32()
	case codec.KindAdaptive:
		d.F64()
		mx = d.Int32()
		my = mx
	default:
		t.Fatalf("stripSATTrailer: kind %v", kind)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	satLen := 2 + 8 + 8*(mx+1)*(my+1)
	return bytes.Clone(data[:len(data)-satLen])
}

// postQueryBody sends the rect batch and returns the raw response body
// bytes, so equivalence checks compare serialized output — not
// re-parsed floats.
func postQueryBody(t *testing.T, url string, req queryRequest) []byte {
	t.Helper()
	return postRawBody(t, url+"/v1/query", req)
}

// postRawBody POSTs req as JSON to url and returns the raw body of the
// 200 response.
func postRawBody(t *testing.T, url string, req any) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestMmapSATServingEquivalence: the same rect batch answered from
// every serving configuration — plain read vs -mmap, SAT-bearing file
// vs the trailer stripped — produces byte-identical JSON response
// bodies. The fast path and the mapping are performance levers, never
// answer levers.
func TestMmapSATServingEquivalence(t *testing.T) {
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsisBinary(&buf, testSynopsis(t, 17)); err != nil {
		t.Fatal(err)
	}
	satBytes := buf.Bytes()
	strippedBytes := stripSATTrailer(t, satBytes)

	dir := t.TempDir()
	files := map[string]string{
		"sat":      filepath.Join(dir, "sat.dpgrid"),
		"stripped": filepath.Join(dir, "stripped.dpgrid"),
	}
	if err := os.WriteFile(files["sat"], satBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files["stripped"], strippedBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	req := queryRequest{
		Synopsis: "syn",
		Rects: [][4]float64{
			{10, 10, 40, 40},
			{0, 0, 100, 100},
			{55.5, 1.25, 99, 63},
			{33, 33, 33.001, 33.001},
		},
	}
	bodies := make(map[string][]byte)
	for variant, path := range files {
		for _, mmap := range []bool{false, true} {
			reg := newRegistry()
			if err := reg.loadFile("syn", path, mmap); err != nil {
				t.Fatalf("%s mmap=%v: %v", variant, mmap, err)
			}
			srv := newTestServer(t, reg)
			key := variant + "/mmap"
			if !mmap {
				key = variant + "/read"
			}
			bodies[key] = postQueryBody(t, srv.URL, req)
		}
	}
	want := bodies["sat/read"]
	for key, got := range bodies {
		if !bytes.Equal(got, want) {
			t.Errorf("%s response differs from sat/read:\n  %s\n  %s", key, got, want)
		}
	}
}

// TestMmapClusterQueryEquivalence: a sharded release loaded with -mmap
// answers the backend half of cluster mode (/v1/cluster/query) with
// partials byte-identical to the same file read onto the heap.
func TestMmapClusterQueryEquivalence(t *testing.T) {
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsisBinary(&buf, testClusterSharded(t, 41)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.dpgrid")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	req := cluster.ShardQueryRequest{
		Synopsis: "checkins",
		Tiles:    []int{0, 1, 2, 3, 4, 5},
		Rects: [][4]float64{
			{10, 10, 40, 40},
			{0, 0, 100, 100},
			{55.5, 1.25, 99, 63},
			{33, 33, 33.001, 33.001},
		},
	}
	var bodies [2][]byte
	for i, mmap := range []bool{false, true} {
		reg := newRegistry()
		if err := reg.loadFile("checkins", path, mmap); err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		srv := newTestServer(t, reg)
		bodies[i] = postRawBody(t, srv.URL+cluster.ShardQueryPath, req)
	}
	if !bytes.Equal(bodies[1], bodies[0]) {
		t.Errorf("mmap partials differ from read:\n  %s\n  %s", bodies[1], bodies[0])
	}
}

// TestMmapSATMetrics: serving a mapped SAT-backed synopsis surfaces the
// mapped-bytes gauge and counts computed rectangles on the SAT fast
// path.
func TestMmapSATMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := dpgrid.WriteSynopsisBinary(&buf, testSynopsis(t, 23)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "syn.dpgrid")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	if err := reg.loadFile("syn", path, true); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg)

	postQueryBody(t, srv.URL, queryRequest{
		Synopsis: "syn",
		Rects:    [][4]float64{{10, 10, 40, 40}, {0, 0, 100, 100}},
	})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, family := range []string{"dpserve_mapped_bytes", "dpserve_sat_queries_total"} {
		if !strings.Contains(metrics, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(metrics, `dpserve_sat_queries_total{synopsis="syn"} 2`) {
		t.Errorf("sat counter did not record 2 computed rects:\n%s", grepMetrics(metrics, "sat_queries"))
	}
	if mb := reg.mappedBytes(); mb > 0 {
		want := "dpserve_mapped_bytes " + strconv.FormatFloat(float64(mb), 'g', -1, 64)
		if !strings.Contains(metrics, want) {
			t.Errorf("mapped-bytes gauge does not report %d:\n%s", mb, grepMetrics(metrics, "mapped_bytes"))
		}
	} else if !strings.Contains(metrics, "dpserve_mapped_bytes 0") {
		t.Errorf("mapped-bytes gauge not zero on the read fallback:\n%s", grepMetrics(metrics, "mapped_bytes"))
	}
}

// grepMetrics returns the exposition lines mentioning needle, for
// failure messages.
func grepMetrics(metrics, needle string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
