package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func TestUGSerializeRoundTrip(t *testing.T) {
	dom := geom.MustDomain(-10, 5, 30, 45)
	pts := clusteredPoints(41, 5000, dom)
	orig, err := BuildUniformGrid(pts, dom, 0.7, UGOptions{GridSize: 17}, noise.NewSource(41))
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseUniformGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GridSize() != 17 || loaded.Epsilon() != 0.7 {
		t.Errorf("metadata lost: m=%d eps=%g", loaded.GridSize(), loaded.Epsilon())
	}
	// Every query must answer identically.
	for _, r := range []geom.Rect{
		geom.NewRect(-10, 5, 30, 45),
		geom.NewRect(0, 10, 15, 30),
		geom.NewRect(-9.5, 5.5, -2.25, 12.125),
	} {
		if a, b := orig.Query(r), loaded.Query(r); a != b {
			t.Errorf("Query(%v): %g before, %g after round trip", r, a, b)
		}
	}
}

func TestAGSerializeRoundTrip(t *testing.T) {
	dom := geom.MustDomain(0, 0, 20, 20)
	pts := clusteredPoints(42, 8000, dom)
	orig, err := BuildAdaptiveGrid(pts, dom, 1.2, AGOptions{M1: 6, Alpha: 0.4}, noise.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseAdaptiveGridBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M1() != 6 || loaded.Alpha() != 0.4 || loaded.Epsilon() != 1.2 {
		t.Errorf("metadata lost: m1=%d alpha=%g eps=%g", loaded.M1(), loaded.Alpha(), loaded.Epsilon())
	}
	if loaded.LeafCells() != orig.LeafCells() {
		t.Errorf("leaf cells %d != %d", loaded.LeafCells(), orig.LeafCells())
	}
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 20, 20),
		geom.NewRect(3.3, 4.4, 15.5, 16.6),
		geom.NewRect(9.99, 9.99, 10.01, 10.01),
	} {
		a, b := orig.Query(r), loaded.Query(r)
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Errorf("Query(%v): %g before, %g after round trip", r, a, b)
		}
	}
	// TotalEstimate survives.
	if math.Abs(loaded.TotalEstimate()-orig.TotalEstimate()) > 1e-9*(1+math.Abs(orig.TotalEstimate())) {
		t.Errorf("TotalEstimate %g != %g", loaded.TotalEstimate(), orig.TotalEstimate())
	}
}

// Field offsets shared by the UG and AG containers: 8-byte magic, then
// the u16 version and kind, then the four domain bounds and epsilon.
const (
	offVersion = 8
	offKind    = 10
	offDomain  = 12
	offEps     = 44
)

// patch returns a copy of data with f applied.
func patch(data []byte, f func(b []byte)) []byte {
	out := bytes.Clone(data)
	f(out)
	return out
}

func putF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

func TestParseUniformGridRejectsCorruption(t *testing.T) {
	dom := geom.MustDomain(0, 0, 4, 4)
	ug, err := BuildUniformGrid(nil, dom, 1, UGOptions{GridSize: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ug.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// UG body after epsilon: m, mx, my (u32 at 52, 56, 60), then the
	// counts section's u64 length at 64 and its first value at 72.
	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"wrong format", func(b []byte) { binary.LittleEndian.PutUint16(b[offKind:], uint16(codec.KindAdaptive)) }},
		{"future version", func(b []byte) { binary.LittleEndian.PutUint16(b[offVersion:], 99) }},
		{"zero m", func(b []byte) { binary.LittleEndian.PutUint32(b[52:], 0) }},
		{"counts length mismatch", func(b []byte) { binary.LittleEndian.PutUint64(b[64:], 3) }},
		{"bad epsilon", func(b []byte) { putF64(b, offEps, -1) }},
		{"bad domain", func(b []byte) {
			for i, v := range []float64{5, 5, 1, 1} {
				putF64(b, offDomain+8*i, v)
			}
		}},
		{"nan count", func(b []byte) { putF64(b, 72, math.NaN()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseUniformGridBinary(patch(data, tc.mut)); err == nil {
				t.Error("corrupted synopsis accepted")
			}
		})
	}
}

func TestParseAdaptiveGridRejectsCorruption(t *testing.T) {
	dom := geom.MustDomain(0, 0, 4, 4)
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ag.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// AG body after epsilon: alpha (f64 at 52), then m1 (u32 at 60).
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong format", patch(data, func(b []byte) { binary.LittleEndian.PutUint16(b[offKind:], uint16(codec.KindUniform)) })},
		{"bad alpha", patch(data, func(b []byte) { putF64(b, 52, 2.0) })},
		{"cells mismatch", patch(data, func(b []byte) { binary.LittleEndian.PutUint32(b[60:], 5) })},
		{"not json", []byte("{{{{")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseAdaptiveGridBinary(tc.data); err == nil {
				t.Error("corrupted synopsis accepted")
			}
		})
	}
}

func TestParseUGWrongKind(t *testing.T) {
	dom := geom.MustDomain(0, 0, 4, 4)
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, noise.Zero)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ag.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUniformGridBinary(data); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("AG file parsed as UG: %v", err)
	}
}
