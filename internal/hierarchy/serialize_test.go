package hierarchy

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

func buildTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(7, 500, dom)
	h, err := BuildHierarchy(pts, dom, 1, Options{GridSize: 8, Branching: 2, Depth: 3}, noise.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyBinaryRoundTrip(t *testing.T) {
	h := buildTestHierarchy(t)
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHierarchyBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatal("binary round trip not bit-identical")
	}
	if got.Domain() != h.Domain() || got.Epsilon() != h.Epsilon() {
		t.Fatal("metadata changed across round trip")
	}
	want := h.LevelSizes()
	for i, s := range got.LevelSizes() {
		if s != want[i] {
			t.Fatalf("level sizes %v, want %v", got.LevelSizes(), want)
		}
	}
	r := geom.Rect{MinX: 1, MinY: 2, MaxX: 7, MaxY: 9}
	if got.Query(r) != h.Query(r) {
		t.Fatal("answers changed across round trip")
	}

	info, err := ValidateHierarchyBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dom != h.Domain() || info.Eps != h.Epsilon() {
		t.Fatalf("Validate info = %+v", info)
	}
}

func TestHierarchyBinaryRejectsCorruption(t *testing.T) {
	h := buildTestHierarchy(t)
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 8, 12, len(data) / 2, len(data) - 1} {
			if _, err := ParseHierarchyBinary(data[:n]); err == nil {
				t.Errorf("accepted %d-byte prefix", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := ParseHierarchyBinary(append(append([]byte(nil), data...), 0)); err == nil {
			t.Error("accepted trailing byte")
		}
	})
	t.Run("indivisible shape", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// grid size field follows magic+version+kind (12) + domain (32) +
		// epsilon (8).
		bad[52] = 9
		if _, err := ParseHierarchyBinary(bad); err == nil || !strings.Contains(err.Error(), "divisible") {
			t.Errorf("indivisible grid size: err = %v", err)
		}
	})
	t.Run("border violation", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// First prefix-sum entry (a border cell) lives at the end of the
		// fixed header: 12+32+8+3*4 + 8-byte section length.
		bad[64+8] = 1
		if _, err := ParseHierarchyBinary(bad); err == nil || !strings.Contains(err.Error(), "border") {
			t.Errorf("border violation: err = %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		other := codec.NewEnc(nil, codec.KindUniform).Bytes()
		if _, err := ParseHierarchyBinary(other); err == nil {
			t.Error("accepted a non-hierarchy container")
		}
	})
}

// TestHierarchyBinaryRejectsBadShape: a well-framed container whose shape
// or budget fields are invalid is refused, as is a document in the retired
// JSON format.
func TestHierarchyBinaryRejectsBadShape(t *testing.T) {
	data, err := buildTestHierarchy(t).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The shape fields follow header (12) + domain (32) + epsilon (8):
	// grid size at 52, branching at 56, depth at 60 (u32 each).
	for name, mangle := range map[string]func(b []byte){
		"bad branching": func(b []byte) { b[56] = 3 },
		"zero depth":    func(b []byte) { b[60] = 0 },
		"bad epsilon":   func(b []byte) { binary.LittleEndian.PutUint64(b[44:], math.Float64bits(-1)) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			mangle(bad)
			if _, err := ParseHierarchyBinary(bad); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
	t.Run("wrong format", func(t *testing.T) {
		legacy := []byte(`{"format":"dpgrid/hierarchy","grid_size":8,"branching":2,"depth":3}`)
		if _, err := ParseHierarchyBinary(legacy); err == nil || !strings.Contains(err.Error(), codec.Magic) {
			t.Errorf("JSON document: err = %v", err)
		}
	})
}
