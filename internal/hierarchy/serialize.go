package hierarchy

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of hierarchy synopses. The released synopsis is the
// reconciled leaf grid, so — exactly like AG cells — the encoding
// persists the prefix-sum table, the synopsis's in-memory query
// structure: encode/decode never recompute sums, round trips are
// bit-identical, and decoding is an allocation plus a copy. The level
// structure (branching, depth) rides along so accessors and re-encodes
// reproduce the build configuration; the per-level sizes are derived,
// not stored.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | grid size m (u32) |
//	branching (u32) | depth (u32) |
//	prefix sums (length-prefixed f64 section, (m+1)^2 row-major)

func init() {
	codec.Register(codec.Registration{
		Kind: codec.KindHierarchy,
		Name: "hierarchy",
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseHierarchyBinary(data)
		},
		Validate: ValidateHierarchyBinary,
	})
}

// ContainerKind reports the synopsis's container kind.
func (h *Hierarchy) ContainerKind() codec.Kind { return codec.KindHierarchy }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (h *Hierarchy) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindHierarchy)
	e.Domain(h.dom)
	e.F64(h.eps)
	e.U32(uint32(h.opts.GridSize))
	e.U32(uint32(h.opts.Branching))
	e.U32(uint32(h.opts.Depth))
	e.F64s(h.prefix.Sums())
	return e.Bytes(), nil
}

// checkShape validates the level structure: positive leaf size within
// the cell cap, positive depth, and — when the hierarchy has coarser
// levels — a branching factor that divides every level size evenly
// (the same constraint BuildHierarchy enforces). It returns the derived
// per-level sizes, leaf first.
func checkShape(m, b, d int) ([]int, error) {
	if m < 1 || uint64(m)*uint64(m) > grid.MaxCells {
		return nil, fmt.Errorf("hierarchy: invalid grid size %d", m)
	}
	if d < 1 {
		return nil, fmt.Errorf("hierarchy: invalid depth %d", d)
	}
	if d > 1 && b < 2 {
		return nil, fmt.Errorf("hierarchy: invalid branching %d for depth %d", b, d)
	}
	levels := make([]int, d)
	levels[0] = m
	for l := 1; l < d; l++ {
		if levels[l-1]%b != 0 {
			return nil, fmt.Errorf("hierarchy: level size %d not divisible by branching %d", levels[l-1], b)
		}
		levels[l] = levels[l-1] / b
		if levels[l] < 1 {
			return nil, fmt.Errorf("hierarchy: depth %d too deep for grid size %d with branching %d", d, m, b)
		}
	}
	return levels, nil
}

type hierBinary struct {
	dom     geom.Domain
	eps     float64
	m, b, d int
	levels  []int
	sums    []float64 // nil when decoded in validate-only mode
}

// decodeHierarchyBinary reads and validates a hierarchy container. With
// keep false it checks every invariant — including the prefix table's
// finiteness and zero border, scanned in place — but materializes
// nothing.
func decodeHierarchyBinary(data []byte, keep bool) (hierBinary, error) {
	var f hierBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	if kind != codec.KindHierarchy {
		return f, fmt.Errorf("hierarchy: container kind %v is not %v", kind, codec.KindHierarchy)
	}
	f.dom, err = d.Domain()
	if err != nil {
		return f, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	f.eps = d.F64()
	f.m, f.b, f.d = d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("hierarchy: invalid epsilon %g", f.eps)
	}
	f.levels, err = checkShape(f.m, f.b, f.d)
	if err != nil {
		return f, err
	}
	raw := d.RawF64s((f.m + 1) * (f.m + 1))
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("hierarchy: parse synopsis: %w", err)
	}
	if err := codec.CheckPrefixSumsRaw(raw, f.m, f.m); err != nil {
		return f, fmt.Errorf("hierarchy: %w", err)
	}
	if keep {
		f.sums = codec.DecodeF64s(raw)
	}
	return f, nil
}

func (f *hierBinary) build() (*Hierarchy, error) {
	prefix, err := grid.PrefixFromSums(f.dom, f.m, f.m, f.sums)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	return &Hierarchy{
		dom:    f.dom,
		eps:    f.eps,
		opts:   Options{GridSize: f.m, Branching: f.b, Depth: f.d},
		prefix: prefix,
		levels: f.levels,
	}, nil
}

// ParseHierarchyBinary deserializes a hierarchy dpgridv2 container,
// validating all structural invariants.
func ParseHierarchyBinary(data []byte) (*Hierarchy, error) {
	f, err := decodeHierarchyBinary(data, true)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// ValidateHierarchyBinary runs every check of ParseHierarchyBinary
// without materializing the synopsis — the registry's Validate hook,
// which is what makes hierarchy payloads embeddable in sharded
// manifests with lazy loading.
func ValidateHierarchyBinary(data []byte) (codec.Info, error) {
	f, err := decodeHierarchyBinary(data, false)
	if err != nil {
		return codec.Info{}, err
	}
	return codec.Info{Dom: f.dom, Eps: f.eps}, nil
}
