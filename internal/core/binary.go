package core

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of UG and AG synopses. A synopsis is the publishable
// artifact of the whole pipeline (the paper's definition: "the
// boundaries of these cells and their noisy counts"), so it must
// survive a round trip to disk: the data holder builds and saves once;
// analysts load and query forever after without the raw data. The
// encoding is the dpgridv2 container (internal/codec); loading
// validates every structural invariant (dimensions vs. payload
// lengths, finite counts, valid domain) so a corrupted or hand-edited
// file fails loudly instead of answering garbage.
//
// Layouts (after the codec container header; all little endian):
//
//	UG:  domain (4 f64) | epsilon (f64) | m, mx, my (u32) |
//	     counts (length-prefixed f64 section, mx*my row-major) |
//	     SAT trailer (optional; see below)
//	AG:  domain (4 f64) | epsilon (f64) | alpha (f64) | m1 (u32) |
//	     m1*m1 cells, each: m2 (u32) |
//	     prefix sums (length-prefixed f64 section, (m2+1)^2 row-major) |
//	     SAT trailer (optional; see below)
//
// AG cells persist the prefix-sum table rather than the leaf counts:
// the table is the synopsis's exact in-memory query structure, so
// encode/decode never recompute sums — round trips are bit-identical
// and decoding is an allocation plus a copy, with no O(cells) prefix
// rebuild. (Storing leaves and re-summing on load would lose
// bit-identity to float rounding.)
//
// The SAT trailer (codec.SATTag + a length-prefixed f64 section) is the
// top-level summed-area table: for UG the (mx+1)*(my+1) prefix sums of
// the counts section, for AG the (m1+1)^2 prefix sums of the per-cell
// table totals (each cell table's last entry — NOT the in-memory
// level-1 totals, which hold the constrained-inference v' values a
// reader cannot re-derive from the file). Decoders verify the trailer
// bit-for-bit against the body (codec.CheckSATRaw), so a SAT-backed
// decode answers identically to a reader that ignores the section and
// rebuilds, and re-encoding reproduces the container byte-for-byte.
// Files written before the trailer existed decode unchanged; the
// zero-copy view parsers below serve queries straight from the mapped
// trailer bytes.

// BinaryInfo summarizes a binary payload's envelope-level fields. It is
// what a manifest validator needs to cross-check an embedded shard
// without materializing it. It is an alias of codec.Info so the
// registry's Validate hooks and this package's validators interchange
// freely.
type BinaryInfo = codec.Info

// init announces the UG and AG codecs to the kind registry; every
// serialization layer (container reading, sharded-manifest embedding,
// dpserve loading) dispatches through it.
func init() {
	codec.Register(codec.Registration{
		Kind: codec.KindUniform,
		Name: "uniform-grid",
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseUniformGridBinary(data)
		},
		DecodeBinaryView: ParseUniformGridBinaryView,
		Validate:         ValidateUniformGridBinary,
	})
	codec.Register(codec.Registration{
		Kind: codec.KindAdaptive,
		Name: "adaptive-grid",
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseAdaptiveGridBinary(data)
		},
		DecodeBinaryView: ParseAdaptiveGridBinaryView,
		Validate:         ValidateAdaptiveGridBinary,
	})
}

// ContainerKind reports the synopsis's container kind.
func (u *UniformGrid) ContainerKind() codec.Kind { return codec.KindUniform }

// ContainerKind reports the synopsis's container kind.
func (a *AdaptiveGrid) ContainerKind() codec.Kind { return codec.KindAdaptive }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (u *UniformGrid) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindUniform)
	EncodeDomain(e, u.dom)
	e.F64(u.eps)
	e.U32(uint32(u.m))
	e.U32(uint32(u.mx))
	e.U32(uint32(u.my))
	e.F64s(u.noisy.Values())
	// The stored SAT is the in-memory prefix table, which NewPrefix
	// built from the very counts written above — so the decoder's
	// bitwise consistency check always passes on our own output.
	e.SATSection(u.prefix.Sums())
	return e.Bytes(), nil
}

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (a *AdaptiveGrid) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindAdaptive)
	EncodeDomain(e, a.dom)
	e.F64(a.eps)
	e.F64(a.alpha)
	e.U32(uint32(a.m1))
	for k := range a.cells {
		cell := &a.cells[k]
		e.U32(uint32(cell.m2))
		e.F64s(cell.leaves.Sums())
	}
	sat, err := a.encodeSAT()
	if err != nil {
		return nil, err
	}
	e.SATSection(sat)
	return e.Bytes(), nil
}

// encodeSAT computes the AG container's level-1 summed-area trailer:
// the prefix table over each cell table's total (its sums table's last
// entry). It is deliberately NOT a.level1 — a freshly built AG's
// level-1 table holds the constrained-inference v' totals, which
// diverge from the leaf-table totals by float rounding and are not
// derivable from the file. Defining the trailer over what the file
// actually stores is what lets the decoder verify it bit-for-bit and
// keeps a SAT-backed decode answer-identical to a section-ignoring
// rebuild.
func (a *AdaptiveGrid) encodeSAT() ([]float64, error) {
	totals, err := grid.New(a.dom, a.m1, a.m1)
	if err != nil {
		return nil, fmt.Errorf("core: encode AG SAT: %w", err)
	}
	vals := totals.Values()
	for k := range a.cells {
		vals[k] = a.cells[k].leaves.Total()
	}
	return grid.NewPrefix(totals).Sums(), nil
}

// ParseUniformGridBinary deserializes a UG dpgridv2 container,
// validating all structural invariants.
func ParseUniformGridBinary(data []byte) (*UniformGrid, error) {
	f, err := decodeUGBinary(data, true)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// ParseAdaptiveGridBinary deserializes an AG dpgridv2 container,
// validating all structural invariants.
func ParseAdaptiveGridBinary(data []byte) (*AdaptiveGrid, error) {
	f, err := decodeAGBinary(data, true, false)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// ValidateUniformGridBinary runs every structural and value check of
// ParseUniformGridBinary without materializing the synopsis — no large
// allocations, no prefix build. A payload that validates cannot fail a
// later parse; lazy shard loading relies on that.
func ValidateUniformGridBinary(data []byte) (BinaryInfo, error) {
	f, err := decodeUGBinary(data, false)
	if err != nil {
		return BinaryInfo{}, err
	}
	return BinaryInfo{Dom: f.dom, Eps: f.eps, SAT: f.rawSAT != nil}, nil
}

// ValidateAdaptiveGridBinary is ValidateUniformGridBinary for AG
// payloads.
func ValidateAdaptiveGridBinary(data []byte) (BinaryInfo, error) {
	f, err := decodeAGBinary(data, false, false)
	if err != nil {
		return BinaryInfo{}, err
	}
	return BinaryInfo{Dom: f.dom, Eps: f.eps, SAT: f.rawSAT != nil}, nil
}

// EncodeDomain appends a domain's four bounds as float64s — the shared
// wire form every container kind (including internal/shard's manifests)
// uses for domains. Kept as a wrapper over codec's Enc.Domain for
// callers already importing core.
func EncodeDomain(e *codec.Enc, dom geom.Domain) { e.Domain(dom) }

// DecodeDomain reads and validates the four-bound wire form
// EncodeDomain writes.
func DecodeDomain(d *codec.Dec) (geom.Domain, error) { return d.Domain() }

type ugBinary struct {
	dom       geom.Domain
	eps       float64
	m         int
	mx, my    int
	rawCounts []byte    // counts section in place (a view into data)
	rawSAT    []byte    // stored SAT section in place; nil when absent
	counts    []float64 // nil when decoded in validate-only mode
	sums      []float64 // decoded SAT; nil when absent or validate-only
}

// decodeUGBinary reads and validates a UG container. With keep false it
// checks every invariant — including count finiteness and the stored
// SAT's bitwise consistency with the counts, scanned in place — but
// materializes nothing; the raw section views are captured either way.
func decodeUGBinary(data []byte, keep bool) (ugBinary, error) {
	var f ugBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if kind != codec.KindUniform {
		return f, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindUniform)
	}
	f.dom, err = DecodeDomain(d)
	if err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	f.eps = d.F64()
	f.m, f.mx, f.my = d.Int32(), d.Int32(), d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("core: invalid epsilon %g", f.eps)
	}
	if f.m < 1 {
		return f, fmt.Errorf("core: invalid grid size %d", f.m)
	}
	// uint64 arithmetic: both factors come from u32 fields, and an
	// int64 product of two adversarial 4e9 values would overflow and
	// wrap past the cap.
	if f.mx < 1 || f.my < 1 || uint64(f.mx)*uint64(f.my) > grid.MaxCells {
		return f, fmt.Errorf("core: invalid grid dimensions %dx%d", f.mx, f.my)
	}
	f.rawCounts = d.RawF64s(f.mx * f.my)
	f.rawSAT = d.SATSection(f.mx, f.my)
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	if err := checkFiniteRaw(f.rawCounts); err != nil {
		return f, err
	}
	if f.rawSAT != nil {
		err := codec.CheckSATRaw(f.rawSAT, f.mx, f.my, func(i int) float64 {
			return codec.F64At(f.rawCounts, i)
		})
		if err != nil {
			return f, fmt.Errorf("core: parse UG synopsis: %w", err)
		}
	}
	if keep {
		f.counts = decodeF64s(f.rawCounts)
		if f.rawSAT != nil {
			f.sums = decodeF64s(f.rawSAT)
		}
	}
	return f, nil
}

func (f *ugBinary) build() (*UniformGrid, error) {
	counts, err := grid.New(f.dom, f.mx, f.my)
	if err != nil {
		return nil, err
	}
	copy(counts.Values(), f.counts)
	// With a stored SAT the prefix table is adopted rather than rebuilt;
	// the decode-time bitwise check against the counts guarantees it is
	// the exact table NewPrefix would produce, so both paths answer (and
	// re-encode) identically.
	var prefix *grid.Prefix
	if f.sums != nil {
		prefix, err = grid.PrefixFromSums(f.dom, f.mx, f.my, f.sums)
		if err != nil {
			return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
		}
	} else {
		prefix = grid.NewPrefix(counts)
	}
	return &UniformGrid{
		dom:       f.dom,
		eps:       f.eps,
		m:         f.m,
		mx:        f.mx,
		my:        f.my,
		noisy:     counts,
		prefix:    prefix,
		satBacked: f.sums != nil,
	}, nil
}

// ParseUniformGridBinaryView decodes a UG container into a zero-copy
// view over data when the container carries a stored SAT section:
// queries read the mapped sums bytes in place, and the only decode
// allocations are the view descriptor itself. Containers without the
// section (written before it existed) have no zero-copy query
// structure and fall back to the materializing parser. Either way the
// result retains data; the caller keeps it immutable and alive.
func ParseUniformGridBinaryView(data []byte) (codec.Synopsis, error) {
	f, err := decodeUGBinary(data, false)
	if err != nil {
		return nil, err
	}
	if f.rawSAT == nil {
		return ParseUniformGridBinary(data)
	}
	prefix, err := grid.RawPrefixFromSection(f.dom, f.mx, f.my, f.rawSAT)
	if err != nil {
		return nil, fmt.Errorf("core: parse UG synopsis: %w", err)
	}
	return &UGView{
		raw:       data,
		eps:       f.eps,
		m:         f.m,
		rawCounts: f.rawCounts,
		prefix:    prefix,
	}, nil
}

type agBinaryCell struct {
	m2   int
	sums []float64 // nil when decoded in validate-only mode
}

type agBinary struct {
	dom      geom.Domain
	eps      float64
	alpha    float64
	m1       int
	cells    []agBinaryCell
	m2s      []int     // every cell's m2, kept in all modes
	totals   []float64 // every cell table's last entry (its total)
	rawCells [][]byte  // raw sums sections in place; only when keepRaw
	rawSAT   []byte    // stored level-1 SAT in place; nil when absent
	sums     []float64 // decoded SAT; nil when absent or not keep
}

// decodeAGBinary reads and validates an AG container (see decodeUGBinary
// for the keep contract; keepRaw additionally captures each cell's raw
// sums section for the zero-copy view builder). Each cell's sums table
// is checked for finiteness and the zero border every NewPrefix-built
// table has; a stored level-1 SAT is checked bit-for-bit against the
// cell totals it summarizes. The per-cell m2s and totals (O(m1^2), a
// sliver of the payload the minimum-cell-size guard already bounded)
// are collected in every mode — the SAT sits after the cells, so its
// consistency check needs the totals of all of them.
func decodeAGBinary(data []byte, keep, keepRaw bool) (agBinary, error) {
	var f agBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if kind != codec.KindAdaptive {
		return f, fmt.Errorf("core: container kind %v is not %v", kind, codec.KindAdaptive)
	}
	f.dom, err = DecodeDomain(d)
	if err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	f.eps = d.F64()
	f.alpha = d.F64()
	f.m1 = d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("core: invalid epsilon %g", f.eps)
	}
	if !(f.alpha > 0 && f.alpha < 1) {
		return f, fmt.Errorf("core: invalid alpha %g", f.alpha)
	}
	if f.m1 < 1 || uint64(f.m1)*uint64(f.m1) > grid.MaxCells {
		return f, fmt.Errorf("core: invalid m1 %d", f.m1)
	}
	n := f.m1 * f.m1
	// Every encoded cell occupies at least 44 bytes (u32 m2, u64 length
	// prefix, and a minimum 2x2 sums table), so an m1 whose cells cannot
	// fit in the remaining payload is corrupt. Checking before the
	// allocation below keeps a hostile header from demanding gigabytes
	// for a claim the file's own size refutes.
	const minCellBytes = 4 + 8 + 4*8
	if n > d.Remaining()/minCellBytes {
		return f, fmt.Errorf("core: m1 %d demands %d cells but only %d bytes remain", f.m1, n, d.Remaining())
	}
	if keep {
		f.cells = make([]agBinaryCell, 0, n)
	}
	if keepRaw {
		f.rawCells = make([][]byte, 0, n)
	}
	f.m2s = make([]int, 0, n)
	f.totals = make([]float64, 0, n)
	for k := 0; k < n; k++ {
		m2 := d.Int32()
		if err := d.Err(); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		if m2 < 1 || uint64(m2)*uint64(m2) > grid.MaxCells {
			return f, fmt.Errorf("core: cell %d: invalid m2 %d", k, m2)
		}
		raw := d.RawF64s((m2 + 1) * (m2 + 1))
		if err := d.Err(); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		if err := checkSumsRaw(raw, m2); err != nil {
			return f, fmt.Errorf("core: cell %d: %w", k, err)
		}
		f.m2s = append(f.m2s, m2)
		f.totals = append(f.totals, codec.F64At(raw, (m2+1)*(m2+1)-1))
		if keep {
			f.cells = append(f.cells, agBinaryCell{m2: m2, sums: decodeF64s(raw)})
		}
		if keepRaw {
			f.rawCells = append(f.rawCells, raw)
		}
	}
	f.rawSAT = d.SATSection(f.m1, f.m1)
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	if f.rawSAT != nil {
		err := codec.CheckSATRaw(f.rawSAT, f.m1, f.m1, func(i int) float64 {
			return f.totals[i]
		})
		if err != nil {
			return f, fmt.Errorf("core: parse AG synopsis: %w", err)
		}
		if keep {
			f.sums = decodeF64s(f.rawSAT)
		}
	}
	return f, nil
}

func (f *agBinary) build() (*AdaptiveGrid, error) {
	ag := &AdaptiveGrid{
		dom:   f.dom,
		eps:   f.eps,
		alpha: f.alpha,
		m1:    f.m1,
		cells: make([]agCell, f.m1*f.m1),
	}
	totals, err := grid.New(f.dom, f.m1, f.m1)
	if err != nil {
		return nil, err
	}
	leafPop := 0
	maxM2 := 1
	for iy := 0; iy < f.m1; iy++ {
		for ix := 0; ix < f.m1; ix++ {
			k := iy*f.m1 + ix
			cf := f.cells[k]
			cellRect := f.dom.CellRect(ix, iy, f.m1, f.m1)
			prefix, err := grid.PrefixFromSums(geom.Domain{Rect: cellRect}, cf.m2, cf.m2, cf.sums)
			if err != nil {
				return nil, fmt.Errorf("core: cell %d: %w", k, err)
			}
			ag.cells[k] = agCell{
				rect:   cellRect,
				m2:     cf.m2,
				total:  prefix.Total(),
				leaves: prefix,
			}
			totals.Set(ix, iy, prefix.Total())
			leafPop += cf.m2 * cf.m2
			if cf.m2 > maxM2 {
				maxM2 = cf.m2
			}
		}
	}
	// A stored SAT was verified bit-identical to NewPrefix(totals) at
	// decode time, so adopting it changes no answer — it just skips the
	// rebuild.
	if f.sums != nil {
		ag.level1, err = grid.PrefixFromSums(f.dom, f.m1, f.m1, f.sums)
		if err != nil {
			return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
		}
		ag.satBacked = true
	} else {
		ag.level1 = grid.NewPrefix(totals)
	}
	ag.leafPop = leafPop
	ag.maxM2 = maxM2
	ag.epsLevel = [2]float64{f.alpha * f.eps, (1 - f.alpha) * f.eps}
	return ag, nil
}

// ParseAdaptiveGridBinaryView is ParseUniformGridBinaryView for AG
// containers: with a stored SAT section, the level-1 table and every
// cell's sums table are served zero-copy from data (the view
// materializes O(m1^2) cell descriptors, never the float payload);
// without one it falls back to the materializing parser.
func ParseAdaptiveGridBinaryView(data []byte) (codec.Synopsis, error) {
	f, err := decodeAGBinary(data, false, true)
	if err != nil {
		return nil, err
	}
	if f.rawSAT == nil {
		return ParseAdaptiveGridBinary(data)
	}
	level1, err := grid.RawPrefixFromSection(f.dom, f.m1, f.m1, f.rawSAT)
	if err != nil {
		return nil, fmt.Errorf("core: parse AG synopsis: %w", err)
	}
	v := &AGView{
		raw:    data,
		eps:    f.eps,
		alpha:  f.alpha,
		m1:     f.m1,
		level1: level1,
		cells:  make([]agViewCell, f.m1*f.m1),
	}
	for iy := 0; iy < f.m1; iy++ {
		for ix := 0; ix < f.m1; ix++ {
			k := iy*f.m1 + ix
			cellRect := f.dom.CellRect(ix, iy, f.m1, f.m1)
			m2 := f.m2s[k]
			leaves, err := grid.RawPrefixFromSection(geom.Domain{Rect: cellRect}, m2, m2, f.rawCells[k])
			if err != nil {
				return nil, fmt.Errorf("core: cell %d: %w", k, err)
			}
			v.cells[k] = agViewCell{
				rect:   cellRect,
				m2:     m2,
				total:  f.totals[k],
				leaves: leaves,
			}
		}
	}
	return v, nil
}

// decodeF64s materializes a raw float64 section.
func decodeF64s(raw []byte) []float64 { return codec.DecodeF64s(raw) }

// checkFiniteRaw rejects NaN/Inf entries of an undecoded float64
// section.
func checkFiniteRaw(raw []byte) error { return codec.CheckFiniteRaw(raw) }

// checkSumsRaw validates an undecoded (m2+1)^2 prefix-sum table: every
// entry finite, first row and column zero (grid.PrefixFromSums enforces
// the same border, so validate-only and materializing decodes accept
// exactly the same payloads).
func checkSumsRaw(raw []byte, m2 int) error {
	return codec.CheckPrefixSumsRaw(raw, m2, m2)
}
