package wavelet

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
)

// Serialization of Privlet synopses. The wavelet transform is a build-
// time device: the released synopsis is just the reconstructed noisy
// m x m grid, so the encoding persists its prefix-sum table — the
// in-memory query structure — for bit-identical round trips (the AG
// copy-only decode pattern). The padded transform size is derived from
// m on load, not stored.
//
// Binary layout (after the codec container header; little endian):
//
//	domain (4 f64) | epsilon (f64) | grid size m (u32) |
//	prefix sums (length-prefixed f64 section, (m+1)^2 row-major)

func init() {
	codec.Register(codec.Registration{
		Kind: codec.KindPrivlet,
		Name: "privlet",
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParsePrivletBinary(data)
		},
		Validate: ValidatePrivletBinary,
	})
}

// ContainerKind reports the synopsis's container kind.
func (w *Privlet) ContainerKind() codec.Kind { return codec.KindPrivlet }

// AppendBinary appends the synopsis's dpgridv2 container to dst and
// returns the extended slice.
func (w *Privlet) AppendBinary(dst []byte) ([]byte, error) {
	e := codec.NewEnc(dst, codec.KindPrivlet)
	e.Domain(w.dom)
	e.F64(w.eps)
	e.U32(uint32(w.m))
	e.F64s(w.prefix.Sums())
	return e.Bytes(), nil
}

// checkGridSize validates m against the build-time bounds: positive,
// within the cell cap, and with a padded power-of-two transform size
// BuildPrivlet itself would accept.
func checkGridSize(m int) error {
	if m < 1 || uint64(m)*uint64(m) > grid.MaxCells {
		return fmt.Errorf("wavelet: invalid grid size %d", m)
	}
	if nextPow2(m) > 1<<13 {
		return fmt.Errorf("wavelet: padded grid %d too large", nextPow2(m))
	}
	return nil
}

type privletBinary struct {
	dom  geom.Domain
	eps  float64
	m    int
	sums []float64 // nil when decoded in validate-only mode
}

// decodePrivletBinary reads and validates a Privlet container. With
// keep false it checks every invariant — including the prefix table's
// finiteness and zero border, scanned in place — but materializes
// nothing.
func decodePrivletBinary(data []byte, keep bool) (privletBinary, error) {
	var f privletBinary
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return f, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if kind != codec.KindPrivlet {
		return f, fmt.Errorf("wavelet: container kind %v is not %v", kind, codec.KindPrivlet)
	}
	f.dom, err = d.Domain()
	if err != nil {
		return f, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	f.eps = d.F64()
	f.m = d.Int32()
	if err := d.Err(); err != nil {
		return f, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if !(f.eps > 0) {
		return f, fmt.Errorf("wavelet: invalid epsilon %g", f.eps)
	}
	if err := checkGridSize(f.m); err != nil {
		return f, err
	}
	raw := d.RawF64s((f.m + 1) * (f.m + 1))
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("wavelet: parse synopsis: %w", err)
	}
	if err := codec.CheckPrefixSumsRaw(raw, f.m, f.m); err != nil {
		return f, fmt.Errorf("wavelet: %w", err)
	}
	if keep {
		f.sums = codec.DecodeF64s(raw)
	}
	return f, nil
}

func (f *privletBinary) build() (*Privlet, error) {
	prefix, err := grid.PrefixFromSums(f.dom, f.m, f.m, f.sums)
	if err != nil {
		return nil, fmt.Errorf("wavelet: %w", err)
	}
	return &Privlet{
		dom:    f.dom,
		eps:    f.eps,
		m:      f.m,
		padded: nextPow2(f.m),
		prefix: prefix,
	}, nil
}

// ParsePrivletBinary deserializes a Privlet dpgridv2 container,
// validating all structural invariants.
func ParsePrivletBinary(data []byte) (*Privlet, error) {
	f, err := decodePrivletBinary(data, true)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// ValidatePrivletBinary runs every check of ParsePrivletBinary without
// materializing the synopsis — the registry's Validate hook, which is
// what makes Privlet payloads embeddable in sharded manifests with
// lazy loading.
func ValidatePrivletBinary(data []byte) (codec.Info, error) {
	f, err := decodePrivletBinary(data, false)
	if err != nil {
		return codec.Info{}, err
	}
	return codec.Info{Dom: f.dom, Eps: f.eps}, nil
}
