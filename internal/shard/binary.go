package shard

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// Serialization of sharded releases: a dpgridv2 manifest carrying the
// plan and the release epsilon, plus one embedded per-shard container
// per tile in the payload kind's own encoding. Reusing the per-shard
// containers verbatim means a shard can be cut out of a manifest and
// served standalone, and the per-shard decoders' structural validation
// runs unchanged on every payload. Any registered kind that is
// embeddable (codec.Registration.Embeddable) can serve as the tile
// kind; the manifest kind itself is not, so releases never nest.
//
// The manifest body is:
//
//	domain (4 f64) | epsilon (f64) | kx, ky (u32) | shard kind (u16) |
//	shard count (u64) | offset table: count x (offset u64, length u64) |
//	blob length (u64) | blob (concatenated per-shard containers)
//
// The offset table lets a reader locate any shard's bytes in O(1)
// without decoding the others, which is the foundation of lazy loading
// (see Lazy).
//
// Encodings are canonical: offsets are required to be contiguous from
// zero, so re-encoding a decoded release reproduces the bytes exactly.

func init() {
	codec.Register(codec.Registration{
		Kind: codec.KindSharded,
		Name: "sharded",
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseShardedBinary(data)
		},
		DecodeBinaryLazy: func(data []byte) (codec.Synopsis, error) {
			return ParseShardedLazy(data)
		},
		DecodeBinaryView: func(data []byte) (codec.Synopsis, error) {
			return ParseShardedLazyView(data)
		},
		// No Validate: the manifest kind is deliberately not embeddable
		// as a tile of another manifest.
	})
}

// ContainerKind reports the release's container kind.
func (s *Sharded) ContainerKind() codec.Kind { return codec.KindSharded }

// ContainerKind reports the release's container kind.
func (l *Lazy) ContainerKind() codec.Kind { return codec.KindSharded }

// binaryAppender is implemented by every synopsis with a dpgridv2
// encoding.
type binaryAppender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// embeddableByKind resolves a per-shard container kind to its
// registration, requiring the kind to be embeddable as a manifest tile
// (which the manifest kind itself is not — no nested sharding).
func embeddableByKind(kind codec.Kind) (codec.Registration, error) {
	reg, ok := codec.Lookup(kind)
	if !ok || !reg.Embeddable() {
		return codec.Registration{}, fmt.Errorf("shard: shard kind %v is not an embeddable synopsis kind", kind)
	}
	return reg, nil
}

// AppendBinary appends the release's dpgridv2 manifest to dst and
// returns the extended slice.
func (s *Sharded) AppendBinary(dst []byte) ([]byte, error) {
	// Encode every shard first so the offset table can be written
	// before the blob.
	var blob []byte
	offsets := make([][2]uint64, len(s.tiles))
	for i, tile := range s.tiles {
		ba, ok := tile.(binaryAppender)
		if !ok {
			return nil, fmt.Errorf("shard: cannot binary-encode tile %d of type %T", i, tile)
		}
		start := len(blob)
		var err error
		blob, err = ba.AppendBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("shard: encode tile %d: %w", i, err)
		}
		offsets[i] = [2]uint64{uint64(start), uint64(len(blob) - start)}
	}

	e := codec.NewEnc(dst, codec.KindSharded)
	e.Domain(s.plan.dom)
	e.F64(s.eps)
	e.U32(uint32(s.plan.kx))
	e.U32(uint32(s.plan.ky))
	e.U16(uint16(s.kind))
	e.U64(uint64(len(s.tiles)))
	for _, off := range offsets {
		e.U64(off[0])
		e.U64(off[1])
	}
	e.U64(uint64(len(blob)))
	e.Raw(blob)
	return e.Bytes(), nil
}

// shardedBinary is a decoded-but-not-materialized manifest: the plan,
// release metadata, and one raw container slice per shard.
type shardedBinary struct {
	raw      []byte
	plan     Plan
	eps      float64
	kind     codec.Kind
	payloads [][]byte
	satAll   bool // every payload carries a stored SAT (set when validated)
}

// decodeShardedBinary validates the manifest framing and slices the
// per-shard payloads out of the blob. With validatePayloads it also
// runs the full no-materialization check on every payload — structure,
// finiteness, and the domain/epsilon cross-checks against the manifest
// — so that a later materialization cannot fail.
func decodeShardedBinary(data []byte, validatePayloads bool) (*shardedBinary, error) {
	d, kind, err := codec.NewDec(data)
	if err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if kind != codec.KindSharded {
		return nil, fmt.Errorf("shard: container kind %v is not %v", kind, codec.KindSharded)
	}
	dom, err := d.Domain()
	if err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	eps := d.F64()
	kx, ky := d.Int32(), d.Int32()
	shardKind := codec.Kind(d.U16())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	plan, err := NewPlan(dom, kx, ky)
	if err != nil {
		return nil, err
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("shard: invalid epsilon %g", eps)
	}
	if _, err := embeddableByKind(shardKind); err != nil {
		return nil, err
	}
	n := d.Len(16)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if n != plan.NumTiles() {
		return nil, fmt.Errorf("shard: %d shard payloads != kx*ky = %d", n, plan.NumTiles())
	}
	offsets := make([][2]uint64, n)
	// maxBlob bounds every offset and length by the bytes actually left
	// in the file; keeping end <= maxBlob inductively means off+length
	// can never overflow uint64, so a crafted table cannot wrap past
	// the blob-length cross-check below.
	maxBlob := uint64(d.Remaining())
	var end uint64
	for i := range offsets {
		off, length := d.U64(), d.U64()
		if d.Err() != nil {
			break
		}
		if off != end {
			return nil, fmt.Errorf("shard: tile %d payload offset %d is not contiguous (want %d)", i, off, end)
		}
		if length == 0 {
			return nil, fmt.Errorf("shard: tile %d payload is empty", i)
		}
		if length > maxBlob-end {
			return nil, fmt.Errorf("shard: tile %d payload length %d exceeds the %d bytes left", i, length, maxBlob-end)
		}
		offsets[i] = [2]uint64{off, length}
		end = off + length
	}
	blobLen := d.Len(1)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if uint64(blobLen) != end {
		return nil, fmt.Errorf("shard: blob holds %d bytes but the offset table covers %d", blobLen, end)
	}
	blob := d.Raw(blobLen)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}

	sb := &shardedBinary{
		raw:      data,
		plan:     plan,
		eps:      eps,
		kind:     shardKind,
		payloads: make([][]byte, n),
	}
	for i, off := range offsets {
		sb.payloads[i] = blob[off[0] : off[0]+off[1]]
	}
	if validatePayloads {
		sb.satAll = true
		for i, payload := range sb.payloads {
			info, err := validateShardPayload(shardKind, payload)
			if err != nil {
				return nil, fmt.Errorf("shard: tile %d: %w", i, err)
			}
			if got, want := info.Dom, plan.Tile(i); got != want {
				return nil, fmt.Errorf("shard: tile %d: domain %v does not cover its plan tile %v", i, got.Rect, want.Rect)
			}
			if info.Eps != eps {
				return nil, fmt.Errorf("shard: tile %d: epsilon %g != manifest epsilon %g", i, info.Eps, eps)
			}
			sb.satAll = sb.satAll && info.SAT
		}
	}
	return sb, nil
}

func validateShardPayload(kind codec.Kind, data []byte) (codec.Info, error) {
	reg, err := embeddableByKind(kind)
	if err != nil {
		return codec.Info{}, err
	}
	return reg.Validate(data)
}

func parseShardPayload(kind codec.Kind, data []byte) (Synopsis, error) {
	reg, err := embeddableByKind(kind)
	if err != nil {
		return nil, err
	}
	syn, err := reg.DecodeBinary(data)
	return assertTile(reg, syn, err)
}

// parseShardPayloadView is parseShardPayload through the kind's
// zero-copy view decoder, for manifests served off a memory-mapped
// file: the tile answers queries straight from the mapped payload
// bytes. Kinds without a view decoder (or payloads without the
// structure it needs — the view parsers fall back internally) still
// materialize correctly via DecodeBinary.
func parseShardPayloadView(kind codec.Kind, data []byte) (Synopsis, error) {
	reg, err := embeddableByKind(kind)
	if err != nil {
		return nil, err
	}
	decode := reg.DecodeBinaryView
	if decode == nil {
		decode = reg.DecodeBinary
	}
	syn, err := decode(data)
	return assertTile(reg, syn, err)
}

func assertTile(reg codec.Registration, syn codec.Synopsis, err error) (Synopsis, error) {
	if err != nil {
		return nil, err
	}
	tile, ok := syn.(Synopsis)
	if !ok {
		return nil, fmt.Errorf("shard: %s decoder returned %T, which lacks the per-tile synopsis interface", reg.Name, syn)
	}
	return tile, nil
}

// ParseShardedBinary deserializes a dpgridv2 sharded manifest eagerly,
// materializing every shard up front — the drop-in binary counterpart
// of ParseSharded. Serving daemons that want decode-on-first-touch use
// ParseShardedLazy instead.
func ParseShardedBinary(data []byte) (*Sharded, error) {
	sb, err := decodeShardedBinary(data, false)
	if err != nil {
		return nil, err
	}
	s := &Sharded{plan: sb.plan, eps: sb.eps, kind: sb.kind, tiles: make([]Synopsis, len(sb.payloads))}
	for i, payload := range sb.payloads {
		tile, err := parseShardPayload(sb.kind, payload)
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", i, err)
		}
		if got, want := tile.Domain(), sb.plan.Tile(i); got != want {
			return nil, fmt.Errorf("shard: tile %d: domain %v does not cover its plan tile %v", i, got.Rect, want.Rect)
		}
		if tile.Epsilon() != sb.eps {
			return nil, fmt.Errorf("shard: tile %d: epsilon %g != manifest epsilon %g", i, tile.Epsilon(), sb.eps)
		}
		s.tiles[i] = tile
	}
	return s, nil
}
