package shard

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func buildTestSharded(t *testing.T, seed int64, kx, ky int, ag bool) *Sharded {
	t.Helper()
	dom := geom.MustDomain(0, 0, 100, 80)
	plan, err := NewPlan(dom, kx, ky)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(seed, 8000, dom)
	var s *Sharded
	if ag {
		s, err = BuildAdaptive(pts, plan, 1, core.AGOptions{M1: 3}, Options{}, noise.NewSource(seed))
	} else {
		s, err = BuildUniform(pts, plan, 1, core.UGOptions{GridSize: 8}, Options{}, noise.NewSource(seed))
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var binaryTestRects = []geom.Rect{
	geom.NewRect(0, 0, 100, 80),      // everything: every shard via TotalEstimate
	geom.NewRect(3, 3, 22, 17),       // inside the first tile
	geom.NewRect(40, 30, 60, 50),     // straddles interior tile edges
	geom.NewRect(-50, -50, 500, 500), // over-covers the domain
	geom.NewRect(200, 200, 300, 300), // fully outside
}

// TestShardedBinaryRoundTrip: eager binary round trip answers
// identically and re-encodes bit-identically, for UG and AG mosaics.
func TestShardedBinaryRoundTrip(t *testing.T) {
	for _, ag := range []bool{false, true} {
		orig := buildTestSharded(t, 71, 3, 2, ag)
		data, err := orig.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ParseShardedBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NumShards() != 6 || loaded.ShardKind() != orig.ShardKind() || loaded.Epsilon() != orig.Epsilon() {
			t.Fatalf("ag=%v: metadata lost: %d shards, kind %v", ag, loaded.NumShards(), loaded.ShardKind())
		}
		for _, r := range binaryTestRects {
			if a, b := orig.Query(r), loaded.Query(r); a != b {
				t.Errorf("ag=%v: Query(%v): %g before, %g after", ag, r, a, b)
			}
		}
		again, err := loaded.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("ag=%v: re-encoding a decoded release changed bytes", ag)
		}
	}
}

// TestLazyMatchesEager: the lazy release answers every query exactly
// like the eager parse of the same bytes, materializing only touched
// shards along the way.
func TestLazyMatchesEager(t *testing.T) {
	orig := buildTestSharded(t, 72, 4, 4, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := ParseShardedLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.MaterializedShards() != 0 {
		t.Fatalf("fresh lazy release has %d shards materialized", lazy.MaterializedShards())
	}
	if lazy.NumShards() != 16 || lazy.Epsilon() != 1 || lazy.Domain() != orig.Domain() || lazy.ShardKind() != codec.KindAdaptive {
		t.Fatalf("metadata: %d shards, eps %g", lazy.NumShards(), lazy.Epsilon())
	}
	// Metadata alone must not materialize anything.
	if lazy.MaterializedShards() != 0 {
		t.Fatalf("metadata access materialized %d shards", lazy.MaterializedShards())
	}

	// A query inside one tile materializes exactly that tile.
	inFirstTile := geom.NewRect(2, 2, 20, 15)
	if a, b := eager.Query(inFirstTile), lazy.Query(inFirstTile); a != b {
		t.Errorf("Query(%v): eager %g, lazy %g", inFirstTile, a, b)
	}
	if got := lazy.MaterializedShards(); got != 1 {
		t.Fatalf("single-tile query materialized %d shards, want 1", got)
	}

	for _, r := range binaryTestRects {
		if a, b := eager.Query(r), lazy.Query(r); a != b {
			t.Errorf("Query(%v): eager %g, lazy %g", r, a, b)
		}
	}
	if a, b := eager.TotalEstimate(), lazy.TotalEstimate(); a != b {
		t.Errorf("TotalEstimate: eager %g, lazy %g", a, b)
	}
	if got := lazy.MaterializedShards(); got != 16 {
		t.Fatalf("after whole-domain queries %d shards materialized, want 16", got)
	}
	if a, b := eager.ShardAnswer(3, inFirstTile), lazy.ShardAnswer(3, inFirstTile); a != b {
		t.Errorf("ShardAnswer: eager %g, lazy %g", a, b)
	}
}

// TestLazyOutsideDomainMaterializesNothing: a miss is free.
func TestLazyOutsideDomainMaterializesNothing(t *testing.T) {
	orig := buildTestSharded(t, 73, 2, 2, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := ParseShardedLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := lazy.Query(geom.NewRect(1000, 1000, 2000, 2000)); got != 0 {
		t.Fatalf("out-of-domain query = %g, want 0", got)
	}
	if lazy.MaterializedShards() != 0 {
		t.Fatalf("out-of-domain query materialized %d shards", lazy.MaterializedShards())
	}
}

// TestLazyAppendBinaryIsVerbatim: re-encoding a lazy release returns
// the retained container bytes without materializing anything.
func TestLazyAppendBinaryIsVerbatim(t *testing.T) {
	orig := buildTestSharded(t, 74, 2, 2, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := ParseShardedLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := lazy.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("lazy re-encode changed bytes")
	}
	if lazy.MaterializedShards() != 0 {
		t.Fatalf("re-encode materialized %d shards", lazy.MaterializedShards())
	}
	// Materializing and re-encoding the eager form reproduces the same
	// container.
	eager, err := lazy.Eager().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, eager) {
		t.Error("re-encoding the materialized release changed bytes")
	}
}

// TestLazyConcurrentQueries: racing queries over the same cold release
// materialize each shard exactly once and agree with the eager answers.
// Run under -race in CI.
func TestLazyConcurrentQueries(t *testing.T) {
	orig := buildTestSharded(t, 75, 4, 2, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := ParseShardedLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range binaryTestRects {
				if a, b := eager.Query(r), lazy.Query(r); a != b {
					errs <- r.String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for r := range errs {
		t.Errorf("concurrent Query(%s) diverged", r)
	}
	if got := lazy.MaterializedShards(); got != 8 {
		t.Fatalf("materialized %d shards, want 8", got)
	}
}

// TestShardedBinaryRejectsCorrupt: framing-level corruption must fail
// for both the eager and the lazy parser.
func TestShardedBinaryRejectsCorrupt(t *testing.T) {
	orig := buildTestSharded(t, 76, 2, 2, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Field offsets in the manifest body: 12-byte header, 32-byte
	// domain, 8-byte eps, 8 bytes kx+ky, 2 bytes shard kind, 8 bytes
	// shard count, then the offset table.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	mut := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)/2],
		"trailing":  append(bytes.Clone(data), 0xAB),
		"wrong kind on manifest": mut(func(b []byte) {
			binary.LittleEndian.PutUint16(b[10:], uint16(codec.KindUniform))
		}),
		"bad shard kind": mut(func(b []byte) {
			binary.LittleEndian.PutUint16(b[12+32+8+8:], 0xEE)
		}),
		"zero epsilon": mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[12+32:], 0)
		}),
		"non-contiguous offsets": mut(func(b []byte) {
			// Second table entry's offset += 1.
			off := binary.LittleEndian.Uint64(b[tableOff+16:])
			binary.LittleEndian.PutUint64(b[tableOff+16:], off+1)
		}),
		// Flip the first payload's magic (it sits right after the
		// 4-entry offset table and the blob length).
		"shard payload bad magic": mut(func(b []byte) {
			b[tableOff+4*16+8] ^= 0xFF
		}),
	}
	for name, bad := range cases {
		if _, err := ParseShardedBinary(bad); err == nil {
			t.Errorf("eager parse accepted %s", name)
		}
		if _, err := ParseShardedLazy(bad); err == nil {
			t.Errorf("lazy parse accepted %s", name)
		}
	}
}

// TestLazyValidationCatchesPayloadValueCorruption: a payload whose
// floats are corrupt (non-finite count) must fail at load time, not at
// materialization — the lazy contract is that post-load queries cannot
// hit decode errors.
func TestLazyValidationCatchesPayloadValueCorruption(t *testing.T) {
	orig := buildTestSharded(t, 77, 2, 1, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a NaN over the last count of the last shard payload: the
	// payload's final 8 bytes.
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint64(bad[len(bad)-8:], 0x7FF8000000000001)
	if _, err := ParseShardedLazy(bad); err == nil {
		t.Fatal("lazy parse accepted a NaN shard count")
	}
	if _, err := ParseShardedBinary(bad); err == nil {
		t.Fatal("eager parse accepted a NaN shard count")
	}
}

// TestShardedBinaryMismatchedShardMetadata: a shard that parses cleanly
// but disagrees with the manifest (wrong epsilon) is a corrupt release.
func TestShardedBinaryMismatchedShardMetadata(t *testing.T) {
	orig := buildTestSharded(t, 78, 2, 1, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first shard payload starts right after the blob length; its
	// epsilon sits after its own 12-byte header + 32-byte domain.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	payloadOff := tableOff + 2*16 + 8
	bad := bytes.Clone(data)
	epsOff := payloadOff + 12 + 32
	binary.LittleEndian.PutUint64(bad[epsOff:], binary.LittleEndian.Uint64(bad[epsOff:])+1)
	if _, err := ParseShardedLazy(bad); err == nil {
		t.Fatal("lazy parse accepted an epsilon-mismatched shard")
	}
	if _, err := ParseShardedBinary(bad); err == nil {
		t.Fatal("eager parse accepted an epsilon-mismatched shard")
	}
}

// TestShardedBinaryRejectsOverflowingOffsetTable: a crafted table whose
// offset+length wraps uint64 used to satisfy both the contiguity and
// the blob-length cross-check and then panic slicing the blob; it must
// be rejected instead.
func TestShardedBinaryRejectsOverflowingOffsetTable(t *testing.T) {
	orig := buildTestSharded(t, 79, 2, 1, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	blobLen := binary.LittleEndian.Uint64(data[tableOff+2*16:])
	bad := bytes.Clone(data)
	// entry 0: off 0, length 2^64-8; entry 1: off 2^64-8, length
	// blobLen+8 -> end wraps back to blobLen.
	binary.LittleEndian.PutUint64(bad[tableOff+8:], ^uint64(0)-7)
	binary.LittleEndian.PutUint64(bad[tableOff+16:], ^uint64(0)-7)
	binary.LittleEndian.PutUint64(bad[tableOff+24:], blobLen+8)
	if _, err := ParseShardedBinary(bad); err == nil {
		t.Fatal("eager parse accepted an overflowing offset table")
	}
	if _, err := ParseShardedLazy(bad); err == nil {
		t.Fatal("lazy parse accepted an overflowing offset table")
	}
}
