package dpgrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
)

func TestWriteReadSynopsisUG(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	pts := examplePoints(51, 10000, dom)
	orig, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(51))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsisBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ug, ok := loaded.(*UniformGrid)
	if !ok {
		t.Fatalf("loaded type %T, want *UniformGrid", loaded)
	}
	r := NewRect(10, 10, 40, 40)
	if a, b := orig.Query(r), ug.Query(r); a != b {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

func TestWriteReadSynopsisAG(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	pts := examplePoints(52, 10000, dom)
	orig, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(52))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsisBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*AdaptiveGrid); !ok {
		t.Fatalf("loaded type %T, want *AdaptiveGrid", loaded)
	}
	r := NewRect(5.5, 6.6, 44.4, 43.3)
	a, b := orig.Query(r), loaded.Query(r)
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

// stubSynopsis implements Synopsis but none of the serialization
// interfaces — the shape of a caller-provided synopsis from outside the
// kind registry.
type stubSynopsis struct{}

func (stubSynopsis) Query(Rect) float64 { return 0 }

func TestWriteSynopsisUnsupportedType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSynopsisBinary(&buf, stubSynopsis{}); err == nil {
		t.Error("binary serialization of an unregistered synopsis should fail")
	}
	if k := SynopsisKind(stubSynopsis{}); k != "" {
		t.Errorf("SynopsisKind of an unregistered synopsis = %q, want \"\"", k)
	}
}

func TestReadSynopsisGarbage(t *testing.T) {
	if _, err := ReadSynopsis(strings.NewReader("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSynopsis(strings.NewReader(`{"format":"dpgrid/who-knows","version":1}`)); err == nil {
		t.Error("unknown format accepted")
	}
}

// jsonEraSynopsis is a UG file in the JSON encoding earlier releases
// wrote.
const jsonEraSynopsis = `{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"m":1,"counts":[3]}`

// TestReadersRejectJSONSynopsis: every public reader turns a JSON-era
// file away with the one retirement error — which names the conversion
// command — and none of them panics or loads it.
func TestReadersRejectJSONSynopsis(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(jsonEraSynopsis), 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() (Synopsis, error){
		"ReadSynopsis":         func() (Synopsis, error) { return ReadSynopsis(strings.NewReader(jsonEraSynopsis)) },
		"ReadSynopsisLazy":     func() (Synopsis, error) { return ReadSynopsisLazy(strings.NewReader(jsonEraSynopsis)) },
		"ReadSynopsisFile":     func() (Synopsis, error) { return ReadSynopsisFile(path) },
		"ReadSynopsisFileLazy": func() (Synopsis, error) { return ReadSynopsisFileLazy(path) },
		"MapSynopsisFile": func() (Synopsis, error) {
			m, err := MapSynopsisFile(path)
			if m == nil {
				return nil, err // keep a typed nil out of the interface
			}
			return m, err
		},
	}
	for name, read := range readers {
		syn, err := read()
		if syn != nil || !errors.Is(err, codec.ErrJSONRetired) {
			t.Errorf("%s: got (%v, %v), want the JSON retirement error", name, syn, err)
			continue
		}
		if !strings.Contains(err.Error(), "-format binary") {
			t.Errorf("%s: error %q does not name the conversion", name, err)
		}
	}
}

func TestWriteReadSynopsisSharded(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	plan, err := NewShardPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(53, 10000, dom)
	orig, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{}, ShardOptions{}, NewNoiseSource(53))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsisBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("loaded type %T, want *Sharded", loaded)
	}
	if sh.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sh.NumShards())
	}
	r := NewRect(5.5, 6.6, 44.4, 43.3)
	a, b := orig.Query(r), sh.Query(r)
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

func TestShardedSynopsisFileRoundTrip(t *testing.T) {
	dom, _ := NewDomain(0, 0, 40, 40)
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(54, 5000, dom)
	orig, err := BuildShardedUniformGrid(pts, plan, 1, UGOptions{}, ShardOptions{}, NewNoiseSource(54))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mosaic.dpgrid")
	if err := WriteSynopsisFile(path, orig); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !codec.Detect(data) {
		t.Fatalf("WriteSynopsisFile did not write a dpgridv2 container (err %v)", err)
	}
	loaded, err := ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRect(3, 3, 33, 17)
	if a, b := orig.Query(r), loaded.Query(r); a != b {
		t.Errorf("file round trip changed answer: %g vs %g", a, b)
	}
}

// validSynopses builds one small release of each kind for the
// round-trip tables, the corrupt-file table, and the fuzz seed corpus.
func validSynopses(t interface{ Fatal(...any) }) map[string]Synopsis {
	dom, err := NewDomain(0, 0, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := BuildUniformGrid(nil, dom, 1, UGOptions{GridSize: 3}, NewNoiseSource(1))
	if err != nil {
		t.Fatal(err)
	}
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, NewNoiseSource(2))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildShardedAdaptiveGrid(nil, plan, 1, AGOptions{M1: 2}, ShardOptions{}, NewNoiseSource(3))
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(4, 500, dom)
	hier, err := BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, NewNoiseSource(4))
	if err != nil {
		t.Fatal(err)
	}
	kd, err := BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid, Depth: 5}, NewNoiseSource(5))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPrivlet(pts, dom, 1, PrivletOptions{GridSize: 3}, NewNoiseSource(6))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
	}
	h1, err := BuildHist1DHierarchical(xs, 0, 20, 8, 2, 3, 1, NewNoiseSource(7))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Synopsis{
		"ug": ug, "ag": ag, "sharded": sh,
		"hierarchy": hier, "kdtree": kd, "privlet": pl, "hist1d": h1,
	}
}

// validSynopsisFiles serializes one release of each kind as a dpgridv2
// container.
func validSynopsisFiles(t interface{ Fatal(...any) }) map[string][]byte {
	out := make(map[string][]byte)
	for name, s := range validSynopses(t) {
		var buf bytes.Buffer
		if err := WriteSynopsisBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// container hand-assembles a dpgridv2 file of the given kind, so tests
// can plant field values no encoder would emit.
func container(kind codec.Kind, body func(e *codec.Enc)) []byte {
	e := codec.NewEnc(nil, kind)
	body(e)
	return e.Bytes()
}

// f64s appends each value as a bare float64 field.
func f64s(e *codec.Enc, vs ...float64) {
	for _, v := range vs {
		e.F64(v)
	}
}

// rawUG is a UG container: domain, epsilon, m, mx, my, counts.
func rawUG(dom [4]float64, eps float64, m, mx, my uint32, counts ...float64) []byte {
	return container(codec.KindUniform, func(e *codec.Enc) {
		f64s(e, dom[:]...)
		e.F64(eps)
		e.U32(m)
		e.U32(mx)
		e.U32(my)
		e.F64s(counts)
	})
}

// rawAGCell is one AG cell: m2 and its prefix-sum table.
type rawAGCell struct {
	m2   uint32
	sums []float64
}

// rawAG is an AG container: domain, epsilon, alpha, m1, cells.
func rawAG(eps, alpha float64, m1 uint32, cells ...rawAGCell) []byte {
	return container(codec.KindAdaptive, func(e *codec.Enc) {
		f64s(e, 0, 0, 1, 1)
		e.F64(eps)
		e.F64(alpha)
		e.U32(m1)
		for _, c := range cells {
			e.U32(c.m2)
			e.F64s(c.sums)
		}
	})
}

// rawManifest is a sharded manifest over [0,1]^2 with UG tiles whose
// payloads are concatenated into the blob.
func rawManifest(kx, ky uint32, payloads ...[]byte) []byte {
	return container(codec.KindSharded, func(e *codec.Enc) {
		f64s(e, 0, 0, 1, 1)
		e.F64(1)
		e.U32(kx)
		e.U32(ky)
		e.U16(uint16(codec.KindUniform))
		e.U64(uint64(len(payloads)))
		var blob []byte
		for _, p := range payloads {
			e.U64(uint64(len(blob)))
			e.U64(uint64(len(p)))
			blob = append(blob, p...)
		}
		e.U64(uint64(len(blob)))
		e.Raw(blob)
	})
}

// rawHist1D is a hist1d container: lo, hi, epsilon, bins, prefix.
func rawHist1D(lo, hi, eps float64, bins uint32, prefix ...float64) []byte {
	return container(codec.KindHist1D, func(e *codec.Enc) {
		f64s(e, lo, hi, eps)
		e.U32(bins)
		e.F64s(prefix)
	})
}

// TestReadSynopsisRejectsCorrupt: corrupt or truncated synopsis files
// must return errors through ReadSynopsis — never panic, never load.
func TestReadSynopsisRejectsCorrupt(t *testing.T) {
	valid := validSynopsisFiles(t)
	unit := [4]float64{0, 0, 1, 1}
	zeros := func(n int) []float64 { return make([]float64, n) }
	ugBadVersion := rawUG(unit, 1, 1, 1, 1, 0)
	binary.LittleEndian.PutUint16(ugBadVersion[len(codec.Magic):], 99)
	// Truncations here drop the final float (a short last section); the
	// "binary <kind> truncated" cases below cut each file in half.
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("junk")},
		{"empty object", []byte(`{}`)},
		{"unknown format", container(codec.Kind(0xEE), func(*codec.Enc) {})},
		{"ug truncated", valid["ug"][:len(valid["ug"])-8]},
		{"ag truncated", valid["ag"][:len(valid["ag"])-8]},
		{"sharded truncated", valid["sharded"][:len(valid["sharded"])-8]},
		{"hierarchy truncated", valid["hierarchy"][:len(valid["hierarchy"])-8]},
		{"kdtree truncated", valid["kdtree"][:len(valid["kdtree"])-8]},
		{"privlet truncated", valid["privlet"][:len(valid["privlet"])-8]},
		{"hierarchy indivisible shape", container(codec.KindHierarchy, func(e *codec.Enc) {
			f64s(e, unit[:]...)
			e.F64(1)
			e.U32(3) // grid size
			e.U32(2) // branching
			e.U32(2) // depth
			e.F64s(zeros(16))
		})},
		{"privlet oversized grid", container(codec.KindPrivlet, func(e *codec.Enc) {
			f64s(e, unit[:]...)
			e.F64(1)
			e.U32(99999)
			e.F64s(zeros(1))
		})},
		{"kdtree no nodes", container(codec.KindKDTree, func(e *codec.Enc) {
			f64s(e, unit[:]...)
			e.F64(1)
			e.U16(0) // method
			e.U16(0) // used CI
			e.U32(1) // depth
			e.U32(0) // leaves
			e.U64(0) // node count
			e.F64s(nil)
		})},
		{"ug bad version", ugBadVersion},
		{"ug counts mismatch", rawUG(unit, 1, 2, 2, 2, 0, 0, 0)},
		{"ug non-finite count", rawUG(unit, 1, 1, 1, 1, math.Inf(1))},
		{"ug bad domain", rawUG([4]float64{5, 0, 0, 1}, 1, 1, 1, 1, 0)},
		{"ug bad epsilon", rawUG(unit, 0, 1, 1, 1, 0)},
		{"ag cells mismatch", rawAG(1, 0.5, 2, rawAGCell{1, zeros(4)})},
		{"ag leaves mismatch", rawAG(1, 0.5, 1, rawAGCell{2, zeros(4)})},
		{"ag bad alpha", rawAG(1, 1.5, 1, rawAGCell{1, zeros(4)})},
		{"sharded payload mismatch", rawManifest(2, 1)},
		{"sharded bad payload", rawManifest(1, 1, []byte("x"))},
		{"hist1d truncated", valid["hist1d"][:len(valid["hist1d"])-8]},
		{"hist1d bad range", rawHist1D(5, 5, 1, 1, 0, 1)},
		{"hist1d bad epsilon", rawHist1D(0, 1, 0, 1, 0, 1)},
		{"hist1d prefix mismatch", rawHist1D(0, 1, 1, 2, 0, 1)},
		{"hist1d nonzero prefix start", rawHist1D(0, 1, 1, 1, 2, 3)},
		{"hist1d non-finite prefix", rawHist1D(0, 1, 1, 1, 0, math.Inf(1))},
	}
	corruptBin := map[string][]byte{"binary bare magic": []byte("dpgridv2")}
	for name, data := range valid {
		corruptBin["binary "+name+" truncated"] = data[:len(data)/2]
		corruptBin["binary "+name+" trailing bytes"] = append(bytes.Clone(data), 0)
	}
	for name, data := range corruptBin {
		cases = append(cases, struct {
			name string
			data []byte
		}{name, data})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSynopsis(bytes.NewReader(tc.data)); err == nil {
				t.Errorf("corrupt input accepted: %q", tc.data)
			}
			if _, err := ReadSynopsisLazy(bytes.NewReader(tc.data)); err == nil {
				t.Errorf("corrupt input accepted lazily: %q", tc.data)
			}
		})
	}
	// Sanity: the valid files all load, and the hand-assembled shapes
	// are right — fixing each planted fault yields a loadable file.
	for name, data := range valid {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err != nil {
			t.Errorf("valid %s file rejected: %v", name, err)
		}
	}
	for name, data := range map[string][]byte{
		"ug":      rawUG(unit, 1, 1, 1, 1, 0),
		"ag":      rawAG(1, 0.5, 1, rawAGCell{1, zeros(4)}),
		"sharded": rawManifest(1, 1, rawUG(unit, 1, 1, 1, 1, 0)),
		"hist1d":  rawHist1D(0, 1, 1, 1, 0, 1),
	} {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err != nil {
			t.Errorf("hand-assembled valid %s file rejected: %v", name, err)
		}
	}
}

// FuzzReadSynopsis: the public deserialization entry point must never
// panic and must either return a queryable synopsis or an error, no
// matter the bytes. The seed corpus covers every kind, plus truncated,
// bit-flipped, kind-swapped and over-long variants of each container,
// and JSON-era documents.
func FuzzReadSynopsis(f *testing.F) {
	for _, data := range validSynopsisFiles(f) {
		// The body under the neighbouring kind's header: one kind's
		// decoder fed another kind's layout.
		swapped := bytes.Clone(data)
		swapped[len(codec.Magic)+2]++
		f.Add(swapped)
		f.Add(append(bytes.Clone(data), data...))
		f.Add(data)
		f.Add(data[:len(data)/3])
		f.Add(data[:len(data)-1])
		// Bit flips in the header, the dimension fields, and the
		// count/offset sections.
		for _, off := range []int{9, 13, 45, len(data) / 2, len(data) - 9} {
			flipped := bytes.Clone(data)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte(`{"format":"dpgrid/sharded","version":1}`))
	f.Add([]byte(jsonEraSynopsis))
	f.Add([]byte(`not json at all`))
	f.Add([]byte("dpgridv2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Both the eager and the lazy path must hold the no-panic,
		// no-NaN contract, and agree on acceptance.
		syn, err := ReadSynopsis(bytes.NewReader(data))
		lazySyn, lazyErr := ReadSynopsisLazy(bytes.NewReader(data))
		if (err == nil) != (lazyErr == nil) {
			t.Fatalf("eager err %v, lazy err %v", err, lazyErr)
		}
		if err != nil {
			return
		}
		got := syn.Query(NewRect(-1e9, -1e9, 1e9, 1e9))
		if got != got {
			t.Fatalf("parsed synopsis produced NaN answer")
		}
		if lazyGot := lazySyn.Query(NewRect(-1e9, -1e9, 1e9, 1e9)); lazyGot != got {
			t.Fatalf("lazy answer %g != eager answer %g", lazyGot, got)
		}
	})
}

// TestWriteReadSynopsisBinary: every kind round-trips through
// WriteSynopsisBinary/ReadSynopsis bit-identically — the re-encoded
// container equals the original byte for byte.
func TestWriteReadSynopsisBinary(t *testing.T) {
	for name, s := range validSynopses(t) {
		var buf bytes.Buffer
		if err := WriteSynopsisBinary(&buf, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := bytes.Clone(buf.Bytes())
		loaded, err := ReadSynopsis(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := WriteSynopsisBinary(&again, loaded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Errorf("%s: binary round trip changed bytes (%d -> %d)", name, len(data), again.Len())
		}
		r := NewRect(2.5, 3.5, 17, 16)
		a, b := s.Query(r), loaded.Query(r)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: round trip changed answer: %g vs %g", name, a, b)
		}
	}
}

// TestReadSynopsisLazySharded: the lazy entry point returns a
// *LazySharded for sharded manifests, which re-encodes verbatim.
func TestReadSynopsisLazySharded(t *testing.T) {
	sh := validSynopses(t)["sharded"]
	var buf bytes.Buffer
	if err := WriteSynopsisBinary(&buf, sh); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	loaded, err := ReadSynopsisLazy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lazy, ok := loaded.(*LazySharded)
	if !ok {
		t.Fatalf("lazy read returned %T, want *LazySharded", loaded)
	}
	if lazy.MaterializedShards() != 0 {
		t.Fatalf("read materialized %d shards", lazy.MaterializedShards())
	}
	var bin bytes.Buffer
	if err := WriteSynopsisBinary(&bin, lazy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin.Bytes(), data) {
		t.Error("lazy re-encode changed bytes")
	}
	// Monolithic files fall back to eager types.
	var ugBin bytes.Buffer
	if err := WriteSynopsisBinary(&ugBin, validSynopses(t)["ug"]); err != nil {
		t.Fatal(err)
	}
	eager, err := ReadSynopsisLazy(&ugBin)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eager.(*UniformGrid); !ok {
		t.Fatalf("lazy read of a UG file returned %T", eager)
	}
}

// update regenerates the golden files under testdata; run
// `go test -run TestGoldenFiles -update .` after an intentional format
// change and commit the result.
var update = flag.Bool("update", false, "rewrite golden synopsis files")

// TestGoldenFiles pins the on-disk format: each committed container
// must load, answer like a fresh build of the same release, and
// re-encode bit-identically. A format change that breaks files already
// in the field fails here first.
func TestGoldenFiles(t *testing.T) {
	fresh := validSynopses(t)
	if *update {
		for name, s := range fresh {
			if err := WriteSynopsisFile(filepath.Join("testdata", "golden."+name+".dpgrid"), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := []Rect{
		NewRect(0, 0, 20, 20),
		NewRect(1.5, 2.5, 18, 19),
		NewRect(9, 9, 11, 11),
	}
	for _, name := range []string{"ug", "ag", "sharded", "hierarchy", "kdtree", "privlet", "hist1d"} {
		path := filepath.Join("testdata", "golden."+name+".dpgrid")
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSynopsis(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: %v (run `go test -run TestGoldenFiles -update .` if the format changed intentionally)", name, err)
		}
		for _, r := range queries {
			a, b := fresh[name].Query(r), loaded.Query(r)
			if diff := a - b; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: Query(%v): fresh build %g, golden file %g", name, r, a, b)
			}
		}
		var again bytes.Buffer
		if err := WriteSynopsisBinary(&again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden, again.Bytes()) {
			t.Errorf("%s: re-encoding the golden file changed bytes", name)
		}
	}
}

// TestRegistryKindsRoundTrip asserts the kind-registry contract for
// every registered kind at once: the container round-trips
// bit-identically and SynopsisKind survives the trip.
func TestRegistryKindsRoundTrip(t *testing.T) {
	for name, s := range validSynopses(t) {
		t.Run(name, func(t *testing.T) {
			kind := SynopsisKind(s)
			if kind == "" {
				t.Fatalf("SynopsisKind(%T) = \"\": kind not registered", s)
			}
			var bin bytes.Buffer
			if err := WriteSynopsisBinary(&bin, s); err != nil {
				t.Fatal(err)
			}
			data := bytes.Clone(bin.Bytes())
			loaded, err := ReadSynopsis(&bin)
			if err != nil {
				t.Fatal(err)
			}
			if got := SynopsisKind(loaded); got != kind {
				t.Errorf("kind changed across binary round trip: %q -> %q", kind, got)
			}
			var again bytes.Buffer
			if err := WriteSynopsisBinary(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again.Bytes()) {
				t.Errorf("binary round trip not bit-identical (%d -> %d bytes)", len(data), again.Len())
			}
		})
	}
}

// TestAssembleShardedNewKinds: every embeddable kind composes into a
// sharded release through AssembleSharded and survives a round trip,
// including the lazy path dpserve uses.
func TestAssembleShardedNewKinds(t *testing.T) {
	dom, err := NewDomain(0, 0, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(tile Domain, src NoiseSource) (Synopsis, error){
		"hierarchy": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildHierarchy(nil, tile, 1, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, src)
		},
		"kd-tree": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildKDTree(nil, tile, 1, KDTreeOptions{Method: KDHybrid}, src)
		},
		"privlet": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildPrivlet(nil, tile, 1, PrivletOptions{GridSize: 3}, src)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tiles := make([]Synopsis, plan.NumTiles())
			for i := range tiles {
				var err error
				tiles[i], err = build(plan.Tile(i), NewNoiseSource(int64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
			}
			sh, err := AssembleSharded(plan, 1, tiles)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := SynopsisKind(sh), "sharded("+name+")"; got != want {
				t.Errorf("SynopsisKind = %q, want %q", got, want)
			}
			r := NewRect(1, 1, 18, 9)
			want := sh.Query(r)

			var bin bytes.Buffer
			if err := WriteSynopsisBinary(&bin, sh); err != nil {
				t.Fatal(err)
			}
			data := bytes.Clone(bin.Bytes())
			loaded, err := ReadSynopsis(&bin)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.Query(r); got != want {
				t.Errorf("binary round trip changed answer: %g vs %g", got, want)
			}
			var again bytes.Buffer
			if err := WriteSynopsisBinary(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again.Bytes()) {
				t.Error("binary round trip not bit-identical")
			}

			lazyLoaded, err := ReadSynopsisLazy(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			lazy, ok := lazyLoaded.(*LazySharded)
			if !ok {
				t.Fatalf("lazy read returned %T, want *LazySharded", lazyLoaded)
			}
			if got := lazy.Query(r); got != want {
				t.Errorf("lazy answer %g != eager %g", got, want)
			}
		})
	}
}

// TestAssembleShardedRejectsBadTiles: Assemble validates composition
// invariants — mixed kinds, wrong tile domains, and mismatched epsilon
// must all fail rather than produce a release that misreports its
// privacy budget.
func TestAssembleShardedRejectsBadTiles(t *testing.T) {
	dom, _ := NewDomain(0, 0, 20, 20)
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	hier := func(tile Domain, eps float64) Synopsis {
		h, err := BuildHierarchy(nil, tile, eps, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, NewNoiseSource(9))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ugTile := func(tile Domain) Synopsis {
		u, err := BuildUniformGrid(nil, tile, 1, UGOptions{GridSize: 2}, NewNoiseSource(9))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	cases := map[string][]Synopsis{
		"too few tiles": {hier(plan.Tile(0), 1)},
		"mixed kinds":   {hier(plan.Tile(0), 1), ugTile(plan.Tile(1))},
		"wrong domain":  {hier(plan.Tile(0), 1), hier(plan.Tile(0), 1)},
		"wrong epsilon": {hier(plan.Tile(0), 1), hier(plan.Tile(1), 2)},
		"unregistered":  {stubSynopsis{}, stubSynopsis{}},
	}
	for name, tiles := range cases {
		if _, err := AssembleSharded(plan, 1, tiles); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// goldenSATTrailerLen reads a golden UG/AG container's dimension fields
// off the wire and returns its summed-area trailer's byte length:
// tag (2) + length prefix (8) + (mx+1)*(my+1) float64 entries.
func goldenSATTrailerLen(t *testing.T, data []byte) int {
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
		d.Int32() // m
		mx, my = d.Int32(), d.Int32()
	case codec.KindAdaptive:
		d.F64() // alpha
		mx = d.Int32()
		my = mx
	default:
		t.Fatalf("goldenSATTrailerLen: unexpected kind %v", kind)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return 2 + 8 + 8*(mx+1)*(my+1)
}

// TestGoldenSATSectionIgnorable locks the forward-compatibility promise
// of the summed-area trailer: stripping the section from a committed
// golden container yields a file that still decodes, and the two
// decodes answer every query bit-identically. The trailer is an
// acceleration structure, never a source of truth — readers that drop
// it (or predate it) lose speed, not correctness.
func TestGoldenSATSectionIgnorable(t *testing.T) {
	for _, name := range []string{"ug", "ag"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden."+name+".dpgrid"))
		if err != nil {
			t.Fatal(err)
		}
		satLen := goldenSATTrailerLen(t, golden)
		if satLen >= len(golden) {
			t.Fatalf("%s: trailer length %d >= file length %d", name, satLen, len(golden))
		}
		full, err := ReadSynopsis(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: full decode: %v", name, err)
		}
		stripped, err := ReadSynopsis(bytes.NewReader(golden[:len(golden)-satLen]))
		if err != nil {
			t.Fatalf("%s: stripped decode: %v", name, err)
		}
		for _, r := range []Rect{
			NewRect(0, 0, 20, 20),
			NewRect(1.5, 2.5, 18, 19),
			NewRect(9, 9, 11, 11),
			NewRect(-5, -5, 50, 50),
			NewRect(3, 3, 3, 3),
		} {
			a, b := full.Query(r), stripped.Query(r)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: Query(%v): SAT-backed %v, stripped %v (not bit-identical)", name, r, a, b)
			}
		}
		// The stripped container re-encodes back to the committed golden
		// bytes: the trailer is a pure function of the body.
		var again bytes.Buffer
		if err := WriteSynopsisBinary(&again, stripped); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden, again.Bytes()) {
			t.Errorf("%s: stripped decode re-encoded to different bytes than the golden file", name)
		}
	}
}
