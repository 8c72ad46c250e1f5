package dpgrid

import (
	"fmt"
	"io"
	"os"

	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/codec"
)

// Synopsis files hold the release (cell boundaries and noisy counts,
// the paper's definition — so a file costs no privacy beyond the
// epsilon already spent) in one encoding: the "dpgridv2" container —
// little-endian, length-prefixed float64 sections, and for sharded
// manifests a per-shard offset table that enables lazy shard loading.
// See docs/FORMAT.md.
//
// FormatBinary names that encoding; it is the only value the CLI's
// -format flag accepts. JSON synopsis files, which earlier releases
// wrote, are rejected by every reader with an error naming the
// conversion.
const FormatBinary = "binary"

// WriteSynopsisBinary serializes a released synopsis (any kind in the
// registry: UniformGrid, AdaptiveGrid, Hierarchy, KDTree, Privlet,
// Hist1D, Sharded, or LazySharded) as a dpgridv2 container: decoded by
// copying rather than parsing, and — for sharded manifests — loadable
// shard by shard (see ReadSynopsisLazy).
func WriteSynopsisBinary(w io.Writer, s Synopsis) error {
	ba, ok := s.(interface {
		AppendBinary(dst []byte) ([]byte, error)
	})
	if !ok {
		return fmt.Errorf("dpgrid: cannot serialize %T (no binary encoding; every released synopsis type has one)", s)
	}
	data, err := ba.AppendBinary(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SynopsisKind reports the short registered kind name of a released or
// loaded synopsis (e.g. "adaptive-grid"); sharded releases append the
// embedded tile kind, as in "sharded(adaptive-grid)". It returns "" for
// values that do not report a container kind — serving layers can treat
// that as "unknown" rather than an error.
func SynopsisKind(s Synopsis) string {
	k, ok := s.(codec.Kinder)
	if !ok {
		return ""
	}
	name := k.ContainerKind().String()
	if sk, ok := s.(interface{ ShardKind() codec.Kind }); ok {
		name += "(" + sk.ShardKind().String() + ")"
	}
	return name
}

// ReadSynopsis deserializes a synopsis written by WriteSynopsisBinary,
// validating the file's structure. Sharded manifests are materialized
// eagerly; serving paths that want decode-on-first-touch should use
// ReadSynopsisLazy.
func ReadSynopsis(r io.Reader) (Synopsis, error) {
	return readSynopsis(r, false)
}

// ReadSynopsisLazy is ReadSynopsis except that a sharded manifest loads
// as a *LazySharded: every shard payload is validated up front, but a
// shard's query structure is decoded only when a query first touches
// its tile. Monolithic synopses load eagerly as usual.
func ReadSynopsisLazy(r io.Reader) (Synopsis, error) {
	return readSynopsis(r, true)
}

func readSynopsis(r io.Reader, lazy bool) (Synopsis, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: read synopsis: %w", err)
	}
	reg, err := lookupContainer(data)
	if err != nil {
		return nil, err
	}
	if lazy && reg.DecodeBinaryLazy != nil {
		return reg.DecodeBinaryLazy(data)
	}
	return reg.DecodeBinary(data)
}

// lookupContainer validates data's container header and returns the
// registration of the kind it holds. A JSON document gets
// codec.ErrJSONRetired, which names the conversion.
func lookupContainer(data []byte) (codec.Registration, error) {
	_, kind, err := codec.NewDec(data)
	if err != nil {
		return codec.Registration{}, fmt.Errorf("dpgrid: %w", err)
	}
	// NewDec already rejected unregistered kinds (with the corrupt-vs-
	// newer-writer distinction), so the lookup cannot miss here.
	reg, ok := codec.Lookup(kind)
	if !ok {
		return codec.Registration{}, fmt.Errorf("dpgrid: unknown synopsis kind %v", kind)
	}
	return reg, nil
}

// WriteSynopsisFile writes s to path with WriteSynopsisBinary. The
// write is atomic — it goes to a temporary file in the same directory
// that is renamed over path only on success — so a failure (disk full,
// encode error) never destroys an existing synopsis file a server may
// be loading from. A fresh file gets the umask-governed default mode
// (as os.Create would); overwriting preserves the existing file's mode.
func WriteSynopsisFile(path string, s Synopsis) error {
	// The staging-and-rename mechanics live in internal/atomicfile so
	// the CLIs and internal tools share the same discipline.
	return atomicfile.Write(path, func(w io.Writer) error {
		return WriteSynopsisBinary(w, s)
	})
}

// ReadSynopsisFile reads a synopsis previously written by
// WriteSynopsisFile (or WriteSynopsisBinary) from path.
func ReadSynopsisFile(path string) (Synopsis, error) {
	return readSynopsisFile(path, ReadSynopsis)
}

// ReadSynopsisFileLazy is ReadSynopsisFile with lazy shard loading for
// sharded manifests (see ReadSynopsisLazy).
func ReadSynopsisFileLazy(path string) (Synopsis, error) {
	return readSynopsisFile(path, ReadSynopsisLazy)
}

func readSynopsisFile(path string, read func(io.Reader) (Synopsis, error)) (Synopsis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: %w", err)
	}
	defer f.Close()
	return read(f)
}
