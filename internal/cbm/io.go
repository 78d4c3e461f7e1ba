// Binary serialization of CBM matrices. The paper argues the format
// pays off when graphs are distributed pre-compressed ("the same way
// graphs are already offered in CSR, these graphs could also be
// offered in CBM"); this container is that artifact: a little-endian
// dump of the delta matrix, the compression tree and (for DAD) the
// diagonal, with a magic/version header.

package cbm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/sparse"
)

// magic identifies the container; the trailing byte is the version.
var magic = [4]byte{'C', 'B', 'M', 1}

// Encode serializes the matrix. The stream layout is:
//
//	magic[4] kind[u8] n[u64] nnz[u64]
//	rowptr[(n+1)×i32] colidx[nnz×i32] vals[nnz×f32]
//	parent[n×i32]
//	diag[n×f32]            (KindDAD only)
func (m *Matrix) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(m.kind)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(m.n)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(m.delta.NNZ())); err != nil {
		return err
	}
	for _, chunk := range []interface{}{m.delta.RowPtr, m.delta.ColIdx, m.delta.Vals, m.parent} {
		if err := binary.Write(bw, binary.LittleEndian, chunk); err != nil {
			return err
		}
	}
	if m.kind == KindDAD {
		if err := binary.Write(bw, binary.LittleEndian, m.diag); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode deserializes a matrix written by Encode, rebuilding the branch
// decomposition and validating structural invariants.
func Decode(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("cbm: reading header: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("cbm: bad magic %v (not a CBM v1 container)", got)
	}
	kindByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	kind := Kind(kindByte)
	if kind != KindA && kind != KindAD && kind != KindDAD {
		return nil, fmt.Errorf("cbm: unknown kind byte %d", kindByte)
	}
	var n64, nnz64 uint64
	if err := binary.Read(br, binary.LittleEndian, &n64); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nnz64); err != nil {
		return nil, err
	}
	if n64 > math.MaxInt32 || nnz64 > math.MaxInt32 {
		return nil, fmt.Errorf("cbm: container dimensions exceed int32 capacity (n=%d nnz=%d)", n64, nnz64)
	}
	n := int(n64)
	nnz := int(nnz64)

	// The header's sizes are untrusted until the payload backs them, so
	// every array grows only as its bytes arrive (readWords).
	wr := &wordReader{r: br, buf: make([]byte, 4*decodeChunk)}
	delta := &sparse.CSR{Rows: n, Cols: n,
		RowPtr: readWords(wr, n+1, int32FromBits),
		ColIdx: readWords(wr, nnz, int32FromBits),
		Vals:   readWords(wr, nnz, math.Float32frombits),
	}
	parent := readWords(wr, n, int32FromBits)
	if wr.err != nil {
		return nil, fmt.Errorf("cbm: reading payload: %w", wr.err)
	}
	if err := delta.Validate(); err != nil {
		return nil, fmt.Errorf("cbm: corrupt delta matrix: %w", err)
	}
	for x, p := range parent {
		if p < -1 || int(p) >= n || int(p) == x {
			return nil, fmt.Errorf("cbm: corrupt parent pointer %d at row %d", p, x)
		}
	}
	m := &Matrix{n: n, kind: kind, delta: delta, parent: parent}
	if kind == KindDAD {
		if m.diag = readWords(wr, n, math.Float32frombits); wr.err != nil {
			return nil, fmt.Errorf("cbm: reading diagonal: %w", wr.err)
		}
		for i, d := range m.diag {
			if d == 0 {
				return nil, fmt.Errorf("cbm: zero diagonal entry at %d (DAD update divides by it)", i)
			}
		}
	}
	m.order, m.branchOff = branchDecompose(parent)
	// A corrupt parent array could encode a cycle, which the branch
	// decomposition would silently drop; verify full coverage.
	if covered := len(m.order); covered != n {
		return nil, fmt.Errorf("cbm: parent pointers contain a cycle (%d of %d rows reachable)", covered, n)
	}
	return m, nil
}

// decodeChunk is how many 32-bit words Decode reads per step.
const decodeChunk = 1 << 14

// wordReader reads the container's little-endian 32-bit arrays. Its
// error is sticky: after the first failed read, readWords returns nil.
type wordReader struct {
	r   io.Reader
	buf []byte // 4·decodeChunk bytes
	err error
}

func int32FromBits(u uint32) int32 { return int32(u) }

// readWords reads count words, converting each with conv. The result
// grows geometrically, capped at count, only as words arrive: a stream
// whose header overstates its payload fails at EOF having allocated
// about twice the bytes it held, never count words up front.
func readWords[T int32 | float32](wr *wordReader, count int, conv func(uint32) T) []T {
	if wr.err != nil {
		return nil
	}
	out := make([]T, 0, min(count, decodeChunk))
	for len(out) < count {
		k := min(decodeChunk, count-len(out))
		buf := wr.buf[:4*k]
		if _, err := io.ReadFull(wr.r, buf); err != nil {
			wr.err = err
			return nil
		}
		if cap(out)-len(out) < k {
			grown := make([]T, len(out), min(count, max(2*cap(out), len(out)+k)))
			copy(grown, out)
			out = grown
		}
		for i := 0; i < k; i++ {
			out = append(out, conv(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out
}

// WriteDOT renders the compression tree in Graphviz DOT format: one
// node per matrix row (labelled with its delta count), the virtual
// root, and an edge from each parent to its children — a debugging and
// documentation artifact for inspecting what the MST/MCA chose.
func (m *Matrix) WriteDOT(w io.Writer) error {
	// bufio.Writer errors are sticky: writes after a failure are no-ops
	// and Flush reports the first error, so interior write errors are
	// deliberately discarded and surface at the end.
	bw := bufio.NewWriter(w)
	_, _ = fmt.Fprintln(bw, "digraph cbm {")
	_, _ = fmt.Fprintln(bw, `  root [shape=box, label="virtual root"];`)
	for x := 0; x < m.n; x++ {
		deltas := m.delta.RowNNZ(x)
		_, _ = fmt.Fprintf(bw, "  n%d [label=\"%d (Δ%d)\"];\n", x, x, deltas)
		if p := m.parent[x]; p < 0 {
			_, _ = fmt.Fprintf(bw, "  root -> n%d;\n", x)
		} else {
			_, _ = fmt.Fprintf(bw, "  n%d -> n%d;\n", p, x)
		}
	}
	_, _ = fmt.Fprintln(bw, "}")
	return bw.Flush()
}
