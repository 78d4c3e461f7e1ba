package cbm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/synth"
	"repro/internal/xrand"
)

func TestSerializationRoundTripA(t *testing.T) {
	a := synth.SBMGroups(200, 20, 0.8, 0.5, 1)
	m, _, err := Compress(a, Options{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindA || got.Rows() != m.Rows() || got.NumDeltas() != m.NumDeltas() {
		t.Fatalf("metadata differs: %v %d %d", got.Kind(), got.Rows(), got.NumDeltas())
	}
	if !got.ToCSR().ToDense().Equal(a.ToDense()) {
		t.Fatal("decompressed matrix differs after serialization")
	}
	// products must agree bitwise
	rng := xrand.New(2)
	b := dense.New(a.Rows, 8)
	rng.FillUniform(b.Data)
	if !m.Mul(b).Equal(got.Mul(b)) {
		t.Fatal("products differ after serialization")
	}
}

func TestSerializationRoundTripDAD(t *testing.T) {
	a := synth.SBMGroups(150, 15, 0.75, 0.5, 3)
	base, _, err := Compress(a, Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	d := make([]float32, a.Rows)
	for i := range d {
		d[i] = rng.Float32() + 0.5
	}
	dad := base.WithSymmetricScale(d)
	var buf bytes.Buffer
	if err := dad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindDAD {
		t.Fatalf("kind = %v", got.Kind())
	}
	b := dense.New(a.Rows, 6)
	rng.FillUniform(b.Data)
	if !dad.Mul(b).Equal(got.Mul(b)) {
		t.Fatal("DAD products differ after serialization")
	}
}

func TestReadRejectsCorruptContainers(t *testing.T) {
	a := synth.SBMGroups(60, 10, 0.7, 0.5, 5)
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"bad kind": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		},
		"truncated": func(b []byte) []byte {
			return b[:len(b)/2]
		},
		"empty": func(b []byte) []byte {
			return nil
		},
	}
	for name, corrupt := range cases {
		if _, err := Decode(bytes.NewReader(corrupt(good))); err == nil {
			t.Fatalf("%s: corrupt container accepted", name)
		}
	}
}

// A header that declares large arrays but carries no payload must fail
// at EOF without allocating arrays of the declared size: Decode grows
// each array only as its bytes arrive.
func TestDecodeHeaderOnlyStreamAllocatesLittle(t *testing.T) {
	const n = 1 << 22
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	hdr.WriteByte(byte(KindA))
	_ = binary.Write(&hdr, binary.LittleEndian, uint64(n)) // n
	_ = binary.Write(&hdr, binary.LittleEndian, uint64(n)) // nnz
	if hdr.Len() != 21 {
		t.Fatalf("header is %d bytes, want 21", hdr.Len())
	}
	stream := hdr.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only stream accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Decode allocated %d bytes for a %d-byte stream declaring n = nnz = %d (limit 1 MiB)", got, len(stream), n)
	}
}

func TestReadRejectsParentCycle(t *testing.T) {
	a := synth.SBMGroups(40, 8, 0.8, 0.5, 6)
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// find two rows with real parents and make them point at each other
	var x, y int = -1, -1
	for i := 0; i < m.Rows(); i++ {
		if m.Parent(i) >= 0 {
			if x < 0 {
				x = i
			} else if y < 0 && m.Parent(i) != x {
				y = i
				break
			}
		}
	}
	if x < 0 || y < 0 {
		t.Skip("no suitable rows for cycle injection")
	}
	m.parent[x] = int32(y)
	m.parent[y] = int32(x)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Fatal("cyclic parent pointers accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	a := synth.SBMGroups(20, 5, 0.8, 0.3, 2)
	m, _, err := Compress(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph cbm", "virtual root", "root ->", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// every row node must appear
	for x := 0; x < m.Rows(); x++ {
		if !strings.Contains(out, fmt.Sprintf("n%d [", x)) {
			t.Fatalf("node %d missing from DOT", x)
		}
	}
}
