package cbm_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cbm"
	"repro/internal/dense"
	"repro/internal/oracle"
	"repro/internal/sparse"
	"repro/internal/synth"
	"repro/internal/xrand"
)

// encodeContainer compresses a at the given α and returns its binary
// container, for seeding the decoder corpus.
func encodeContainer(f *testing.F, a *sparse.CSR, alpha int) []byte {
	f.Helper()
	m, _, err := cbm.Compress(a, cbm.Options{Alpha: alpha})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode checks the binary-container parser never panics and that
// anything it accepts behaves like a structurally valid CBM matrix and
// multiplies deterministically.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid containers of each kind — including the
	// adversarial shapes from internal/oracle (empty rows, duplicate
	// rows, hub row) that stress the tree encoding — plus corruptions.
	a := synth.SBMGroups(40, 8, 0.7, 0.5, 1)
	good := encodeContainer(f, a, 1)
	f.Add(good)
	for _, name := range []string{"emptyrows", "duprows", "hub", "allzero"} {
		g, err := oracle.GetGenerator(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeContainer(f, g.Gen(32, 5), 0))
	}
	base, _, err := cbm.Compress(a, cbm.Options{Alpha: 1})
	if err != nil {
		f.Fatal(err)
	}
	d := make([]float32, a.Rows)
	for i := range d {
		d[i] = 1.5
	}
	var buf bytes.Buffer
	if err := base.WithSymmetricScale(d).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CBM"))
	f.Add(good[:len(good)/3])
	flipped := append([]byte(nil), good...)
	flipped[10] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := cbm.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted containers must be internally consistent.
		if err := m.Delta().Validate(); err != nil {
			t.Fatalf("accepted invalid delta matrix: %v", err)
		}
		covered := 0
		for _, sz := range m.BranchSizes() {
			covered += sz
		}
		if covered != m.Rows() {
			t.Fatalf("accepted container with broken tree: %d of %d rows", covered, m.Rows())
		}
		// Re-encoding must succeed and re-decode to the same metadata.
		var out bytes.Buffer
		if err := m.Encode(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := cbm.Decode(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Rows() != m.Rows() || back.Kind() != m.Kind() || back.NumDeltas() != m.NumDeltas() {
			t.Fatal("re-decode changed metadata")
		}
		// It must multiply without panicking, with the same bits at 1
		// and 2 threads; 9 columns cover an AVX strip and the tail.
		b := dense.New(m.Rows(), 9)
		for i := range b.Data {
			b.Data[i] = float32(i%7) - 3
		}
		one, two := m.Mul(b), m.MulParallel(b, 2)
		for i, v := range one.Data {
			if math.Float32bits(v) != math.Float32bits(two.Data[i]) {
				t.Fatalf("element %d: %v at 1 thread, %v at 2", i, v, two.Data[i])
			}
		}
	})
}

// FuzzCompressMulOracle is the differential fuzz target: a fuzzed
// (generator, size, α, seed) tuple is compressed and its A·B and DAD·B
// products are checked against the independent CSR oracle through the
// oracle comparison helpers, together with lossless tree
// reconstruction.
func FuzzCompressMulOracle(f *testing.F) {
	f.Add(uint8(0), uint8(24), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(40), uint8(4), uint64(2))
	f.Add(uint8(2), uint8(33), uint8(16), uint64(3))
	f.Add(uint8(5), uint8(1), uint8(1), uint64(4))
	f.Add(uint8(7), uint8(48), uint8(7), uint64(5))

	gens := oracle.Generators()
	f.Fuzz(func(t *testing.T, gi, nRaw, alphaRaw uint8, seed uint64) {
		g := gens[int(gi)%len(gens)]
		n := 1 + int(nRaw)%48
		alpha := int(alphaRaw) % 24
		a := g.Gen(n, seed)
		base, _, err := cbm.Compress(a, cbm.Options{Alpha: alpha})
		if err != nil {
			t.Fatalf("%s n=%d α=%d: compress rejected a valid matrix: %v", g.Name, n, alpha, err)
		}
		if err := oracle.CheckTreeReconstruction(a, base); err != nil {
			t.Fatalf("%s n=%d α=%d seed=%d: %v", g.Name, n, alpha, seed, err)
		}
		rng := xrand.New(seed ^ 0xabcdef)
		b := dense.New(n, 5)
		rng.FillUniform(b.Data)
		if div := oracle.Compare(base.MulParallel(b, 4), oracle.CSRProduct(a, b), oracle.Default()); div != nil {
			t.Fatalf("%s n=%d α=%d seed=%d: AX diverges: %v", g.Name, n, alpha, seed, div)
		}
		d := make([]float32, n)
		for i := range d {
			d[i] = rng.Float32() + 0.5
		}
		dad := base.WithSymmetricScale(d)
		want := oracle.CSRProduct(oracle.Operand(a, cbm.KindDAD, d), b)
		if div := oracle.Compare(dad.MulParallel(b, 4), want, oracle.Loose()); div != nil {
			t.Fatalf("%s n=%d α=%d seed=%d: DADX diverges: %v", g.Name, n, alpha, seed, div)
		}
	})
}
