package wah

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refBits is the uncompressed reference model used to validate every
// compressed-form operation.
type refBits []bool

func (r refBits) count() uint64 {
	var c uint64
	for _, b := range r {
		if b {
			c++
		}
	}
	return c
}

func (r refBits) bitmap() *Bitmap { return FromBools(r) }

func randBits(rng *rand.Rand, n int, density float64) refBits {
	r := make(refBits, n)
	for i := range r {
		r[i] = rng.Float64() < density
	}
	return r
}

// runnyBits generates bit vectors with long runs, the shape WAH is
// designed for.
func runnyBits(rng *rand.Rand, n int) refBits {
	r := make(refBits, 0, n)
	cur := rng.Intn(2) == 1
	for len(r) < n {
		runLen := 1 + rng.Intn(200)
		if rng.Intn(3) == 0 {
			runLen = 1 + rng.Intn(5)
		}
		for i := 0; i < runLen && len(r) < n; i++ {
			r = append(r, cur)
		}
		cur = !cur
	}
	return r
}

func checkSame(t *testing.T, ref refBits, b *Bitmap, label string) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatalf("%s: invalid bitmap: %v", label, err)
	}
	if b.Len() != uint64(len(ref)) {
		t.Fatalf("%s: Len=%d want %d", label, b.Len(), len(ref))
	}
	if b.Count() != ref.count() {
		t.Fatalf("%s: Count=%d want %d", label, b.Count(), ref.count())
	}
	for i, want := range ref {
		if got := b.Get(uint64(i)); got != want {
			t.Fatalf("%s: bit %d = %v want %v", label, i, got, want)
		}
	}
}

func TestEmptyBitmap(t *testing.T) {
	b := New()
	if b.Len() != 0 || b.Count() != 0 || b.Any() {
		t.Fatalf("empty bitmap not empty: %v", b)
	}
	if _, ok := b.FirstOne(); ok {
		t.Fatal("FirstOne on empty bitmap returned ok")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 30, 31, 32, 61, 62, 63, 100, 1000, 12345} {
		for _, d := range []float64{0, 0.01, 0.5, 0.99, 1} {
			ref := randBits(rng, n, d)
			checkSame(t, ref, ref.bitmap(), "AppendBit")
		}
	}
}

func TestAppendRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var ref refBits
		b := New()
		for len(ref) < 500 {
			bit := uint32(rng.Intn(2))
			count := uint64(rng.Intn(120))
			b.AppendRun(bit, count)
			for i := uint64(0); i < count; i++ {
				ref = append(ref, bit == 1)
			}
		}
		checkSame(t, ref, b, "AppendRun")
	}
}

func TestAppendRunLong(t *testing.T) {
	b := New()
	b.AppendRun(0, 1_000_000)
	b.AppendRun(1, 2_000_000)
	b.AppendRun(0, 7)
	if b.Len() != 3_000_007 {
		t.Fatalf("Len=%d", b.Len())
	}
	if b.Count() != 2_000_000 {
		t.Fatalf("Count=%d", b.Count())
	}
	if b.Words() > 4 {
		t.Fatalf("long runs should compress to a few words, got %d", b.Words())
	}
	if got := b.Get(999_999); got {
		t.Fatal("bit 999999 should be 0")
	}
	if got := b.Get(1_000_000); !got {
		t.Fatal("bit 1000000 should be 1")
	}
	if p, ok := b.FirstOne(); !ok || p != 1_000_000 {
		t.Fatalf("FirstOne=%d,%v", p, ok)
	}
}

func TestAddAndExtend(t *testing.T) {
	b := New()
	positions := []uint64{0, 5, 31, 62, 1000, 1001, 50000}
	for _, p := range positions {
		b.Add(p)
	}
	b.Extend(60000)
	if b.Len() != 60000 {
		t.Fatalf("Len=%d", b.Len())
	}
	if b.Count() != uint64(len(positions)) {
		t.Fatalf("Count=%d", b.Count())
	}
	got := b.AppendPositionsTo(nil)
	for i, p := range positions {
		if got[i] != p {
			t.Fatalf("position %d: got %d want %d", i, got[i], p)
		}
	}
}

func TestAddOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := New()
	b.Add(10)
	b.Add(5)
}

func naiveOp(x, y refBits, f func(a, b bool) bool) refBits {
	n := max(len(x), len(y))
	out := make(refBits, n)
	for i := range out {
		var a, b bool
		if i < len(x) {
			a = x[i]
		}
		if i < len(y) {
			b = y[i]
		}
		out[i] = f(a, b)
	}
	return out
}

func TestBinaryOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []struct {
		name string
		wah  func(a, b *Bitmap) *Bitmap
		ref  func(a, b bool) bool
	}{
		{"Or", Or, func(a, b bool) bool { return a || b }},
		{"And", And, func(a, b bool) bool { return a && b }},
		{"Xor", Xor, func(a, b bool) bool { return a != b }},
		{"AndNot", AndNot, func(a, b bool) bool { return a && !b }},
	}
	for trial := 0; trial < 60; trial++ {
		nx, ny := rng.Intn(400), rng.Intn(400)
		var x, y refBits
		if trial%2 == 0 {
			x, y = randBits(rng, nx, rng.Float64()), randBits(rng, ny, rng.Float64())
		} else {
			x, y = runnyBits(rng, nx), runnyBits(rng, ny)
		}
		bx, by := x.bitmap(), y.bitmap()
		for _, op := range ops {
			checkSame(t, naiveOp(x, y, op.ref), op.wah(bx, by), op.name)
		}
	}
}

func TestBinaryOpsLargeRuns(t *testing.T) {
	// Two bitmaps of 10M bits with huge fills must combine in
	// microseconds and stay tiny.
	a, b := New(), New()
	a.AppendRun(0, 4_000_000)
	a.AppendRun(1, 6_000_000)
	b.AppendRun(1, 5_000_000)
	b.AppendRun(0, 5_000_000)
	or := Or(a, b)
	if or.Count() != 4_000_000+6_000_000 {
		t.Fatalf("Or count=%d", or.Count())
	}
	and := And(a, b)
	if and.Count() != 1_000_000 {
		t.Fatalf("And count=%d", and.Count())
	}
	if or.Words() > 4 || and.Words() > 6 {
		t.Fatalf("results not compressed: or=%d and=%d words", or.Words(), and.Words())
	}
}

func TestNot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		ref := runnyBits(rng, rng.Intn(500))
		want := make(refBits, len(ref))
		for i := range ref {
			want[i] = !ref[i]
		}
		checkSame(t, want, ref.bitmap().Not(), "Not")
	}
}

func TestNotInvolution(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randBits(rng, int(n%2000), 0.3)
		b := ref.bitmap()
		return Equal(b, b.Not().Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := runnyBits(rng, 300)
	a := ref.bitmap()
	// Build the same content differently: bit by bit vs via runs.
	b := New()
	i := 0
	for i < len(ref) {
		j := i
		for j < len(ref) && ref[j] == ref[i] {
			j++
		}
		bit := uint32(0)
		if ref[i] {
			bit = 1
		}
		b.AppendRun(bit, uint64(j-i))
		i = j
	}
	if !Equal(a, b) {
		t.Fatal("equal content compared unequal")
	}
	b.AppendBit(1)
	if Equal(a, b) {
		t.Fatal("different lengths compared equal")
	}
	c := ref.bitmap()
	// Flip one bit.
	ref[137] = !ref[137]
	d := ref.bitmap()
	if Equal(c, d) {
		t.Fatal("different content compared equal")
	}
}

func TestOrAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 700
	var refs []refBits
	var bms []*Bitmap
	union := make(refBits, n)
	for i := 0; i < 13; i++ {
		r := randBits(rng, n, 0.05)
		refs = append(refs, r)
		bms = append(bms, r.bitmap())
		for j, v := range r {
			union[j] = union[j] || v
		}
	}
	_ = refs
	checkSame(t, union, OrAll(bms), "OrAll")
	if got := OrAll(nil); got.Len() != 0 {
		t.Fatal("OrAll(nil) not empty")
	}
	single := OrAll(bms[:1])
	if !Equal(single, bms[0]) {
		t.Fatal("OrAll of one bitmap differs")
	}
	single.AppendBit(1) // must not alias the input
	if bms[0].Len() == single.Len() {
		t.Fatal("OrAll aliased its input")
	}
}

func naiveFilter(b, mask refBits) refBits {
	var out refBits
	for i, m := range mask {
		if m {
			v := false
			if i < len(b) {
				v = b[i]
			}
			out = append(out, v)
		}
	}
	return out
}

func TestFilterAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(600)
		var b, m refBits
		switch trial % 3 {
		case 0:
			b, m = randBits(rng, n, rng.Float64()), randBits(rng, n, rng.Float64())
		case 1:
			b, m = runnyBits(rng, n), runnyBits(rng, n)
		default:
			b, m = runnyBits(rng, n), randBits(rng, n, 0.02) // sparse mask: the distinction shape
		}
		got := Filter(b.bitmap(), m.bitmap())
		checkSame(t, naiveFilter(b, m), got, "Filter")
	}
}

func TestFilterSparseMaskIsCompressed(t *testing.T) {
	// 10M-bit column, mask selecting 100 distinct representatives: the
	// result must be built without touching most of the input.
	b := New()
	b.AppendRun(1, 5_000_000)
	b.AppendRun(0, 5_000_000)
	var positions []uint64
	for i := uint64(0); i < 100; i++ {
		positions = append(positions, i*100_000)
	}
	mask := New()
	for _, p := range positions {
		mask.Add(p)
	}
	mask.Extend(10_000_000)
	got := Filter(b, mask)
	if got.Len() != 100 {
		t.Fatalf("filtered length=%d", got.Len())
	}
	if got.Count() != 50 {
		t.Fatalf("filtered count=%d", got.Count())
	}
}

func TestFilterPositionsMatchesFilter(t *testing.T) {
	// Property: FilterPositions(b, positions(mask)) == Filter(b, mask).
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(800)
		var b, m refBits
		switch trial % 3 {
		case 0:
			b, m = randBits(rng, n, rng.Float64()), randBits(rng, n, rng.Float64())
		case 1:
			b, m = runnyBits(rng, n), runnyBits(rng, n)
		default:
			b, m = runnyBits(rng, n), randBits(rng, n, 0.03)
		}
		bb, mb := b.bitmap(), m.bitmap()
		positions := mb.AppendPositionsTo(nil)
		got := FilterPositions(bb, positions)
		want := Filter(bb, mb)
		if !Equal(got, want) {
			t.Fatalf("trial %d: FilterPositions disagrees with Filter", trial)
		}
	}
}

func TestFilterPositionsEmptyAndFull(t *testing.T) {
	b := New()
	b.AppendRun(1, 100)
	if got := FilterPositions(b, nil); got.Len() != 0 {
		t.Fatalf("empty positions: len=%d", got.Len())
	}
	all := make([]uint64, 100)
	for i := range all {
		all[i] = uint64(i)
	}
	if got := FilterPositions(b, all); got.Count() != 100 {
		t.Fatalf("full positions: count=%d", got.Count())
	}
	// A bitmap shorter than the position range reads as zeros.
	short := New()
	short.AppendRun(1, 10)
	got := FilterPositions(short, []uint64{5, 50})
	if got.Len() != 2 || !got.Get(0) || got.Get(1) {
		t.Fatalf("short bitmap: %v", got)
	}
}

func TestFilterMaskAllOnesIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := runnyBits(rng, 400)
	b := ref.bitmap()
	mask := New()
	mask.AppendRun(1, uint64(len(ref)))
	if !Equal(Filter(b, mask), b) {
		t.Fatal("filter by all-ones mask is not identity")
	}
}

func TestConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		a := runnyBits(rng, rng.Intn(300))
		b := runnyBits(rng, rng.Intn(300))
		ba := a.bitmap()
		ba.Concat(b.bitmap())
		checkSame(t, append(append(refBits{}, a...), b...), ba, "Concat")
	}
}

func TestConcatWordAligned(t *testing.T) {
	a := New()
	a.AppendRun(1, 31*10)
	b := New()
	b.AppendRun(0, 31*5)
	b.AppendBit(1)
	a.Concat(b)
	if a.Len() != 31*15+1 {
		t.Fatalf("Len=%d", a.Len())
	}
	if a.Count() != 31*10+1 {
		t.Fatalf("Count=%d", a.Count())
	}
}

func TestOnesEarlyStop(t *testing.T) {
	b := New()
	b.AppendRun(1, 1000)
	var seen int
	b.Ones(func(p uint64) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop visited %d", seen)
	}
}

func TestRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 60; trial++ {
		ref := runnyBits(rng, rng.Intn(500))
		b := ref.bitmap()
		var got []uint64
		b.Runs(func(start, length uint64) bool {
			got = append(got, start, length)
			return true
		})
		var want []uint64
		i := 0
		for i < len(ref) {
			if !ref[i] {
				i++
				continue
			}
			j := i
			for j < len(ref) && ref[j] {
				j++
			}
			want = append(want, uint64(i), uint64(j-i))
			i = j
		}
		if len(got) != len(want) {
			t.Fatalf("runs: got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("runs: got %v want %v", got, want)
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		ref := runnyBits(rng, rng.Intn(1000))
		b := ref.bitmap()
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != b.EncodedSize() {
			t.Fatalf("EncodedSize=%d wrote %d", b.EncodedSize(), buf.Len())
		}
		var got Bitmap
		if _, err := got.ReadFrom(&buf); err != nil {
			t.Fatal(err)
		}
		if !Equal(b, &got) {
			t.Fatal("codec round trip changed content")
		}
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	b := New()
	b.AppendRun(1, 100)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF // corrupt nbits
	var got Bitmap
	if _, err := got.ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New()
	a.AppendRun(1, 100)
	c := a.Clone()
	c.AppendRun(0, 50)
	if a.Len() != 100 || c.Len() != 150 {
		t.Fatalf("clone not independent: a=%d c=%d", a.Len(), c.Len())
	}
}

func TestQuickFilterComposition(t *testing.T) {
	// Property: Count(Filter(b, m)) == Count(And(b, m)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		b := runnyBits(rng, n).bitmap()
		m := randBits(rng, n, 0.1).bitmap()
		return Filter(b, m).Count() == And(b, m).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// Property: NOT(a OR b) == NOT a AND NOT b (same lengths).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1500)
		a := runnyBits(rng, n).bitmap()
		b := randBits(rng, n, 0.4).bitmap()
		return Equal(Or(a, b).Not(), And(a.Not(), b.Not()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcatCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := runnyBits(rng, rng.Intn(1000))
		b := runnyBits(rng, rng.Intn(1000))
		ba, bb := a.bitmap(), b.bitmap()
		wantCount := ba.Count() + bb.Count()
		wantLen := ba.Len() + bb.Len()
		ba.Concat(bb)
		return ba.Count() == wantCount && ba.Len() == wantLen && ba.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
