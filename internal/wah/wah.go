// Package wah implements Word-Aligned Hybrid (WAH) compressed bitmaps as
// described by Wu, Otoo and Shoshani ("Optimizing Bitmap Indices with
// Efficient Compression", ACM TODS 31(1), 2006), the compression scheme
// adopted by CODS for column bitmap indexes.
//
// A bitmap is a sequence of bits addressed by position 0..n-1. The encoded
// form is a slice of 32-bit words. A word is either
//
//   - a literal word: most significant bit 0, low 31 bits carry one 31-bit
//     group of the bitmap (LSB = lowest position), or
//   - a fill word: most significant bit 1, bit 30 is the fill value, and
//     the low 30 bits count how many consecutive 31-bit groups consist
//     entirely of that value.
//
// The final partial group (fewer than 31 bits) is held outside the word
// stream in the active word.
//
// All operations in this package — logical AND/OR/XOR/ANDNOT, complement,
// filtering (shrink by mask), concatenation, counting and position
// iteration — run directly on the compressed representation. No operation
// materializes an uncompressed bit array, which is the property CODS
// relies on for data-level evolution (paper §2.1–§2.2).
package wah

import (
	"fmt"
	"math/bits"
)

// GroupBits is the number of bitmap bits carried by one literal word.
const GroupBits = 31

const (
	fillFlag      = uint32(1) << 31 // word is a fill word
	fillValueBit  = uint32(1) << 30 // fill value (0 or 1)
	fillCountMask = fillValueBit - 1
	maxFillCount  = uint64(fillCountMask)
	allOnes       = uint32(1)<<GroupBits - 1 // literal group of 31 one bits
)

// Bitmap is a WAH-compressed bitmap. The zero value is an empty bitmap
// ready for use. Bits are appended with Add, AppendBit and AppendRun;
// appends must be in increasing position order. A Bitmap is not safe for
// concurrent mutation; concurrent reads are safe. Published bitmaps are
// immutable (enforced by codslint): once a bitmap is reachable from a
// catalog snapshot nothing may append to it.
//
// cods:immutable
type Bitmap struct {
	words   []uint32
	active  uint32 // pending partial group, zero above nactive
	nactive uint32 // number of valid bits in active, 0..30
	nbits   uint64 // total number of bits
}

// New returns an empty bitmap. Equivalent to &Bitmap{} but reads better at
// call sites.
func New() *Bitmap { return &Bitmap{} }

// FromBools builds a bitmap from an explicit bit slice. Intended for tests
// and small inputs.
func FromBools(bs []bool) *Bitmap {
	b := New()
	for _, v := range bs {
		if v {
			b.AppendBit(1)
		} else {
			b.AppendBit(0)
		}
	}
	return b
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() uint64 { return b.nbits }

// Words returns the number of compressed words (excluding the active
// word). Useful for measuring compression.
func (b *Bitmap) Words() int { return len(b.words) }

// SizeBytes returns the approximate in-memory size of the compressed
// bitmap in bytes.
func (b *Bitmap) SizeBytes() uint64 { return uint64(len(b.words))*4 + 16 }

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := *b
	c.words = append([]uint32(nil), b.words...)
	return &c
}

// Reset empties the bitmap, retaining allocated capacity.
func (b *Bitmap) Reset() {
	b.words = b.words[:0]
	b.active, b.nactive, b.nbits = 0, 0, 0
}

// appendFillGroups appends n whole groups of the given bit value (0 or 1).
// The active word must be empty.
func (b *Bitmap) appendFillGroups(bit uint32, n uint64) {
	if n == 0 {
		return
	}
	b.nbits += n * GroupBits
	// Coalesce with a preceding fill of the same value.
	if len(b.words) > 0 {
		last := b.words[len(b.words)-1]
		if last&fillFlag != 0 && (last&fillValueBit != 0) == (bit != 0) {
			room := maxFillCount - uint64(last&fillCountMask)
			take := min(n, room)
			b.words[len(b.words)-1] = last + uint32(take)
			n -= take
		} else if last == 0 && bit == 0 {
			// Literal all-zero word degrades to a fill of one group.
			b.words[len(b.words)-1] = fillFlag | 2
			n--
			b.appendMoreFills(bit, n)
			return
		} else if last == allOnes && bit == 1 {
			b.words[len(b.words)-1] = fillFlag | fillValueBit | 2
			n--
			b.appendMoreFills(bit, n)
			return
		}
	}
	b.appendMoreFills(bit, n)
}

func (b *Bitmap) appendMoreFills(bit uint32, n uint64) {
	for n > 0 {
		take := min(n, maxFillCount)
		w := fillFlag | uint32(take)
		if bit != 0 {
			w |= fillValueBit
		}
		b.words = append(b.words, w)
		n -= take
	}
}

// appendGroupWord appends one whole 31-bit group given as a literal word.
// The active word must be empty.
func (b *Bitmap) appendGroupWord(w uint32) {
	switch w {
	case 0:
		b.appendFillGroups(0, 1)
	case allOnes:
		b.appendFillGroups(1, 1)
	default:
		b.words = append(b.words, w)
		b.nbits += GroupBits
	}
}

// AppendBit appends a single bit (0 or 1) at position Len().
func (b *Bitmap) AppendBit(bit uint32) {
	if bit != 0 {
		b.active |= 1 << b.nactive
	}
	b.nactive++
	b.nbits++
	if b.nactive == GroupBits {
		w := b.active
		b.active, b.nactive = 0, 0
		b.nbits -= GroupBits // appendGroupWord re-adds
		b.appendGroupWord(w)
	}
}

// AppendRun appends count copies of bit at the end of the bitmap.
func (b *Bitmap) AppendRun(bit uint32, count uint64) {
	if count == 0 {
		return
	}
	// Fill the active word to a group boundary.
	if b.nactive > 0 {
		take := min(count, uint64(GroupBits-b.nactive))
		if bit != 0 {
			// take consecutive ones starting at nactive
			b.active |= ((uint32(1) << take) - 1) << b.nactive
		}
		b.nactive += uint32(take)
		b.nbits += take
		count -= take
		if b.nactive == GroupBits {
			w := b.active
			b.active, b.nactive = 0, 0
			b.nbits -= GroupBits
			b.appendGroupWord(w)
		}
		if count == 0 {
			return
		}
	}
	// Whole groups.
	if g := count / GroupBits; g > 0 {
		b.appendFillGroups(uint32(bit&1), g)
		count -= g * GroupBits
	}
	// Remainder into the active word.
	if count > 0 {
		if bit != 0 {
			b.active = (uint32(1) << count) - 1
		}
		b.nactive = uint32(count)
		b.nbits += count
	}
}

// appendBits appends the low k bits of w (LSB first). w must be zero above
// bit k-1.
func (b *Bitmap) appendBits(w uint32, k uint32) {
	if k == 0 {
		return
	}
	if b.nactive == 0 && k == GroupBits {
		b.appendGroupWord(w)
		return
	}
	b.active |= (w << b.nactive) & allOnes
	taken := min(k, GroupBits-b.nactive)
	b.nactive += taken
	b.nbits += uint64(taken)
	if b.nactive == GroupBits {
		full := b.active
		b.active, b.nactive = 0, 0
		b.nbits -= GroupBits
		b.appendGroupWord(full)
	}
	if rest := k - taken; rest > 0 {
		b.appendBits(w>>taken, rest)
	}
}

// Add appends a one bit at position pos, padding the gap since the current
// end with zeros. pos must be >= Len(); Add panics otherwise, since
// compressed bitmaps are append-only builders.
func (b *Bitmap) Add(pos uint64) {
	if pos < b.nbits {
		panic(fmt.Sprintf("wah: Add(%d) out of order, bitmap already has %d bits", pos, b.nbits))
	}
	if gap := pos - b.nbits; gap > 0 {
		b.AppendRun(0, gap)
	}
	b.AppendBit(1)
}

// Extend pads the bitmap with zeros so that Len() == n. It does nothing if
// the bitmap is already at least n bits long.
func (b *Bitmap) Extend(n uint64) {
	if n > b.nbits {
		b.AppendRun(0, n-b.nbits)
	}
}

// Get reports whether the bit at position pos is set. It walks the
// compressed words and costs O(words); use iteration for bulk access.
func (b *Bitmap) Get(pos uint64) bool {
	if pos >= b.nbits {
		return false
	}
	g := pos / GroupBits
	off := pos % GroupBits
	var seen uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			n := uint64(w & fillCountMask)
			if g < seen+n {
				return w&fillValueBit != 0
			}
			seen += n
		} else {
			if g == seen {
				return w&(1<<off) != 0
			}
			seen++
		}
	}
	return b.active&(1<<off) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var c uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			if w&fillValueBit != 0 {
				c += uint64(w&fillCountMask) * GroupBits
			}
		} else {
			c += uint64(bits.OnesCount32(w))
		}
	}
	return c + uint64(bits.OnesCount32(b.active))
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w&fillFlag != 0 {
			if w&fillValueBit != 0 {
				return true
			}
		} else if w != 0 {
			return true
		}
	}
	return b.active != 0
}

// FirstOne returns the position of the first set bit. ok is false when the
// bitmap has no set bits. It stops at the first set bit, skipping leading
// zero fills in O(1) per fill word — the fast path behind the paper's
// "distinction" step.
func (b *Bitmap) FirstOne() (pos uint64, ok bool) {
	var base uint64
	for _, w := range b.words {
		if w&fillFlag != 0 {
			n := uint64(w & fillCountMask)
			if w&fillValueBit != 0 {
				return base, true
			}
			base += n * GroupBits
		} else {
			if w != 0 {
				return base + uint64(bits.TrailingZeros32(w)), true
			}
			base += GroupBits
		}
	}
	if b.active != 0 {
		return base + uint64(bits.TrailingZeros32(b.active)), true
	}
	return 0, false
}

// Equal reports whether two bitmaps have identical length and identical
// bit content (regardless of how runs happen to be encoded).
func Equal(a, b *Bitmap) bool {
	if a.nbits != b.nbits {
		return false
	}
	da, db := newDecoder(a), newDecoder(b)
	remaining := a.nbits / GroupBits
	for remaining > 0 {
		va, na := da.peek()
		vb, nb := db.peek()
		if va != vb {
			return false
		}
		n := min(na, nb, remaining)
		da.consume(n)
		db.consume(n)
		remaining -= n
	}
	if rem := a.nbits % GroupBits; rem > 0 {
		va, _ := da.peek()
		vb, _ := db.peek()
		mask := (uint32(1) << rem) - 1
		return va&mask == vb&mask
	}
	return true
}

// Validate checks internal invariants of the compressed representation and
// returns an error describing the first violation.
func (b *Bitmap) Validate() error {
	var groups uint64
	for i, w := range b.words {
		if w&fillFlag != 0 {
			n := uint64(w & fillCountMask)
			if n == 0 {
				return fmt.Errorf("wah: word %d is a fill with zero count", i)
			}
			groups += n
		} else {
			groups++
		}
	}
	if b.nactive >= GroupBits {
		return fmt.Errorf("wah: active word has %d bits", b.nactive)
	}
	if b.nactive > 0 && b.active>>b.nactive != 0 {
		return fmt.Errorf("wah: active word has bits above nactive")
	}
	if want := groups*GroupBits + uint64(b.nactive); want != b.nbits {
		return fmt.Errorf("wah: words encode %d bits but nbits is %d", want, b.nbits)
	}
	return nil
}

// String renders a short diagnostic description.
func (b *Bitmap) String() string {
	return fmt.Sprintf("wah.Bitmap{bits=%d ones=%d words=%d}", b.nbits, b.Count(), len(b.words))
}
