package colstore

import (
	"encoding/binary"
	"fmt"
	"io"

	"cods/internal/dict"
	"cods/internal/wah"
)

// columnMagic guards the column binary format.
var columnMagic = [8]byte{'C', 'O', 'D', 'S', 'C', 'O', 'L', '1'}

// WriteTo writes the column in its binary on-disk format:
//
//	[8]  magic "CODSCOL1"
//	u8   encoding (0 bitmap; 1 was rle, no longer read)
//	u64  row count
//	u32  name length, name bytes
//	dict (see dict.WriteTo)
//	u32  bitmap count, bitmaps (see wah.WriteTo)
func (c *Column) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := w.Write(columnMagic[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	hdr := make([]byte, 0, 13+len(c.name))
	hdr = append(hdr, byte(EncodingBitmap))
	hdr = binary.LittleEndian.AppendUint64(hdr, c.nrows)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.name)))
	hdr = append(hdr, c.name...)
	n, err = w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}
	m, err := c.dict.WriteTo(w)
	total += m
	if err != nil {
		return total, err
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(c.bitmaps)))
	n, err = w.Write(cnt[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, bm := range c.bitmaps {
		m, err = bm.WriteTo(w)
		total += m
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadColumn reads a column written by WriteTo.
func ReadColumn(r io.Reader) (*Column, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("colstore: reading column magic: %w", err)
	}
	if magic != columnMagic {
		return nil, fmt.Errorf("colstore: bad column magic %q", magic[:])
	}
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("colstore: reading column header: %w", err)
	}
	if enc := Encoding(hdr[0]); enc != EncodingBitmap {
		return nil, fmt.Errorf("colstore: unsupported column encoding %d", int(enc))
	}
	nrows := binary.LittleEndian.Uint64(hdr[1:9])
	nameLen := binary.LittleEndian.Uint32(hdr[9:13])
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, fmt.Errorf("colstore: reading column name: %w", err)
	}
	d := dict.New()
	if _, err := d.ReadFrom(r); err != nil {
		return nil, err
	}
	c := &Column{name: string(nameBuf), dict: d, nrows: nrows}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("colstore: reading bitmap count: %w", err)
	}
	nbm := binary.LittleEndian.Uint32(cnt[:])
	if int(nbm) != d.Len() {
		return nil, fmt.Errorf("colstore: column %q has %d bitmaps for %d values", c.name, nbm, d.Len())
	}
	c.bitmaps = make([]*wah.Bitmap, nbm)
	for i := range c.bitmaps {
		bm := wah.New()
		if _, err := bm.ReadFrom(r); err != nil {
			return nil, fmt.Errorf("colstore: column %q bitmap %d: %w", c.name, i, err)
		}
		c.bitmaps[i] = bm
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
