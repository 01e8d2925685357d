// Package dict provides per-column value dictionaries: a bijection between
// column values (strings at the API boundary) and dense uint32 ids used by
// all hot paths of the column store.
package dict

import (
	"encoding/binary"
	"fmt"
	"io"
)

// NoID is returned by Lookup for values absent from the dictionary.
const NoID = ^uint32(0)

// Dict maps values to dense ids 0..Len()-1 in insertion order. The zero
// value is ready to use. Not safe for concurrent mutation.
type Dict struct {
	values []string
	ids    map[string]uint32
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.values) }

// Intern returns the id of v, assigning the next free id when v is new.
func (d *Dict) Intern(v string) uint32 {
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	if id, ok := d.ids[v]; ok {
		return id
	}
	id := uint32(len(d.values))
	d.values = append(d.values, v)
	d.ids[v] = id
	return id
}

// Lookup returns the id of v, or NoID when absent.
func (d *Dict) Lookup(v string) uint32 {
	if id, ok := d.ids[v]; ok {
		return id
	}
	return NoID
}

// Value returns the value with the given id. It panics when id is out of
// range: ids come from the dictionary itself, so a bad id is a programmer
// error.
func (d *Dict) Value(id uint32) string { return d.values[id] }

// Values returns the backing value slice in id order. Callers must not
// modify it.
func (d *Dict) Values() []string { return d.values }

// Clone returns an independent copy.
func (d *Dict) Clone() *Dict {
	c := New()
	c.values = append([]string(nil), d.values...)
	for i, v := range c.values {
		c.ids[v] = uint32(i)
	}
	return c
}

// WriteTo writes the dictionary in a length-prefixed binary format.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	var total int64
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(d.values)))
	n, err := w.Write(hdr[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	var lenBuf [4]byte
	for _, v := range d.values {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(v)))
		n, err = w.Write(lenBuf[:])
		total += int64(n)
		if err != nil {
			return total, err
		}
		n, err = io.WriteString(w, v)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadFrom replaces the dictionary with one read from r.
func (d *Dict) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	var hdr [4]byte
	n, err := io.ReadFull(r, hdr[:])
	total += int64(n)
	if err != nil {
		return total, fmt.Errorf("dict: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[:])
	values := make([]string, 0, count)
	ids := make(map[string]uint32, count)
	for i := uint32(0); i < count; i++ {
		n, err = io.ReadFull(r, hdr[:])
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("dict: reading value %d length: %w", i, err)
		}
		l := binary.LittleEndian.Uint32(hdr[:])
		buf := make([]byte, l)
		n, err = io.ReadFull(r, buf)
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("dict: reading value %d: %w", i, err)
		}
		v := string(buf)
		if _, dup := ids[v]; dup {
			return total, fmt.Errorf("dict: duplicate value %q at id %d", v, i)
		}
		ids[v] = i
		values = append(values, v)
	}
	d.values, d.ids = values, ids
	return total, nil
}
