package dict

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	d := New()
	for i := 0; i < 100; i++ {
		v := fmt.Sprintf("v%d", i)
		if got := d.Intern(v); got != uint32(i) {
			t.Fatalf("Intern(%q)=%d want %d", v, got, i)
		}
	}
	if d.Len() != 100 {
		t.Fatalf("Len=%d", d.Len())
	}
	// Re-interning returns existing ids.
	if got := d.Intern("v42"); got != 42 {
		t.Fatalf("re-Intern=%d", got)
	}
	if d.Len() != 100 {
		t.Fatalf("re-Intern grew dictionary to %d", d.Len())
	}
}

func TestLookupAndValue(t *testing.T) {
	d := New()
	id := d.Intern("hello")
	if d.Lookup("hello") != id {
		t.Fatal("Lookup mismatch")
	}
	if d.Lookup("absent") != NoID {
		t.Fatal("Lookup of absent value should be NoID")
	}
	if d.Value(id) != "hello" {
		t.Fatal("Value mismatch")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var d Dict
	if d.Intern("a") != 0 || d.Intern("b") != 1 {
		t.Fatal("zero-value Dict broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := New()
	d.Intern("a")
	c := d.Clone()
	c.Intern("b")
	if d.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d/%d", d.Len(), c.Len())
	}
	if c.Lookup("a") != 0 {
		t.Fatal("clone lost entry")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := New()
	for i := 0; i < 57; i++ {
		d.Intern(fmt.Sprintf("value-%d-with-some-text", i))
	}
	d.Intern("") // empty string is a legal value
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := New()
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("Len=%d want %d", got.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if got.Value(uint32(i)) != d.Value(uint32(i)) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestQuickInternRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		d := New()
		for _, v := range vals {
			id := d.Intern(v)
			if d.Value(id) != v || d.Lookup(v) != id {
				return false
			}
		}
		return d.Len() <= len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
