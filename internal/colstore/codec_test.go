package colstore

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Byte 8, right after the magic, is the encoding. 1 was the retired RLE
// encoding; it and any other non-bitmap byte must fail with an error
// naming the encoding, never a panic or a misread column.
func TestReadColumnRejectsUnsupportedEncoding(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewColumnFromValues("X", []string{"a", "b", "a"}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []byte{1, 7} {
		data := bytes.Clone(buf.Bytes())
		data[8] = enc
		_, err := ReadColumn(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("encoding byte %d: ReadColumn succeeded", enc)
		}
		if want := "unsupported column encoding " + strconv.Itoa(int(enc)); !strings.Contains(err.Error(), want) {
			t.Fatalf("encoding byte %d: error %q does not contain %q", enc, err, want)
		}
	}
}
