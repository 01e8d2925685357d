// Package csvio loads CSV files into column-store tables and writes
// tables back out — the demo platform's "load data" and "display table"
// file paths.
package csvio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"

	"cods/internal/colstore"
)

// Load reads a CSV file with a header row into a new table. key names the
// primary-key columns (may be nil).
func Load(path, tableName string, key []string) (*colstore.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	defer f.Close()
	return Read(f, tableName, key)
}

// Read parses CSV from r (header row first) into a new table.
func Read(r io.Reader, tableName string, key []string) (*colstore.Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	tb, err := colstore.NewTableBuilder(tableName, append([]string(nil), header...), key)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: row %d: %w", tb.NumRows()+2, err)
		}
		if err := tb.AppendRow(rec); err != nil {
			return nil, err
		}
	}
	return tb.Finish()
}

// Save writes a table as CSV with a header row.
func Save(path string, t *colstore.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Write streams a table as CSV to w.
func Write(w io.Writer, t *colstore.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	rows, err := t.Rows(0, 0)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
