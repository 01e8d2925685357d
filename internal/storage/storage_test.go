package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cods/internal/colstore"
	"cods/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := workload.BuildColstore(workload.Spec{Rows: 1000, DistinctKeys: 30, Seed: 1}, "R")
	if err != nil {
		t.Fatal(err)
	}
	emp, err := workload.EmployeeTable("Employees")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, []*colstore.Table{r, emp}); err != nil {
		t.Fatal(err)
	}
	tables, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("loaded %d tables", len(tables))
	}
	byName := map[string]*colstore.Table{}
	for _, tab := range tables {
		byName[tab.Name()] = tab
	}
	for _, want := range []*colstore.Table{r, emp} {
		got, ok := byName[want.Name()]
		if !ok {
			t.Fatalf("table %q missing after load", want.Name())
		}
		if !reflect.DeepEqual(got.TupleMultiset(), want.TupleMultiset()) {
			t.Fatalf("table %q content changed across save/load", want.Name())
		}
		if !reflect.DeepEqual(got.ColumnNames(), want.ColumnNames()) {
			t.Fatalf("table %q columns changed", want.Name())
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadRejectsCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestLoadRejectsWrongFormatVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(`{"format": 99, "tables": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected version error")
	}
}

func TestLoadRejectsCorruptColumn(t *testing.T) {
	dir := t.TempDir()
	emp, _ := workload.EmployeeTable("E")
	if err := Save(dir, []*colstore.Table{emp}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "E", "seg-0000", "0.col")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // break the magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestSaveOverwrites(t *testing.T) {
	dir := t.TempDir()
	emp, _ := workload.EmployeeTable("E")
	if err := Save(dir, []*colstore.Table{emp}); err != nil {
		t.Fatal(err)
	}
	small, _ := workload.BuildColstore(workload.Spec{Rows: 10, DistinctKeys: 2, Seed: 9}, "E")
	if err := Save(dir, []*colstore.Table{small}); err != nil {
		t.Fatal(err)
	}
	tables, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].NumRows() != 10 {
		t.Fatalf("overwrite failed: %v", tables)
	}
}
