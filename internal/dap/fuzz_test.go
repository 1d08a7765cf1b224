package dap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/types"
)

// fileSourceSeeds are FuzzFileSource's valid table files: driverTuples
// as a .mft file and as an XML repository document.
func fileSourceSeeds(f *testing.F) (mft, repo []byte) {
	dir := f.TempDir()
	if err := WriteFileTable(dir, "T", driverSchema, driverTuples()); err != nil {
		f.Fatal(err)
	}
	if err := WriteXMLTable(dir, "T", driverSchema, driverTuples()); err != nil {
		f.Fatal(err)
	}
	var err error
	if mft, err = os.ReadFile(filepath.Join(dir, "T.mft")); err != nil {
		f.Fatal(err)
	}
	if repo, err = os.ReadFile(filepath.Join(dir, "T.xml")); err != nil {
		f.Fatal(err)
	}
	return mft, repo
}

// FuzzFileSource: a table file comes from outside the program. The input
// is a format byte — even for a flat-file directory (a .mft file), odd
// for an XML repository — then the one table file, T, of the directory. Loading it and scanning every column returns an
// error or rows, and never panics; a scan returns at most a row per
// byte of the file, so it ends; every column window holds exactly one
// value; and the rows read, written back in the same format, read back
// as the same rows. The valid files read back driverTuples.
func FuzzFileSource(f *testing.F) {
	mft, repo := fileSourceSeeds(f)
	flat := func(b []byte) []byte { return append([]byte{0}, b...) }
	xmlDoc := func(b []byte) []byte { return append([]byte{1}, b...) }
	f.Add(flat(mft))
	f.Add(xmlDoc(repo))
	// .mft: a header of its magic, a u16 column count and, per column, a
	// u16 name length, the name and a kind byte; then a u32 row count.
	header := func(kinds ...types.Kind) []byte {
		b := binary.BigEndian.AppendUint16([]byte(fileTableMagic), uint16(len(kinds)))
		for i, k := range kinds {
			b = binary.BigEndian.AppendUint16(b, 1)
			b = append(b, byte('a'+i), byte(k))
		}
		return b
	}
	f.Add(flat(binary.BigEndian.AppendUint32(header(), 0xffffffff)))               // rows of no column
	f.Add(flat(binary.BigEndian.AppendUint32(header(types.KindNull), 0xffffffff))) // rows of no bytes
	f.Add(flat(binary.BigEndian.AppendUint32(header(types.KindInt), 0xffffffff)))  // a count the bytes cannot back
	f.Add(flat(append(binary.BigEndian.AppendUint32(header(types.KindString), 1), 0xff, 0xff, 0xff, 0xff)))
	f.Add(flat(binary.BigEndian.AppendUint32(header(types.Kind(200)), 0)))
	f.Add(flat(mft[:len(mft)-1]))
	f.Add(flat(append(bytes.Clone(mft), 0)))
	for _, edit := range [][2]string{
		{`kind="INT"`, `kind="NULL"`},
		{`kind="INT"`, `kind="TREE"`},
		{`<v>0</v>`, `<v>zebra</v>`},
		{`<v>0</v>`, ``},
		{`kind="RASTER"`, `kind="GRAPH"`},
		{`kind="STRING"`, `kind="BOOL"`},
		{`</table>`, ``},
	} {
		f.Add(xmlDoc([]byte(strings.Replace(string(repo), edit[0], edit[1], 1))))
	}
	f.Add(xmlDoc([]byte(`<table><schema></schema><row></row><row></row></table>`)))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		xmlRepo, data := in[0]&1 == 1, in[1:]
		open := func(dir string) AccessDriver {
			if xmlRepo {
				return &XMLDriver{Dir: dir}
			}
			return &FileDriver{Dir: dir}
		}
		write, suffix := WriteFileTable, ".mft"
		if xmlRepo {
			write, suffix = WriteXMLTable, ".xml"
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "T"+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid := bytes.Equal(data, mft) && !xmlRepo || bytes.Equal(data, repo) && xmlRepo
		schema, rows, err := readFileTable(t, open(dir), len(data))
		if err != nil {
			if valid {
				t.Fatalf("valid file refused: %v", err)
			}
			return
		}
		if valid && (!schema.Equal(driverSchema) || fmt.Sprint(rows) != fmt.Sprint(driverTuples())) {
			t.Fatalf("valid file reads %v %v", schema, rows)
		}
		again := t.TempDir()
		if err := write(again, "T", schema, rows); err != nil {
			t.Fatalf("writing back what was read: %v", err)
		}
		schema2, rows2, err := readFileTable(t, open(again), -1)
		if err != nil || !schema2.Equal(schema) || fmt.Sprint(rows2) != fmt.Sprint(rows) {
			t.Fatalf("written back, %d rows of %v read back as %d rows of %v (%v)", len(rows), schema, len(rows2), schema2, err)
		}
	})
}

// readFileTable loads table T through d and decodes every column of
// every row it scans, each from a window that must hold exactly its
// value; a scan past maxRows rows (when non-negative) fails the test.
func readFileTable(t *testing.T, d AccessDriver, maxRows int) (types.Schema, []types.Tuple, error) {
	schema, err := d.TableSchema("T")
	if err != nil {
		return schema, nil, err
	}
	cols := make([]int, schema.Arity())
	for i := range cols {
		cols[i] = i
	}
	var rows []types.Tuple
	err = d.Scan("T", cols, func(enc [][]byte) error {
		if maxRows >= 0 && len(rows) == maxRows {
			t.Fatalf("the scan returned more rows than the file's %d bytes", maxRows)
		}
		tup := make(types.Tuple, len(enc))
		for i, b := range enc {
			v, n, err := types.DecodeValue(schema.Columns[i].Kind, b)
			if err != nil {
				return err
			}
			if n != len(b) {
				return fmt.Errorf("column %d: a %d-byte value in a %d-byte window", i, n, len(b))
			}
			tup[i] = v
		}
		rows = append(rows, tup)
		return nil
	})
	return schema, rows, err
}
