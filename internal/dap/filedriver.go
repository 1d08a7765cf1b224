package dap

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mocha/internal/types"
)

// fileSource serves tables from a directory of table files, one per
// table — the data sources with no query language of sections 3.2 and
// 3.4, which take part in distributed queries because the DAP maps
// their contents into the middleware schema. A file is read and parsed
// once, at first use, into its rows' wire encodings, so a scan yields
// windows into them as the store's does. The two kinds differ only in
// their parser F.
type fileSource[F fileFormat] struct {
	Dir string

	mu     sync.Mutex
	tables map[string]*fileTable // lazily loaded
}

// FileDriver serves tables from flat files, the paper's file server:
// a directory holding one <table>.mft file per table,
//
//	magic "MFT1"
//	u16 column count, then per column: u16 name length, name bytes,
//	one kind byte
//	u32 tuple count, then the schema-encoded tuples
type FileDriver = fileSource[mftFile]

// XMLDriver serves tables from an XML repository — the native XML data
// source the paper's QPC design calls out in section 3.2. A repository
// is a directory of <table>.xml documents:
//
//	<table name="Stations">
//	  <schema>
//	    <column name="id" kind="INT"/>
//	    <column name="name" kind="STRING"/>
//	  </schema>
//	  <row><v>1</v><v>College Park</v></row>
//	  ...
//	</table>
//
// Scalar values use their SQL literal text; spatial and large values use
// base64 of the wire payload.
type XMLDriver = fileSource[xmlFile]

// fileFormat is one kind of table file: its name suffix and its parser.
type fileFormat interface {
	suffix() string
	parse(data []byte) (*fileTable, error)
}

// fileTable is a parsed table file: its rows' wire encodings back to
// back in recs, column c of row r at recs[ends[r*a+c]:ends[r*a+c+1]]
// for a schema of a columns. Nothing writes recs after the parse.
type fileTable struct {
	schema types.Schema
	rows   int
	recs   []byte
	ends   []int
}

func (d *fileSource[F]) load(table string) (*fileTable, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(table)
	if ft, ok := d.tables[key]; ok {
		return ft, nil
	}
	var f F
	name := table + f.suffix()
	// The table name arrives in a START: it names a file in Dir or none.
	if !filepath.IsLocal(name) || filepath.Base(name) != name {
		return nil, fmt.Errorf("dap: %q is not a table of %s", table, d.Dir)
	}
	data, err := os.ReadFile(filepath.Join(d.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("dap: %s has no table %q: %w", d.Dir, table, err)
	}
	ft, err := f.parse(data)
	if err != nil {
		return nil, fmt.Errorf("dap: table file %s: %w", name, err)
	}
	if d.tables == nil {
		d.tables = make(map[string]*fileTable)
	}
	d.tables[key] = ft
	return ft, nil
}

// TableSchema implements AccessDriver.
func (d *fileSource[F]) TableSchema(table string) (types.Schema, error) {
	ft, err := d.load(table)
	if err != nil {
		return types.Schema{}, err
	}
	return ft.schema, nil
}

// Scan implements AccessDriver: the windows are into the parsed file.
func (d *fileSource[F]) Scan(table string, cols []int, emit func([][]byte) error) error {
	ft, err := d.load(table)
	if err != nil {
		return err
	}
	enc := make([][]byte, len(cols))
	for r := 0; r < ft.rows; r++ {
		at := r * ft.schema.Arity()
		for i, c := range cols {
			enc[i] = ft.recs[ft.ends[at+c]:ft.ends[at+c+1]:ft.ends[at+c+1]]
		}
		if err := emit(enc); err != nil {
			return err
		}
	}
	return nil
}

// Tables lists the directory's table files, implementing TableLister.
func (d *fileSource[F]) Tables() ([]string, error) {
	var f F
	entries, err := os.ReadDir(d.Dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), f.suffix()); ok && !e.IsDir() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// mftFile is FileDriver's format.
type mftFile struct{}

const fileTableMagic = "MFT1"

func (mftFile) suffix() string { return ".mft" }

// WriteFileTable serializes a table into dir in FileDriver's format; it
// is the export path a file-serving site uses to publish data.
func WriteFileTable(dir, name string, schema types.Schema, tuples []types.Tuple) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 0, 1024)
	buf = append(buf, fileTableMagic...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(schema.Arity()))
	for _, c := range schema.Columns {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Kind))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tuples)))
	for i, t := range tuples {
		if len(t) != schema.Arity() {
			return fmt.Errorf("dap: tuple %d arity %d, schema arity %d", i, len(t), schema.Arity())
		}
		buf = t.AppendTo(buf)
	}
	return os.WriteFile(filepath.Join(dir, name+".mft"), buf, 0o644)
}

// parse takes the file's tuples as they lie: the format is the wire
// tuple format, each column checked by DecodeValue's length rules.
func (mftFile) parse(data []byte) (*fileTable, error) {
	if len(data) < 6 || string(data[:4]) != fileTableMagic {
		return nil, fmt.Errorf("bad magic")
	}
	off := 4
	ncols := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	ft := &fileTable{ends: []int{0}}
	for i := 0; i < ncols; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("truncated column header")
		}
		nameLen := int(binary.BigEndian.Uint16(data[off:]))
		off += 2
		if off+nameLen+1 > len(data) {
			return nil, fmt.Errorf("truncated column name")
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		kind := types.Kind(data[off])
		off++
		if !kind.Valid() || kind == types.KindNull {
			return nil, fmt.Errorf("column %q has invalid kind %d", name, kind)
		}
		ft.schema.Columns = append(ft.schema.Columns, types.Column{Name: name, Kind: kind})
	}
	if off+4 > len(data) {
		return nil, fmt.Errorf("truncated tuple count")
	}
	ft.rows = int(binary.BigEndian.Uint32(data[off:]))
	ft.recs = data[off+4:]
	// Every value of a column's kind takes a byte or more, so the
	// count and the offsets are bounded by the file; only a table of no
	// column could claim rows without bytes, and it claims none.
	if ft.rows > len(ft.recs) {
		return nil, fmt.Errorf("%d tuples in %d bytes", ft.rows, len(ft.recs))
	}
	at := 0
	for i := 0; i < ft.rows; i++ {
		for _, c := range ft.schema.Columns {
			n, err := types.ValueSize(c.Kind, ft.recs[at:])
			if err != nil {
				return nil, fmt.Errorf("tuple %d: column %q: %w", i, c.Name, err)
			}
			at += n
			ft.ends = append(ft.ends, at)
		}
	}
	if at != len(ft.recs) {
		return nil, fmt.Errorf("%d trailing bytes", len(ft.recs)-at)
	}
	return ft, nil
}

// xmlFile is XMLDriver's format.
type xmlFile struct{}

func (xmlFile) suffix() string { return ".xml" }

type xmlTableDoc struct {
	XMLName xml.Name     `xml:"table"`
	Name    string       `xml:"name,attr"`
	Schema  types.Schema `xml:"schema"`
	Rows    []xmlRow     `xml:"row"`
}

type xmlRow struct {
	Values []string `xml:"v"`
}

// WriteXMLTable publishes a table into an XML repository directory.
func WriteXMLTable(dir, name string, schema types.Schema, tuples []types.Tuple) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := xmlTableDoc{Name: name, Schema: schema}
	for _, t := range tuples {
		row := xmlRow{}
		for _, v := range t {
			row.Values = append(row.Values, encodeXMLValue(v))
		}
		doc.Rows = append(doc.Rows, row)
	}
	data, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".xml"), data, 0o644)
}

func encodeXMLValue(v types.Object) string {
	switch x := v.(type) {
	case types.Int:
		return x.String()
	case types.Double:
		return strconv.FormatFloat(float64(x), 'g', -1, 64)
	case types.Bool:
		return x.String()
	case types.String_:
		return string(x)
	default:
		return base64.StdEncoding.EncodeToString(v.AppendTo(nil))
	}
}

func decodeXMLValue(k types.Kind, text string) (types.Object, error) {
	switch k {
	case types.KindInt:
		n, err := strconv.ParseInt(strings.TrimSpace(text), 10, 32)
		if err != nil {
			return nil, err
		}
		return types.Int(int32(n)), nil
	case types.KindDouble:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return nil, err
		}
		return types.Double(f), nil
	case types.KindBool:
		switch strings.TrimSpace(text) {
		case "true":
			return types.Bool(true), nil
		case "false":
			return types.Bool(false), nil
		}
		return nil, fmt.Errorf("invalid BOOL %q: want true or false", text)
	case types.KindString:
		return types.String_(text), nil
	default:
		payload, err := base64.StdEncoding.DecodeString(strings.TrimSpace(text))
		if err != nil {
			return nil, err
		}
		return types.FromPayload(k, payload)
	}
}

// parse decodes every value from its text and encodes it once, with
// AppendTo, into the table's records.
func (xmlFile) parse(data []byte) (*fileTable, error) {
	var doc xmlTableDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	ft := &fileTable{schema: doc.Schema, rows: len(doc.Rows), ends: []int{0}}
	for i, row := range doc.Rows {
		if len(row.Values) != ft.schema.Arity() {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(row.Values), ft.schema.Arity())
		}
		for j, text := range row.Values {
			v, err := decodeXMLValue(ft.schema.Columns[j].Kind, text)
			if err != nil {
				return nil, fmt.Errorf("row %d column %q: %w", i, ft.schema.Columns[j].Name, err)
			}
			ft.recs = v.AppendTo(ft.recs)
			ft.ends = append(ft.ends, len(ft.recs))
		}
	}
	return ft, nil
}
