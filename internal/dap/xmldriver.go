package dap

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"mocha/internal/types"
)

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
type XMLDriver struct {
	Dir string

	mu     sync.Mutex
	tables map[string]*fileTable
}

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
		return types.Bool(strings.TrimSpace(text) == "true"), nil
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

func (d *XMLDriver) load(table string) (*fileTable, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tables == nil {
		d.tables = make(map[string]*fileTable)
	}
	key := strings.ToLower(table)
	if ft, ok := d.tables[key]; ok {
		return ft, nil
	}
	data, err := os.ReadFile(filepath.Join(d.Dir, table+".xml"))
	if err != nil {
		return nil, fmt.Errorf("dap: XML repository has no table %q: %w", table, err)
	}
	var doc xmlTableDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("dap: XML table %s: %w", table, err)
	}
	ft := &fileTable{schema: doc.Schema}
	for i, row := range doc.Rows {
		if len(row.Values) != ft.schema.Arity() {
			return nil, fmt.Errorf("dap: XML table %s row %d has %d values, want %d", table, i, len(row.Values), ft.schema.Arity())
		}
		tup := make(types.Tuple, len(row.Values))
		for j, text := range row.Values {
			v, err := decodeXMLValue(ft.schema.Columns[j].Kind, text)
			if err != nil {
				return nil, fmt.Errorf("dap: XML table %s row %d column %q: %w", table, i, ft.schema.Columns[j].Name, err)
			}
			tup[j] = v
		}
		ft.tuples = append(ft.tuples, tup)
	}
	d.tables[key] = ft
	return ft, nil
}

// TableSchema implements AccessDriver.
func (d *XMLDriver) TableSchema(table string) (types.Schema, error) {
	ft, err := d.load(table)
	if err != nil {
		return types.Schema{}, err
	}
	return ft.schema, nil
}

// Scan implements AccessDriver.
func (d *XMLDriver) Scan(table string, emit func(types.Tuple) error) error {
	ft, err := d.load(table)
	if err != nil {
		return err
	}
	for _, t := range ft.tuples {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}
