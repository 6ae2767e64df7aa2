package reldb

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The JSON codec is for people: HTTP bodies, CLI files and lens specs.
// Peers and the store move rows in the binary canonical form (canon.go).

// tableDTO is the JSON form of a table.
type tableDTO struct {
	Schema Schema `json:"schema"`
	Rows   []Row  `json:"rows"`
}

// MarshalTable serializes the table (schema plus key-sorted rows) to JSON.
// The row order is canonical so the encoding is deterministic.
func MarshalTable(t *Table) ([]byte, error) {
	return json.Marshal(tableDTO{Schema: t.Schema(), Rows: t.RowsCanonical()})
}

// UnmarshalTable reconstructs a table serialized by MarshalTable.
func UnmarshalTable(data []byte) (*Table, error) {
	var dto tableDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("reldb: decoding table: %w", err)
	}
	t, err := NewTable(dto.Schema)
	if err != nil {
		return nil, err
	}
	for _, r := range dto.Rows {
		if err := t.Insert(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MarshalChangeset serializes a changeset to JSON.
func MarshalChangeset(cs Changeset) ([]byte, error) { return json.Marshal(cs) }

// Format renders the table as an aligned text grid, in canonical row
// order, for CLI output and examples. It mirrors the tables of Fig. 1.
func Format(t *Table) string {
	cols := t.Schema().ColumnNames()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	rows := t.RowsCanonical()
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (key: %s)\n", t.Name(), strings.Join(t.Schema().Key, ", "))
	writeLine := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeLine(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeLine(sep)
	for _, r := range cells {
		writeLine(r)
	}
	return b.String()
}
