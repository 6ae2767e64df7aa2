package bx

import (
	"fmt"
	"math/rand"
	"testing"

	"medshare/internal/reldb"
)

// A reference put for every combinator, written straight from the
// relational definitions and the lens policies over key-sorted row
// slices: no changesets, no indexes, no copy-on-write. Put is PutDelta of
// a diff, so checking PutDelta against Put would check the code against
// itself; the delta tests and FuzzPutDelta check it against refPut.

// refPut returns put(src, view) for l, or an error wrapping
// ErrPutViolation where the lens's policies refuse the edit.
func refPut(l Lens, src, view *reldb.Table) (*reldb.Table, error) {
	want, err := l.Get(src)
	if err != nil {
		return nil, err
	}
	if !want.Schema().Equal(view.Schema()) {
		return nil, fmt.Errorf("%w: reference: view schema mismatch", ErrPutViolation)
	}
	var rows []reldb.Row
	switch l := l.(type) {
	case *ProjectLens:
		rows, err = refPutProject(l, src, view)
	case *SelectLens:
		rows, err = refPutSelect(l, src, view)
	case *RenameLens:
		// A renaming changes names only: the view rows are the source rows.
		rows = view.RowsCanonical()
	case *JoinLens:
		rows, err = refPutJoin(l, src, view)
	case *ComposeLens:
		// put(s, v) = Inner.put(s, Outer.put(Inner.get(s), v))
		mid, err := l.Inner.Get(src)
		if err != nil {
			return nil, err
		}
		newMid, err := refPut(l.Outer, mid, view)
		if err != nil {
			return nil, err
		}
		return refPut(l.Inner, src, newMid)
	default:
		return nil, fmt.Errorf("reference put: no definition for %T", l)
	}
	if err != nil {
		return nil, err
	}
	out, err := reldb.NewTable(src.Schema())
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		// Two rows on one key: an edit moved a source row onto another.
		if err := out.Insert(r); err != nil {
			return nil, fmt.Errorf("%w: reference: %v", ErrPutViolation, err)
		}
	}
	return out, nil
}

func refViolation(what string) error {
	return fmt.Errorf("%w: reference: %s", ErrPutViolation, what)
}

// refIndexes returns the positions of cols in s.
func refIndexes(s reldb.Schema, cols []string) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = s.ColumnIndex(c)
	}
	return out
}

// refKey encodes the values of r at idx.
func refKey(r reldb.Row, idx []int) string {
	key := make(reldb.Row, len(idx))
	for i, j := range idx {
		key[i] = r[j]
	}
	return keyString(key)
}

// refByKey maps each row's key tuple (under s) to the row.
func refByKey(s reldb.Schema, rows []reldb.Row) map[string]reldb.Row {
	idx := s.KeyIndexes()
	m := make(map[string]reldb.Row, len(rows))
	for _, r := range rows {
		m[refKey(r, idx)] = r
	}
	return m
}

// refPutProject: a source row whose view-key tuple is in the view takes
// the view row's values in every projected column; a source row whose
// tuple is not was deleted on the view side (OnDelete); a view row no
// source row projects onto was inserted (OnInsert: hidden columns from
// Defaults, else NULL).
func refPutProject(l *ProjectLens, src, view *reldb.Table) ([]reldb.Row, error) {
	ss, vs := src.Schema(), view.Schema()
	proj := refIndexes(ss, l.Cols)
	viewKeyInSrc := refIndexes(ss, vs.Key)
	vrows := view.RowsCanonical()
	byKey := refByKey(vs, vrows)
	matched := make(map[string]bool, len(vrows))
	var out []reldb.Row
	for _, sr := range src.RowsCanonical() {
		k := refKey(sr, viewKeyInSrc)
		vr, ok := byKey[k]
		if !ok {
			if l.OnDelete != PolicyApply {
				return nil, refViolation("projection forbids deletes")
			}
			continue
		}
		matched[k] = true
		nr := sr.Clone()
		for vi, si := range proj {
			nr[si] = vr[vi]
		}
		out = append(out, nr)
	}
	viewKey := vs.KeyIndexes()
	for _, vr := range vrows {
		if matched[refKey(vr, viewKey)] {
			continue
		}
		if l.OnInsert != PolicyApply {
			return nil, refViolation("projection forbids inserts")
		}
		nr := make(reldb.Row, len(ss.Columns))
		for i, c := range ss.Columns {
			nr[i] = reldb.Null()
			if d, ok := l.Defaults[c.Name]; ok {
				nr[i] = d
			}
		}
		for vi, si := range proj {
			nr[si] = vr[vi]
		}
		out = append(out, nr)
	}
	return out, nil
}

// refPutSelect: every view row must satisfy the predicate; source rows
// outside the selection pass through, and no view row may take one's
// key; a selected source row takes its view row, or was deleted
// (OnDelete); a view row with a new key was inserted (OnInsert).
func refPutSelect(l *SelectLens, src, view *reldb.Table) ([]reldb.Row, error) {
	s := src.Schema()
	vrows := view.RowsCanonical()
	for _, vr := range vrows {
		ok, err := l.Pred.Eval(s, vr)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, refViolation("view row outside the selection")
		}
	}
	byKey := refByKey(s, vrows)
	key := s.KeyIndexes()
	matched := make(map[string]bool, len(vrows))
	var out []reldb.Row
	for _, sr := range src.RowsCanonical() {
		k := refKey(sr, key)
		vr, inView := byKey[k]
		visible, err := l.Pred.Eval(s, sr)
		if err != nil {
			return nil, err
		}
		switch {
		case !visible && inView:
			return nil, refViolation("view row takes the key of a row outside the selection")
		case !visible:
			out = append(out, sr)
		case !inView:
			if l.OnDelete != PolicyApply {
				return nil, refViolation("selection forbids deletes")
			}
		default:
			matched[k] = true
			out = append(out, vr)
		}
	}
	for _, vr := range vrows {
		if matched[refKey(vr, key)] {
			continue
		}
		if l.OnInsert != PolicyApply {
			return nil, refViolation("selection forbids inserts")
		}
		out = append(out, vr)
	}
	return out, nil
}

// refPutJoin: the view keeps the source key and the reference is
// read-only, so the view must hold exactly the source's keys, and each
// view row must carry the reference values of the one reference row
// agreeing with it on every shared column; the source row takes the
// view row's source columns.
func refPutJoin(l *JoinLens, src, view *reldb.Table) ([]reldb.Row, error) {
	ss, vs, rs := src.Schema(), view.Schema(), l.Ref.Schema()
	if view.Len() != src.Len() {
		return nil, refViolation("join view inserted or deleted rows")
	}
	byKey := refByKey(vs, view.RowsCanonical())
	srcInView := refIndexes(vs, ss.ColumnNames())
	key := ss.KeyIndexes()
	var out []reldb.Row
	for _, sr := range src.RowsCanonical() {
		vr, ok := byKey[refKey(sr, key)]
		if !ok {
			return nil, refViolation("join view deleted a row")
		}
		var match []reldb.Row
		for _, rr := range l.Ref.RowsCanonical() {
			agree := true
			for i, c := range rs.Columns {
				if vi := vs.ColumnIndex(c.Name); ss.HasColumn(c.Name) && !vr[vi].Equal(rr[i]) {
					agree = false
				}
			}
			if agree {
				match = append(match, rr)
			}
		}
		if len(match) != 1 {
			return nil, refViolation("join view row has no unique reference match")
		}
		for i, c := range rs.Columns {
			if !ss.HasColumn(c.Name) && !vr[vs.ColumnIndex(c.Name)].Equal(match[0][i]) {
				return nil, refViolation("join view edited a reference column")
			}
		}
		nr := make(reldb.Row, len(srcInView))
		for i, vi := range srcInView {
			nr[i] = vr[vi]
		}
		out = append(out, nr)
	}
	return out, nil
}

// checkPutDelta embeds edited (an edit of view, l's view of src) along
// the delta path and checks it against refPut: both refuse, or both give
// the same source, the reported source changeset replays src into it,
// and PutGet holds. It returns a description of the first disagreement,
// or "".
func checkPutDelta(l Lens, src, view, edited *reldb.Table) string {
	cs, err := view.Diff(edited)
	if err != nil {
		return fmt.Sprintf("diff: %v", err)
	}
	want, wantErr := refPut(l, src, edited)
	got, srcCs, gotErr := PutDelta(l, src, edited, cs)
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Sprintf("reference err %v vs delta err %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	if !want.Equal(got) {
		return "delta result diverges from the reference put"
	}
	replayed := src.Clone()
	if err := replayed.Apply(srcCs); err != nil {
		return fmt.Sprintf("replay: %v", err)
	}
	if !replayed.Equal(got) {
		return "source changeset does not replay"
	}
	round, err := l.Get(got)
	if err != nil {
		return fmt.Sprintf("get after delta put: %v", err)
	}
	if !round.Equal(edited) {
		return "PutGet fails along the delta path"
	}
	return ""
}

// fuzzViewEdit applies n random edits to a view: deletes, inserts of
// fresh rows, and updates to any non-key column, including ones a
// selection filters on or a join reads from its reference. Whether the
// lens admits the result is for the lens to decide; refPut decides the
// same.
func fuzzViewEdit(rng *rand.Rand, view *reldb.Table, n int) {
	s := view.Schema()
	for e := 0; e < n; e++ {
		rows := view.RowsCanonical()
		op := rng.Intn(6)
		switch {
		case op == 0 && len(rows) > 0:
			_ = view.Delete(view.KeyValues(rows[rng.Intn(len(rows))]))
		case op == 1:
			r := make(reldb.Row, len(s.Columns))
			for i, c := range s.Columns {
				r[i] = fuzzValue(rng, c)
			}
			_ = view.Insert(r)
		case len(rows) > 0:
			c := s.Columns[rng.Intn(len(s.Columns))]
			if s.IsKeyColumn(c.Name) {
				continue
			}
			r := rows[rng.Intn(len(rows))]
			_ = view.Update(view.KeyValues(r), map[string]reldb.Value{c.Name: fuzzValue(rng, c)})
		}
	}
}

// fuzzValue draws a value for column c from a small domain, so edits
// collide with existing keys, selections and reference rows. medName(6)
// has no formulary row.
func fuzzValue(rng *rand.Rand, c reldb.Column) reldb.Value {
	if c.Type == reldb.KindInt {
		return reldb.I(int64(rng.Intn(32)))
	}
	med := medName(rng.Intn(7))
	switch c.Name {
	case "med", "medication":
		return reldb.S(med)
	case "class":
		return reldb.S("class" + med)
	case "mech", "mechanism":
		return reldb.S("mech-of-" + med)
	}
	return reldb.S(fmt.Sprintf("%s%d", c.Name, rng.Intn(8)))
}

// FuzzPutDelta: for a random source, lens and view edit, PutDelta must
// agree with the reference put (checkPutDelta).
func FuzzPutDelta(f *testing.F) {
	lenses := len(getDeltaLenses())
	for i := 0; i < lenses; i++ {
		f.Add(int64(i), uint8(i), uint8(10), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, lens, rows, edits uint8) {
		rng := rand.New(rand.NewSource(seed))
		l := getDeltaLenses()[int(lens)%lenses]
		src := genRecords(rng, int(rows%32))
		view, err := l.Get(src)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		edited := view.Clone()
		fuzzViewEdit(rng, edited, 1+int(edits%8))
		if msg := checkPutDelta(l, src, view, edited); msg != "" {
			t.Fatalf("lens %d: %s", int(lens)%lenses, msg)
		}
	})
}
