package bx

import (
	"fmt"
	"sync/atomic"

	"medshare/internal/reldb"
)

// JoinLens enriches the source with columns from a *reference table*: the
// view is the natural join of the source with a fixed lookup relation
// (e.g. patient rows joined with a medication formulary, so the shared
// view shows the mechanism of action next to each prescription).
//
// General join lenses are not well behaved — an edit to a joined-in
// column is ambiguous between "change the reference row" and "re-point the
// source row". This lens therefore adopts the classic restriction from
// the lens literature: the reference side is **read-only**. put accepts
// edits to source columns and rejects edits to reference columns, which
// keeps both laws:
//
//   - GetPut: re-putting an unchanged view writes back the original
//     source columns;
//   - PutGet: get re-joins the updated source with the same reference,
//     reproducing exactly the accepted view edits.
//
// "Rejects edits to reference columns" is enforced by *re-joining* every
// written row: the row's join-column tuple selects its reference row
// through a hash index over the reference table's join-tuple encodings
// (one lazy O(m) build per memoized plan, O(1) per probe), and the
// view row's reference columns must equal that row's — so an edit that
// re-points a row to a different reference row is accepted exactly when
// the view carries the new reference values, which is the only embedding
// under which PutGet holds. Rows whose join tuple matches no reference
// row are rejected (get would drop them), as are view-side inserts and
// deletes (the source rows they would create or destroy cannot be
// derived from a read-only reference).
//
// The reference table is part of the lens definition. Its content is
// embedded in the serialized spec, so counterparties rebuild an identical
// lens from on-chain metadata.
type JoinLens struct {
	// ViewName names the produced view table.
	ViewName string
	// Ref is the read-only reference relation; it must share at least
	// one column name with the source.
	Ref *reldb.Table

	// planMemo caches the column-geometry plan — and, hanging off it,
	// the reference index — for the one source schema a lens serves in
	// practice (keyed by the schema's canonical digest), so the
	// per-delta cost does not include re-deriving the view schema.
	planMemo atomic.Pointer[joinPlan]
}

// Join constructs a reference-join lens.
func Join(viewName string, ref *reldb.Table) *JoinLens {
	return &JoinLens{ViewName: viewName, Ref: ref}
}

// ViewSchema implements Lens.
func (l *JoinLens) ViewSchema(src reldb.Schema) (reldb.Schema, error) {
	probe, err := reldb.NewTable(src)
	if err != nil {
		return reldb.Schema{}, err
	}
	joined, err := probe.NaturalJoin(l.ViewName, l.Ref)
	if err != nil {
		return reldb.Schema{}, err
	}
	// The view keeps the source's key: every source row joins to at most
	// one reference row in a lookup join, so the source key still
	// identifies view rows. (A reference with duplicate join keys makes
	// Get fail instead of silently multiplying rows.)
	s := joined.Schema()
	s.Key = append([]string(nil), src.Key...)
	if err := s.Validate(); err != nil {
		return reldb.Schema{}, err
	}
	return s, nil
}

// joinPlan precomputes the column geometry of one source schema against
// the lens's reference: where the join (shared) columns, the reference
// extras, and the source columns sit in source, reference, and view rows.
type joinPlan struct {
	// srcSum is the canonical digest of the source schema this plan was
	// derived for (the memo key).
	srcSum     [32]byte
	want       reldb.Schema
	viewKeyIdx []int // view key positions in a view row
	// shared are the join columns (source column order); sharedSrc and
	// sharedView are their positions in source and view rows.
	shared     []string
	sharedSrc  []int
	sharedView []int
	// refExtra are the reference-only columns; extraRef and extraView
	// are their positions in reference and view rows.
	refExtra  []string
	extraRef  []int
	extraView []int
	// srcView maps each source column position to its view position.
	srcView []int
	// refIdx lazily maps the ordered encoding of a reference row's join
	// tuple (under THIS plan's join columns) to the row — the O(1),
	// allocation-free re-join probe. It lives on the plan so a schema
	// switch rebuilds plan and index together. A nil row marks a
	// duplicate join tuple (not a lookup join for that key).
	refIdx atomic.Pointer[map[string]reldb.Row]
}

// plan returns (computing and memoizing on first use) the column plan
// for src's schema. The memo holds one entry — a lens serves one source
// schema in practice — and is safe for concurrent readers.
func (l *JoinLens) plan(src *reldb.Table) (*joinPlan, error) {
	sum := src.SchemaSum()
	if p := l.planMemo.Load(); p != nil && p.srcSum == sum {
		return p, nil
	}
	srcSchema := src.Schema()
	want, err := l.ViewSchema(srcSchema)
	if err != nil {
		return nil, err
	}
	refSchema := l.Ref.Schema()
	p := &joinPlan{srcSum: sum, want: want, viewKeyIdx: want.KeyIndexes()}
	for i, c := range srcSchema.Columns {
		if refSchema.HasColumn(c.Name) {
			p.shared = append(p.shared, c.Name)
			p.sharedSrc = append(p.sharedSrc, i)
			p.sharedView = append(p.sharedView, want.ColumnIndex(c.Name))
		}
		p.srcView = append(p.srcView, want.ColumnIndex(c.Name))
	}
	for _, c := range refSchema.Columns {
		if !srcSchema.HasColumn(c.Name) {
			p.refExtra = append(p.refExtra, c.Name)
			p.extraRef = append(p.extraRef, refSchema.ColumnIndex(c.Name))
			p.extraView = append(p.extraView, want.ColumnIndex(c.Name))
		}
	}
	l.planMemo.Store(p)
	return p, nil
}

// refIndex returns (building on first use) the plan's join-tuple →
// reference row map. Safe for concurrent readers: the reference is
// immutable, so racing builds store identical maps.
func (l *JoinLens) refIndex(p *joinPlan) map[string]reldb.Row {
	if ix := p.refIdx.Load(); ix != nil {
		return *ix
	}
	refSchema := l.Ref.Schema()
	refShared := make([]int, len(p.shared))
	for i, c := range p.shared {
		refShared[i] = refSchema.ColumnIndex(c)
	}
	ix := make(map[string]reldb.Row, l.Ref.Len())
	var buf []byte
	_ = l.Ref.Scan(func(rr reldb.Row) (bool, error) {
		buf = buf[:0]
		for _, j := range refShared {
			buf = rr[j].AppendOrdered(buf)
		}
		if _, dup := ix[string(buf)]; dup {
			ix[string(buf)] = nil // not a lookup join for this tuple
		} else {
			ix[string(buf)] = rr
		}
		return true, nil
	})
	p.refIdx.Store(&ix)
	return ix
}

// rejoin returns the unique reference row selected by the join-column
// tuple at the given row positions (idx into r) — the per-row lookup
// behind Get, GetDelta and PutDelta: one allocation-free map probe against
// the lens's reference index. keyBuf is the caller's reusable scratch.
func (l *JoinLens) rejoin(p *joinPlan, keyBuf []byte, r reldb.Row, idx []int) (reldb.Row, []byte, error) {
	keyBuf = keyBuf[:0]
	for _, j := range idx {
		keyBuf = r[j].AppendOrdered(keyBuf)
	}
	refRow, ok := l.refIndex(p)[string(keyBuf)]
	if !ok {
		return nil, keyBuf, fmt.Errorf("%w: view %s row %v has no reference match", ErrPutViolation, l.ViewName, viewKeyOf(p.want, r))
	}
	if refRow == nil {
		return nil, keyBuf, fmt.Errorf("bx: join of view %s is not a lookup join (duplicate reference match)", l.ViewName)
	}
	return refRow, keyBuf, nil
}

// checkRefCols verifies a view row carries exactly the reference values
// its join tuple selects (the read-only-reference rule, per row).
func (l *JoinLens) checkRefCols(p *joinPlan, vr, refRow reldb.Row) error {
	for i, vi := range p.extraView {
		if !vr[vi].Equal(refRow[p.extraRef[i]]) {
			return fmt.Errorf("%w: join view edited read-only reference column %s", ErrPutViolation, p.refExtra[i])
		}
	}
	return nil
}

// sourceRow strips the reference columns from a view row.
func (p *joinPlan) sourceRow(vr reldb.Row) reldb.Row {
	sr := make(reldb.Row, len(p.srcView))
	for i, vi := range p.srcView {
		sr[i] = vr[vi]
	}
	return sr
}

// Get implements Lens: one in-order pass over the source, each row
// enriched by an O(1) reference-index probe, rebuilt on the
// source's tree shape (the view keeps the source key, so keys,
// priorities, and structure carry over — no re-keying, no re-hashing).
func (l *JoinLens) Get(src *reldb.Table) (*reldb.Table, error) {
	p, err := l.plan(src)
	if err != nil {
		return nil, err
	}
	var keyBuf []byte
	return src.RebuildAs(p.want, func(sr reldb.Row) (vr reldb.Row, err error) {
		vr, keyBuf, err = l.viewRow(p, keyBuf, sr, src.Name())
		return vr, err
	})
}

// viewRow derives one view row: the source row (of the table named
// srcName) plus the reference columns its join tuple selects.
func (l *JoinLens) viewRow(p *joinPlan, keyBuf []byte, sr reldb.Row, srcName string) (reldb.Row, []byte, error) {
	refRow, keyBuf, err := l.rejoin(p, keyBuf, sr, p.sharedSrc)
	if err != nil {
		return nil, keyBuf, fmt.Errorf("bx: join lens cannot derive %s from %s: %w", l.ViewName, srcName, err)
	}
	vr := make(reldb.Row, len(p.want.Columns))
	for i, vi := range p.srcView {
		vr[vi] = sr[i]
	}
	for i, vi := range p.extraView {
		vr[vi] = refRow[p.extraRef[i]]
	}
	return vr, keyBuf, nil
}

// PutDelta implements Lens: each changed row re-joins against the
// reference through the plan's hash index and is rejected per row if it
// edits a reference column or matches no reference row; structural view
// edits are rejected outright (the reference side is read-only). Cost is
// O(changed rows · log n).
func (l *JoinLens) PutDelta(src, view *reldb.Table, cs reldb.Changeset) (*reldb.Table, reldb.Changeset, error) {
	p, err := l.plan(src)
	if err != nil {
		return nil, reldb.Changeset{}, err
	}
	if !p.want.Equal(view.Schema()) {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: join view schema mismatch", ErrPutViolation)
	}
	if len(cs.Inserted) > 0 {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: join view inserted row with key %v (reference side is read-only)", ErrPutViolation, viewKeyOf(p.want, cs.Inserted[0]))
	}
	if len(cs.Deleted) > 0 {
		return nil, reldb.Changeset{}, fmt.Errorf("%w: join view deleted rows (reference side is read-only)", ErrPutViolation)
	}
	out := src.Clone()
	var srcCs reldb.Changeset
	var keyBuf []byte
	for _, u := range cs.Updated {
		keyBuf = keyBuf[:0]
		for _, j := range p.viewKeyIdx {
			keyBuf = u.After[j].AppendOrdered(keyBuf)
		}
		before, ok := out.GetKeyBytes(keyBuf)
		if !ok {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: delta update on view %s targets missing source row (stale changeset?)", ErrPutViolation, l.ViewName)
		}
		var refRow reldb.Row
		refRow, keyBuf, err = l.rejoin(p, keyBuf, u.After, p.sharedView)
		if err != nil {
			return nil, reldb.Changeset{}, err
		}
		if err := l.checkRefCols(p, u.After, refRow); err != nil {
			return nil, reldb.Changeset{}, err
		}
		nr := p.sourceRow(u.After)
		if err := out.UpsertOwned(nr); err != nil {
			return nil, reldb.Changeset{}, fmt.Errorf("%w: %v", ErrPutViolation, err)
		}
		srcCs.Updated = append(srcCs.Updated, reldb.RowChange{Before: before, After: nr})
	}
	return out, srcCs, nil
}

// Spec implements Lens. The reference table rides along in the spec.
func (l *JoinLens) Spec() Spec {
	raw, err := reldb.MarshalTable(l.Ref)
	if err != nil {
		panic(fmt.Sprintf("bx: join reference marshal: %v", err))
	}
	return Spec{Op: OpJoin, ViewName: l.ViewName, Ref: raw}
}

// SourceColumnsRead implements Lens.
func (l *JoinLens) SourceColumnsRead(src reldb.Schema) ([]string, error) {
	return src.ColumnNames(), nil
}

// SourceColumnsWritten implements Lens: only source columns are writable.
func (l *JoinLens) SourceColumnsWritten(src reldb.Schema, viewCols []string) ([]string, error) {
	if viewCols == nil {
		return src.ColumnNames(), nil
	}
	var out []string
	for _, c := range viewCols {
		if src.HasColumn(c) {
			out = append(out, c)
		}
	}
	return out, nil
}
