package reldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDatabaseCreateGetDrop(t *testing.T) {
	db := NewDatabase("peer1")
	if db.Name() != "peer1" {
		t.Fatalf("name = %s", db.Name())
	}
	db.PutTable(MustNewTable(patientSchema()))
	tbl, err := db.Table("patients")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "patients" {
		t.Fatalf("table name = %s", tbl.Name())
	}
	if err := db.Drop("patients"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("patients"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
	if _, err := db.Table("patients"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
}

func TestDatabasePutTableReplaces(t *testing.T) {
	db := NewDatabase("d")
	a := MustNewTable(patientSchema())
	a.MustInsert(alice())
	db.PutTable(a)
	b := MustNewTable(patientSchema())
	db.PutTable(b)
	got, _ := db.Table("patients")
	if got.Len() != 0 {
		t.Fatal("PutTable did not replace")
	}
}

func TestDatabaseTableNamesSorted(t *testing.T) {
	db := NewDatabase("d")
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s := patientSchema()
		s.Name = n
		db.PutTable(MustNewTable(s))
	}
	got := db.TableNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v", got)
		}
	}
}

func TestDatabaseWithTable(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	err := db.WithTable("patients", func(tbl *Table) error {
		return tbl.Insert(alice())
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.Table("patients")
	if got.Len() != 1 {
		t.Fatal("mutation lost")
	}
	if err := db.WithTable("ghost", func(*Table) error { return nil }); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
}

// TestDatabaseWithTableAbortsOnError pins the atomic-commit contract: an
// error from fn discards every mutation fn made, not just the failing one.
func TestDatabaseWithTableAbortsOnError(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	boom := errors.New("boom")
	err := db.WithTable("patients", func(tbl *Table) error {
		if err := tbl.Insert(alice()); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, _ := db.Table("patients")
	if got.Len() != 0 {
		t.Fatal("aborted commit leaked mutations")
	}
}

// TestDatabaseTableIsSnapshot pins the fix for the old API leak: the table
// returned by Table() is independent — mutating it never changes the
// database, and later commits never change it.
func TestDatabaseTableIsSnapshot(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	leaked, _ := db.Table("patients")
	leaked.MustInsert(alice()) // must not bypass the commit path
	got, _ := db.Table("patients")
	if got.Len() != 0 {
		t.Fatal("mutating a returned snapshot changed the database")
	}
	if err := db.WithTable("patients", func(tbl *Table) error {
		return tbl.Insert(alice())
	}); err != nil {
		t.Fatal(err)
	}
	if leaked.Len() != 1 {
		// leaked had its own insert; the committed one must not appear.
		t.Fatalf("snapshot observed a later commit: len=%d", leaked.Len())
	}
}

func TestDatabaseConcurrentAccess(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = db.WithTable("patients", func(tbl *Table) error {
					return tbl.Upsert(Row{I(int64(base*1000 + j)), S("p"), Null(), I(1)})
				})
				_, _ = db.Table("patients")
				_ = db.TableNames()
			}
		}(i)
	}
	wg.Wait()
	got, _ := db.Table("patients")
	if got.Len() != 8*50 {
		t.Fatalf("rows = %d, want %d", got.Len(), 8*50)
	}
}

// TestDatabaseConcurrentPerTableWriters exercises parallel commits to
// disjoint tables plus concurrent structural changes (create) — the
// many-shares peer shape: every share commits to its own view table.
func TestDatabaseConcurrentPerTableWriters(t *testing.T) {
	db := NewDatabase("d")
	const tables = 8
	for i := 0; i < tables; i++ {
		s := patientSchema()
		s.Name = fmt.Sprintf("t%d", i)
		db.PutTable(MustNewTable(s))
	}
	var wg sync.WaitGroup
	for i := 0; i < tables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			for j := 0; j < 40; j++ {
				if err := db.WithTable(name, func(tbl *Table) error {
					return tbl.Upsert(Row{I(int64(j)), S("p"), Null(), I(1)})
				}); err != nil {
					t.Error(err)
					return
				}
				// Reads of a neighbouring table interleave with its writer.
				other := fmt.Sprintf("t%d", (i+1)%tables)
				tb, err := db.Table(other)
				if err != nil {
					t.Error(err)
					return
				}
				_ = tb.Len()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < tables; i++ {
		tb, _ := db.Table(fmt.Sprintf("t%d", i))
		if tb.Len() != 40 {
			t.Fatalf("t%d rows = %d, want 40", i, tb.Len())
		}
	}
}

// TestDatabaseReplaceTableSerializes pins the read-modify-write
// contract: concurrent replacements that each derive a new table from
// the current one (the sharing layer's lens puts) must all land —
// snapshot-then-PutTable would lose updates here.
func TestDatabaseReplaceTableSerializes(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	const writers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				err := db.ReplaceTable("patients", func(cur *Table) (*Table, error) {
					// Derive a replacement from the current snapshot, the
					// way a lens put does.
					next := cur.Clone()
					if err := next.Insert(Row{I(int64(w*1000 + j)), S("p"), Null(), I(1)}); err != nil {
						return nil, err
					}
					return next, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := db.Table("patients")
	if got.Len() != writers*rounds {
		t.Fatalf("rows = %d, want %d (lost update)", got.Len(), writers*rounds)
	}
	// An error aborts the replacement.
	boom := errors.New("boom")
	if err := db.ReplaceTable("patients", func(*Table) (*Table, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := db.ReplaceTable("ghost", func(c *Table) (*Table, error) { return c, nil }); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
}

// TestDatabaseConcurrentSnapshotConsistency checks that readers loading a
// snapshot mid-commit see either the old or the new state, never a torn
// one: each commit inserts two rows, so every observed length is even.
func TestDatabaseConcurrentSnapshotConsistency(t *testing.T) {
	db := NewDatabase("d")
	db.PutTable(MustNewTable(patientSchema()))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			_ = db.WithTable("patients", func(tbl *Table) error {
				if err := tbl.Insert(Row{I(int64(2 * j)), S("a"), Null(), I(1)}); err != nil {
					return err
				}
				return tbl.Insert(Row{I(int64(2*j + 1)), S("b"), Null(), I(1)})
			})
		}
		close(done)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tb, err := db.Table("patients")
				if err != nil {
					t.Error(err)
					return
				}
				if tb.Len()%2 != 0 {
					t.Errorf("torn read: %d rows", tb.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	tb, _ := db.Table("patients")
	if tb.Len() != 200 {
		t.Fatalf("rows = %d", tb.Len())
	}
}
