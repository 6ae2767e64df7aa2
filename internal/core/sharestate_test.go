package core

import (
	"fmt"
	"strings"
	"testing"

	"medshare/internal/reldb"
)

// stateEvent is one event of the share protocol driven against a
// shareState, as the peer's code paths drive it.
type stateEvent struct {
	name string
	seq  uint64
}

// Events under the share's opMu: a stage holds it until its verdict
// (commit or denial), and an install takes it. The rest arrive on the
// event dispatcher or a write at any time.
var stateEvents = func() []stateEvent {
	var evs []stateEvent
	for _, seq := range []uint64{1, 2} {
		for _, n := range []string{"user-stage", "reconciler-stage", "committed", "denied-hold", "denied-retry", "rejected", "final", "installed"} {
			evs = append(evs, stateEvent{n, seq})
		}
	}
	return append(evs, stateEvent{name: "mark"})
}()

// ghost is what the check remembers beside the state: which seq holds
// the opMu, the rollback bases staged seqs recorded, which seqs were
// rolled back or staged by a user, and whether a hold is owed.
type ghost struct {
	locked     uint64 // seq whose verdict is pending (0: opMu free)
	base       [3]uint64
	rolledBack [3]bool
	byUser     [3]bool
	mustHold   bool
}

// TestShareStateTransitions enumerates every event order up to length 6
// over two seqs and checks the invariants shareState documents: a held
// share is proposed by nobody but a user until a user's proposal on it
// commits; applied only rises, except by a rollback to the base its
// staging recorded; no committed or final effect follows a rollback of
// its seq. Orders respect the opMu: a staged seq's verdict comes before
// any other stage or install.
func TestShareStateTransitions(t *testing.T) {
	src, mark := reldb.MustNewTable(syncTestSchema()), syncTestTable(1)
	views := [3]*reldb.Table{syncTestTable(2), syncTestTable(3), syncTestTable(4)}
	type node struct {
		st    shareState
		g     ghost
		depth int
	}
	seen := make(map[string]bool)
	key := func(n node) string {
		prev := -1
		if n.st.prev != nil {
			prev = int(n.st.prev.seq)
		}
		return fmt.Sprintf("%d %d %v %v %v %v %v %+v %d", n.st.applied, prev, n.st.staged, n.st.diverged, n.st.held, n.st.dirty != nil, n.st.derivedView != nil, n.g, n.depth)
	}
	var path []string
	var walk func(n node)
	walk = func(n node) {
		if n.depth == 6 || seen[key(n)] {
			return
		}
		seen[key(n)] = true
		for _, ev := range stateEvents {
			st, g := n.st, n.g
			before := st.applied
			fail := func(format string, args ...any) {
				t.Fatalf("after %s, %s: %s", strings.Join(path, ", "), fmt.Sprintf("%s(%d)", ev.name, ev.seq), fmt.Sprintf(format, args...))
			}
			verdict := func() bool { return g.locked == ev.seq }
			switch ev.name {
			case "user-stage", "reconciler-stage":
				if g.locked != 0 {
					continue
				}
				user := ev.name == "user-stage"
				if !user {
					if !st.due() {
						continue
					}
					st.takeMark()
				}
				if !st.stage(ev.seq-1, !user, views[ev.seq-1], src, views[ev.seq]) {
					break
				}
				if !user && g.mustHold {
					fail("the reconciler proposed a held share")
				}
				g.locked, g.base[ev.seq], g.rolledBack[ev.seq], g.byUser[ev.seq] = ev.seq, ev.seq-1, false, user
			case "committed":
				if !verdict() {
					continue
				}
				g.locked = 0
				if st.committed(ev.seq) {
					if g.rolledBack[ev.seq] {
						fail("a commit took effect after its seq rolled back")
					}
					if g.byUser[ev.seq] {
						g.mustHold = false
					}
				}
			case "denied-hold", "denied-retry", "rejected":
				if ev.name != "rejected" {
					if !verdict() {
						continue
					}
					g.locked = 0
				}
				hold := ev.name != "denied-retry"
				if restore, _ := st.denied(ev.seq, hold, mark); restore != nil {
					if restore != views[g.base[ev.seq]] || st.applied != g.base[ev.seq] {
						fail("rolled back to seq %d, want the recorded base %d", st.applied, g.base[ev.seq])
					}
					g.rolledBack[ev.seq], g.byUser[ev.seq] = true, false
					g.mustHold = g.mustHold || hold
				}
			case "final":
				if st.final(ev.seq) && g.rolledBack[ev.seq] {
					fail("a final took effect after its seq rolled back")
				}
			case "installed":
				if g.locked != 0 {
					continue
				}
				if st.installed(ev.seq, ev.seq-1, views[ev.seq-1], src, views[ev.seq]) {
					g.rolledBack[ev.seq], g.byUser[ev.seq] = false, false
				}
			case "mark":
				st.mark(mark)
			}
			if st.applied < before && !strings.HasPrefix(ev.name, "denied") && ev.name != "rejected" {
				fail("applied fell from %d to %d", before, st.applied)
			}
			if st.staged && (st.prev == nil || st.applied != st.prev.seq+1) {
				fail("staged at %d without its rollback point", st.applied)
			}
			path = append(path, fmt.Sprintf("%s(%d)", ev.name, ev.seq))
			walk(node{st, g, n.depth + 1})
			path = path[:len(path)-1]
		}
	}
	walk(node{})
	if len(seen) < 100 {
		t.Fatalf("only %d states reached", len(seen))
	}
}
