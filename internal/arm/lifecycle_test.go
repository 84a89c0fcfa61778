package arm

// lifecycle_test.go holds the accelerator lifecycle to its table: DESIGN.md
// prints the table rendered from the code, nothing but transition (and the
// snapshot decoder) assigns a state, an event the table does not list
// panics under DYNACC_POISON=1 and changes nothing otherwise, and a
// snapshot pair decodes only to what the table allows.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

var effectNames = [...]string{"accrue", "hold", "leave", "end", "warn", "calm", "sanitize", "reap", "fresh", "join"}

// tableName is a state's column name in the printed table, where a dirty
// suspect is told apart from a clean one.
func tableName(st acState) string {
	if st == acDirty {
		return "dirty"
	}
	return st.String()
}

// tableOrder is the order the printed table names states in.
var tableOrder = [nStates]acState{acFree, acAssigned, acShared, acSuspect, acDirty, acReclaiming, acFailed, acRetired}

// renderLifecycle prints the table as DESIGN.md §11 carries it: a row per
// event, listing where it leads from each group of states ("any" for all)
// and the effects on the way.
func renderLifecycle() []string {
	lines := []string{"| event | in → goes to (effects) |", "|---|---|"}
	for ev := range nEvents {
		var rules []rule
		for _, st := range tableOrder {
			if r := lifecycle[ev][st]; r.ok && !containsRule(rules, r) {
				rules = append(rules, r)
			}
		}
		var cells []string
		for _, r := range rules {
			var from, fx []string
			for _, st := range tableOrder {
				if lifecycle[ev][st] == r {
					from = append(from, tableName(st))
				}
			}
			if len(from) == int(nStates) {
				from = []string{"any"}
			}
			to := "stays"
			if r.next != stay {
				to = tableName(r.next)
			}
			for i, name := range effectNames {
				if r.fx&(1<<i) != 0 {
					fx = append(fx, name)
				}
			}
			cell := strings.Join(from, ", ") + " → " + to
			if len(fx) > 0 {
				cell += " (" + strings.Join(fx, ", ") + ")"
			}
			cells = append(cells, cell)
		}
		lines = append(lines, "| "+eventNames[ev]+" | "+strings.Join(cells, "; ")+" |")
	}
	return lines
}

func containsRule(rules []rule, r rule) bool {
	for _, x := range rules {
		if x == r {
			return true
		}
	}
	return false
}

// TestLifecycleTableInDesign: DESIGN.md's copy of the table is the one the
// code runs. On a mismatch it prints the rendered table to paste in.
func TestLifecycleTableInDesign(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	want := renderLifecycle()
	var got []string
	for _, line := range strings.Split(string(doc), "\n") {
		if line == want[0] || len(got) > 0 && strings.HasPrefix(line, "|") {
			got = append(got, line)
		} else if len(got) > 0 {
			break
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md's lifecycle table differs from the code's; the code's is\n%s", strings.Join(want, "\n"))
	}
}

// TestOnlyTransitionAssignsState: every state change goes through the
// table. The one other assignment is the snapshot decoder's, of a state it
// checked against the table.
func TestOnlyTransitionAssignsState(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "transition" || fn.Name.Name == "apply" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "state" {
							t.Errorf("%s: %s assigns a state outside transition", fset.Position(as.Pos()), fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
}

// TestUnlistedEventPanicsUnderPoison: a release of a free accelerator is
// not in the table. Under the poison switch it panics; otherwise it is a
// no-op that leaves the ledger and the state alone.
func TestUnlistedEventPanicsUnderPoison(t *testing.T) {
	w, err := minimpi.NewWorld(sim.New(), 2, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(w.Comm(0), []Handle{{ID: 0, Rank: 100}}, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	a := srv.byID[0]
	defer func(was bool) { strict = was }(strict)
	strict = false
	srv.transition(a, evRelease, 1)
	if a.state != acFree || len(srv.ledger) != 0 {
		t.Fatalf("an unlisted event changed the books: %s, ledger %v", a.state, srv.ledger)
	}
	strict = true
	defer func() {
		if recover() == nil {
			t.Error("an unlisted event did not panic under the poison switch")
		}
	}()
	srv.transition(a, evRelease, 1)
}

// TestSnapshotPairsFollowTheTable: every state, with and without a drain
// where the table lets one wait, survives the snapshot pair; the pairs no
// lifecycle produces are refused.
func TestSnapshotPairsFollowTheTable(t *testing.T) {
	for st := range nStates {
		for _, d := range []*drainWait{nil, {}, {remove: true}} {
			if d != nil && lifecycle[evDrain][st].next != stay {
				continue
			}
			a := &accel{state: st, drain: d}
			code, fl := a.wire()
			got, ok := unwire(code, fl)
			if !ok || got != st || (fl&1 != 0) != (d != nil) || d != nil && (fl&2 != 0) != d.remove {
				t.Errorf("%s drain %+v ships as (%d, %d), which reads back as %s, %v", tableName(st), d, code, fl, tableName(got), ok)
			}
		}
	}
	for _, pair := range [][2]uint8{{7, 0}, {9, 0}, {0, 1}, {3, 1}, {5, 1}, {2, 4}, {0, 4}, {1, 2}, {1, 8}} {
		if _, ok := unwire(pair[0], pair[1]); ok {
			t.Errorf("snapshot pair %v accepted", pair)
		}
	}
}
