package exec_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// expandFixture builds a store plus a candidate-expansion list whose entries
// all miss: the candidates only ever appear under a different predicate, so a
// scan for (?s p candidate) spins through every candidate without producing a
// row. That keeps a sequential scan inside one Next call long enough for the
// throttled cancellation poll to fire — the regression shape for the pull
// loop forgetting to consult its Ctx.
func expandFixture(t *testing.T, candidates int) (*store.Store, exec.Pattern, []store.SymbolID) {
	t.Helper()
	s := store.New()
	s.MustAdd(store.Triple{Subject: "s0", Predicate: "p", Object: "o0"})
	expand := make([]store.SymbolID, 0, candidates)
	for i := 0; i < candidates; i++ {
		obj := fmt.Sprintf("never-%d", i)
		s.MustAdd(store.Triple{Subject: "filler", Predicate: "q", Object: obj})
		id, ok := s.SymbolID(obj)
		if !ok {
			t.Fatalf("symbol %q not interned", obj)
		}
		expand = append(expand, id)
	}
	pid, ok := s.SymbolID("p")
	if !ok {
		t.Fatal(`symbol "p" not interned`)
	}
	return s, exec.Pattern{exec.Var(0), exec.Lit(pid), exec.Var(1)}, expand
}

// TestScanSequentialCancelledMidPull pins the fix for the sequential scan
// loop: cancellation must be observed between candidate pulls inside a single
// Next call, not only on entry. With an always-true Interrupt hook the scan
// must report ErrInterrupted; before the fix it drained all candidates and
// reported clean exhaustion.
func TestScanSequentialCancelledMidPull(t *testing.T) {
	s, pat, expand := expandFixture(t, 2048)
	op := exec.NewScan(s, pat, expand, 2)
	ctx := &exec.Ctx{Interrupt: func() bool { return true }}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			if !errors.Is(err, exec.ErrInterrupted) {
				t.Fatalf("Next error = %v, want ErrInterrupted", err)
			}
			return
		}
		if b == nil {
			t.Fatal("scan drained to exhaustion: cancellation was never consulted inside the pull loop")
		}
	}
}

// TestScanSequentialUncancelledDrains is the control for the fixture above:
// with no Interrupt hook the same scan must run to clean exhaustion, proving
// the interrupted run stopped because of the hook and not a scan error.
func TestScanSequentialUncancelledDrains(t *testing.T) {
	s, pat, expand := expandFixture(t, 2048)
	op := exec.NewScan(s, pat, expand, 2)
	ctx := &exec.Ctx{}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatalf("Next error = %v, want clean exhaustion", err)
		}
		if b == nil {
			return
		}
	}
}
