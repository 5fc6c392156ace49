package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsMatch is the reproduction gate: every paper claim must
// be matched by the measured values.
func TestAllExperimentsMatch(t *testing.T) {
	results, err := All()
	if err != nil {
		t.Fatal(err)
	}
	// E1..E14: the paper's claims.
	if len(results) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(results))
	}
	ids := map[string]bool{}
	for _, res := range results {
		ids[res.ID] = true
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", res.ID)
		}
		for _, row := range res.Rows {
			if !row.Match {
				t.Errorf("%s (%s): %s: paper=%s measured=%s",
					res.ID, res.Title, row.Quantity, row.Paper, row.Measured)
			}
		}
		if !res.AllMatch() {
			t.Errorf("%s: AllMatch false", res.ID)
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestE1RowsCoverInformationStates(t *testing.T) {
	res, err := E1FiringSquad()
	if err != nil {
		t.Fatal(err)
	}
	var yes, no, silence bool
	for _, row := range res.Rows {
		switch {
		case strings.Contains(row.Quantity, "'Yes'"):
			yes = true
		case strings.Contains(row.Quantity, "'No'"):
			no = true
		case strings.Contains(row.Quantity, "silence"):
			silence = true
		}
	}
	if !yes || !no || !silence {
		t.Fatalf("E1 missing information-state rows: yes=%v no=%v silence=%v", yes, no, silence)
	}
}

func TestE4SmallWorkload(t *testing.T) {
	res, err := E4Expectation(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMatch() {
		t.Fatalf("E4 failed: %+v", res.Rows)
	}
}

func TestE7SmallWorkload(t *testing.T) {
	res, err := E7MonteCarlo(30_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMatch() {
		t.Fatalf("E7 failed: %+v", res.Rows)
	}
}

func TestE9SmallWorkload(t *testing.T) {
	res, err := E9Independence(10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMatch() {
		t.Fatalf("E9 failed: %+v", res.Rows)
	}
}

func TestAllMatchDetectsMismatch(t *testing.T) {
	res := Result{Rows: []Row{{Match: true}, {Match: false}}}
	if res.AllMatch() {
		t.Fatal("AllMatch should be false")
	}
}
