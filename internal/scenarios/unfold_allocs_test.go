package scenarios

import (
	"testing"

	"pak/internal/ratutil"
)

// maxNSquad4UnfoldAllocs is the allocation ceiling of one nsquad(4)
// unfold at loss 63/127 (1,107 nodes), Build's validation included. The
// unfold steps each distinct local state once, reads shared delivery-
// pattern tables and interns stamped locals, so it measures 13,508
// allocations; it took 163,384 when every node re-stepped, re-validated
// and re-enumerated. The ceiling leaves ~5% for toolchain drift.
const maxNSquad4UnfoldAllocs = 14_200

func TestNSquadUnfoldAllocationCeiling(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NFiringSquadSystem(4, ratutil.R(63, 127), false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("nsquad(4) unfold: %.0f allocations", allocs)
	if allocs > maxNSquad4UnfoldAllocs {
		t.Errorf("nsquad(4) unfold allocates %.0f times, ceiling %d", allocs, maxNSquad4UnfoldAllocs)
	}
}
