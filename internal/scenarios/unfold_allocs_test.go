package scenarios

import (
	"testing"

	"pak/internal/ratutil"
)

// maxNSquad4UnfoldAllocs is the allocation ceiling of one nsquad(4)
// unfold at loss 63/127 (1,107 nodes), Build's validation included. The
// unfold steps each distinct local state once, reads shared delivery-
// pattern tables and interns stamped locals, and Build stores the nodes,
// their locals and their joint actions in flat arrays and carries µ_T in
// machine words, so it measures 9,487 allocations. It took 163,384 when
// every node re-stepped, re-validated and re-enumerated, and 13,315 while
// every node had its own locals and children slices and every run
// product was a big.Rat. The ceiling leaves ~5% for toolchain drift.
const maxNSquad4UnfoldAllocs = 9_950

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
