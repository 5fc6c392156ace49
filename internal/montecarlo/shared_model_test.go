package montecarlo

import (
	"sync"
	"testing"

	"pak/internal/paper"
	"pak/internal/protocol"
	"pak/internal/ratutil"
)

// TestProtocolSamplersShareModel: samplers on several goroutines share
// one model, and with it the network's lazily built pattern tables,
// while another goroutine unfolds the same model. Under -race this is
// the cache's concurrency proof; each sampler's estimate must equal a
// serial rerun with its seed, and the unfold must match a serial one.
func TestProtocolSamplersShareModel(t *testing.T) {
	m, err := paper.FiringSquadModel(ratutil.R(1, 10), paper.FSOriginal)
	if err != nil {
		t.Fatal(err)
	}
	bothFire := func(tr Trace) bool {
		return tr.Acts[2][0] == paper.ActFire && tr.Acts[2][1] == paper.ActFire
	}
	aliceFires := func(tr Trace) bool { return tr.Acts[2][0] == paper.ActFire }
	estimate := func(seed int64) (Estimate, error) {
		return NewProtocolSampler(m, seed).EstimateTraceConditional(bothFire, aliceFires, 2000)
	}

	const workers = 6
	got := make([]Estimate, workers)
	errs := make([]error, workers)
	var unfolded string
	var unfoldErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = estimate(int64(w))
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sys, err := protocol.Unfold(m)
		if err != nil {
			unfoldErr = err
			return
		}
		unfolded = sys.Dump()
	}()
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("sampler %d: %v", w, errs[w])
		}
		want, err := estimate(int64(w))
		if err != nil {
			t.Fatal(err)
		}
		if got[w] != want {
			t.Errorf("sampler %d: concurrent estimate %v, serial %v", w, got[w], want)
		}
	}
	if unfoldErr != nil {
		t.Fatal(unfoldErr)
	}
	serial, err := protocol.Unfold(m)
	if err != nil {
		t.Fatal(err)
	}
	if unfolded != serial.Dump() {
		t.Error("concurrent unfold differs from the serial one")
	}
}
