package plan

import (
	"sync"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestCacheStress hammers a deliberately tiny cache from many goroutines
// over a handful of keys, so every code path — miss, hit, coalesced wait,
// eviction, capacity change — runs concurrently. Run under -race this is
// the cache's synchronization proof; in any mode every returned plan must
// checksum-match the reference compilation for its key, so an eviction
// racing a lookup can cost a recompile but never wrong physics.
func TestCacheStress(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCache(2, reg) // smaller than the working set: constant eviction
	d := device.K20()
	spectra := []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()}
	const (
		budgets    = 3
		calSamples = 400
		goroutines = 16
		iterations = 200
	)
	// Reference checksums, compiled outside the cache.
	want := map[string]string{}
	for _, sp := range spectra {
		for b := 0; b < budgets; b++ {
			want[KeyFor(d, sp, calSamples+b)] = CompileStratified(d, sp, calSamples+b, nil).Checksum()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				sp := spectra[(g+i)%len(spectra)]
				n := calSamples + (g*7)%budgets
				if i%50 == 49 {
					// Shrink and regrow the cache mid-flight.
					c.SetCapacity(1 + (g+i)%3)
				}
				pl := c.For(d, sp, n, uint64(g)) // the seed must not matter
				if pl.Checksum() != want[KeyFor(d, sp, n)] {
					select {
					case errs <- sp.Name():
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if sp, bad := <-errs; bad {
		t.Fatalf("concurrent lookup on %s returned a plan that differs from its reference compilation", sp)
	}
	st := c.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("stress run exercised no cache traffic: %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Errorf("cache overflowed its capacity: %+v", st)
	}
}
