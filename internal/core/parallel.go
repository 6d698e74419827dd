package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"neutronsim/internal/device"
	"neutronsim/internal/telemetry"
)

// AssessMany runs AssessContext for several devices concurrently with a bounded
// worker pool. Each device gets its own deterministic seed derived from
// the base seed and its index, so the results are identical to running the
// assessments sequentially — parallelism only changes wall-clock time.
//
// On failure the returned error joins every per-device error (in device
// order), and the result slice is still returned with the successful
// assessments filled in and nil entries for the failed devices, so callers
// can keep partial campaigns.
func AssessMany(devices []*device.Device, b Budget, seed uint64, parallelism int) ([]*Assessment, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(devices) {
		parallelism = len(devices)
	}
	busy := telemetry.Default.Gauge("core.workers_busy")
	assessed := telemetry.Default.Counter("core.devices_assessed")
	results := make([]*Assessment, len(devices))
	errs := make([]error, len(devices))
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				busy.Add(1)
				a, err := AssessContext(context.Background(), devices[i], nil, b, DeviceSeed(seed, i))
				busy.Add(-1)
				if err != nil {
					errs[i] = fmt.Errorf("core: %s: %w", devices[i].Name, err)
					continue
				}
				results[i] = a
				assessed.Inc()
			}
		}()
	}
	for i := range devices {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return results, errors.Join(errs...)
}

// DeviceSeed derives the per-device campaign seed used by AssessMany, so
// sequential callers can reproduce individual entries.
func DeviceSeed(base uint64, index int) uint64 {
	return base + uint64(index)*1000
}
