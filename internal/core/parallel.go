package core

import (
	"context"
	"fmt"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
)

// AssessMany runs AssessContext for several devices concurrently, one
// device per engine shard on up to parallelism workers (<= 0 means
// GOMAXPROCS). Each device gets its own deterministic seed derived from
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
	return engine.Map(context.Background(), engine.Config{Workers: parallelism, Grain: 1, Name: "assess"}, len(devices), 1,
		func(ctx context.Context, sh engine.Shard) (*Assessment, error) {
			d := devices[sh.Index]
			a, err := AssessContext(ctx, d, nil, b, DeviceSeed(seed, sh.Index))
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", d.Name, err)
			}
			return a, nil
		})
}

// DeviceSeed derives the per-device campaign seed used by AssessMany, so
// sequential callers can reproduce individual entries.
func DeviceSeed(base uint64, index int) uint64 {
	return base + uint64(index)*1000
}
