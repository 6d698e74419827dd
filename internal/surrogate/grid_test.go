package surrogate

import (
	"testing"

	"neutronsim/internal/plan"
)

// TestEvaluateGridWorkerCountInvariant pins the grid evaluator's dataset
// at worker counts 1, 2 and 7, on an exact and a biased grid. The two
// fingerprints are those of the datasets these sweeps write with
// -train-out (at sweep's default boron and Qcrit bounds):
//
//	sweep -boron-steps 4 -qcrit-steps 3 -samples 20000 -seed 7
//	sweep -boron-steps 3 -qcrit-steps 2 -samples 8000 -seed 5 -bias-thermal 12
//
// A change that moves one moves what sweep prints and what a surrogate
// trained on the grid predicts.
func TestEvaluateGridWorkerCountInvariant(t *testing.T) {
	for _, c := range []struct {
		name string
		grid GridConfig
		want string
	}{
		{"exact", GridConfig{
			BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 4,
			QcritMin: 1, QcritMax: 16, QcritSteps: 3,
			Samples: 20000, Seed: 7,
		}, "91929f882074ae346026abd23fc5ed361eacbc32868220da4ce1edf533872f4e"},
		{"biased", GridConfig{
			BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 3,
			QcritMin: 1, QcritMax: 16, QcritSteps: 2,
			Samples: 8000, Seed: 5, Bias: &plan.Bias{Thermal: 12},
		}, "b9a2c93b353ba63d0975e878ed776a1f56b054cc51ccf4c408afd4f79b08f2be"},
	} {
		for _, workers := range []int{1, 2, 7} {
			c.grid.Workers = workers
			ds, err := EvaluateGrid(c.grid)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if got := ds.Fingerprint(); got != c.want {
				t.Errorf("%s grid at %d workers: fingerprint %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}
