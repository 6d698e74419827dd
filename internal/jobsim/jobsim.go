// Package jobsim is a discrete-event simulation of a long-running HPC job
// under neutron-induced failures: work segments, periodic checkpoints,
// exponential DUE arrivals, rollback and restart. It closes the loop on the
// paper's introduction — COTS unreliability becomes "lower scientific
// productivity" — by measuring goodput directly, and it validates the
// analytic Young/Daly waste model used by the checkpoint package.
package jobsim

import (
	"context"
	"errors"
	"math"

	"neutronsim/internal/checkpoint"
	"neutronsim/internal/rng"
	"neutronsim/internal/telemetry"
)

// Params describes one machine-job configuration.
type Params struct {
	// MTBFSeconds is the machine's mean time between DUEs (exponential).
	MTBFSeconds float64
	// IntervalSeconds is the checkpoint period (work time between
	// checkpoints).
	IntervalSeconds float64
	// CheckpointSeconds is the cost of writing one checkpoint.
	CheckpointSeconds float64
	// RestartSeconds is the cost of rebooting and reloading the last
	// checkpoint after a failure.
	RestartSeconds float64
	// HorizonSeconds is the simulated wall-clock span.
	HorizonSeconds float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.MTBFSeconds <= 0:
		return errors.New("jobsim: non-positive MTBF")
	case p.IntervalSeconds <= 0:
		return errors.New("jobsim: non-positive checkpoint interval")
	case p.CheckpointSeconds < 0:
		return errors.New("jobsim: negative checkpoint cost")
	case p.RestartSeconds < 0:
		return errors.New("jobsim: negative restart cost")
	case p.HorizonSeconds <= p.IntervalSeconds:
		return errors.New("jobsim: horizon shorter than one interval")
	}
	return nil
}

// Result summarizes a simulated run.
type Result struct {
	// UsefulSeconds is committed work (work that survived to a
	// checkpoint).
	UsefulSeconds float64
	// Goodput is UsefulSeconds / HorizonSeconds.
	Goodput float64
	// Failures is the number of DUEs that struck.
	Failures int
	// Checkpoints is the number of completed checkpoints.
	Checkpoints int
	// LostSeconds is work rolled back by failures.
	LostSeconds float64
}

// Simulate runs the event loop: repeat [work τ, checkpoint δ]; a failure
// anywhere in the cycle discards the uncommitted work and costs the
// restart time.
func Simulate(p Params, s *rng.Stream) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if s == nil {
		return Result{}, errors.New("jobsim: nil rng stream")
	}
	_, span := telemetry.StartSpan(context.Background(), "jobsim.simulate")
	defer span.End()
	var res Result
	now := 0.0
	rate := 1 / p.MTBFSeconds
	nextFailure := now + s.Exponential(rate)
	uncommitted := 0.0 // work done since the last committed checkpoint
	phaseWork := true  // working vs checkpointing
	phaseLeft := p.IntervalSeconds

	for now < p.HorizonSeconds {
		phaseEnd := now + phaseLeft
		if nextFailure < phaseEnd && nextFailure < p.HorizonSeconds {
			// Failure strikes mid-phase.
			if phaseWork {
				uncommitted += nextFailure - now
			}
			res.Failures++
			res.LostSeconds += uncommitted
			uncommitted = 0
			now = nextFailure + p.RestartSeconds
			nextFailure = now + s.Exponential(rate)
			phaseWork = true
			phaseLeft = p.IntervalSeconds
			continue
		}
		if phaseEnd > p.HorizonSeconds {
			// Horizon ends mid-phase: the job writes a terminal
			// checkpoint, so in-flight work is committed.
			if phaseWork {
				uncommitted += p.HorizonSeconds - now
			}
			res.UsefulSeconds += uncommitted
			uncommitted = 0
			now = p.HorizonSeconds
			break
		}
		now = phaseEnd
		if phaseWork {
			uncommitted += p.IntervalSeconds
			phaseWork = false
			phaseLeft = p.CheckpointSeconds
		} else {
			// Checkpoint completed: commit.
			res.UsefulSeconds += uncommitted
			uncommitted = 0
			res.Checkpoints++
			phaseWork = true
			phaseLeft = p.IntervalSeconds
		}
	}
	res.Goodput = res.UsefulSeconds / p.HorizonSeconds
	reg := telemetry.Default
	reg.Counter("jobsim.failures").Add(int64(res.Failures))
	reg.Counter("jobsim.checkpoints").Add(int64(res.Checkpoints))
	reg.Counter("jobsim.runs").Inc()
	reg.Gauge("jobsim.useful_seconds").Add(res.UsefulSeconds)
	return res, nil
}

// PredictedGoodput returns the analytic expectation for the parameters:
// 1 minus the Young/Daly checkpoint-and-rework waste minus the restart
// overhead (one restart per failure, i.e. R/M of wall time).
func PredictedGoodput(p Params) float64 {
	w := checkpoint.Waste(p.IntervalSeconds, p.CheckpointSeconds, p.MTBFSeconds) +
		p.RestartSeconds/p.MTBFSeconds
	if w > 1 {
		w = 1
	}
	return 1 - w
}

// SweepIntervals simulates a range of checkpoint intervals and returns the
// interval with the best measured goodput — the empirical counterpart of
// the Daly optimum.
func SweepIntervals(base Params, intervals []float64, s *rng.Stream) (bestInterval float64, bestGoodput float64, err error) {
	if len(intervals) == 0 {
		return 0, 0, errors.New("jobsim: no intervals to sweep")
	}
	bestGoodput = math.Inf(-1)
	for _, tau := range intervals {
		p := base
		p.IntervalSeconds = tau
		r, err := Simulate(p, s)
		if err != nil {
			return 0, 0, err
		}
		if r.Goodput > bestGoodput {
			bestGoodput = r.Goodput
			bestInterval = tau
		}
	}
	return bestInterval, bestGoodput, nil
}
