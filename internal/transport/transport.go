// Package transport implements a one-dimensional multi-slab Monte Carlo
// neutron transport engine. It is the computational substitute for the
// paper's physical environment effects: moderation of fast neutrons into
// thermals by water and concrete (which raises device error rates) and
// attenuation of thermal neutrons by cadmium or borated plastic shields.
//
// The model is the textbook slowing-down picture: exponential free flights
// with the material's macroscopic total cross section, isotropic elastic
// scattering in the center-of-mass frame, 1/v absorption, and re-equilibration
// to a room-temperature Maxwellian once a neutron reaches thermal energies.
package transport

import (
	"context"
	"errors"
	"math"
	"time"

	"neutronsim/internal/engine"
	"neutronsim/internal/materials"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
	"neutronsim/internal/units"
)

// Slab is one homogeneous layer of the 1-D geometry.
type Slab struct {
	Material  *materials.Material
	Thickness float64 // cm
}

// maxCollisions bounds the random walk; a neutron exceeding it is tallied
// as lost (counted with the absorbed).
const maxCollisions = 100000

// Fate classifies how a tracked neutron ended.
type Fate int

// Neutron fates.
const (
	FateTransmitted Fate = iota + 1 // escaped through the back face
	FateReflected                   // escaped back through the front face
	FateAbsorbed                    // captured in the geometry
)

// String names the fate.
func (f Fate) String() string {
	switch f {
	case FateTransmitted:
		return "transmitted"
	case FateReflected:
		return "reflected"
	case FateAbsorbed:
		return "absorbed"
	default:
		return "unknown"
	}
}

// Tally accumulates the outcome statistics of a transport run.
//
// In the default analog mode every field is a raw history count. Under
// Options.ImplicitCapture the integer fields still count histories by
// their terminal fate — a history ends by escaping, losing the Russian
// roulette, or exceeding the collision bound — while the physical
// estimates (what fraction of the incident flux transmits, reflects, or
// is captured, and where) move to the Weighted section, because each
// history then carries a survival weight rather than a life-or-death
// absorption draw.
type Tally struct {
	Incident    int
	Transmitted map[physics.EnergyBand]int
	Reflected   map[physics.EnergyBand]int
	Absorbed    int
	// AbsorbedByElement counts captures per element name, which is how the
	// detector model counts ³He(n,p) signal events.
	AbsorbedByElement map[string]int
	Collisions        int64
	Lost              int
	// Weighted carries the likelihood-weighted estimates of an
	// implicit-capture run and is nil in analog mode.
	Weighted *TransportWeights `json:",omitempty"`
}

// TransportWeights is the weighted side of an implicit-capture tally:
// exit channels weighted by the history's survival weight at escape, and
// absorption tallied continuously — every collision deposits
// weight × P(absorb), apportioned across the material's elements by their
// macroscopic absorption share — instead of by terminal capture draws.
// The weighted sums estimate exactly the counts an analog run tallies, so
// TransmittedWeight/Incident is the analog transmission fraction with
// (usually much) lower variance in absorbing geometries.
type TransportWeights struct {
	Transmitted       map[physics.EnergyBand]stats.Weighted `json:"transmitted"`
	Reflected         map[physics.EnergyBand]stats.Weighted `json:"reflected"`
	Absorbed          stats.Weighted                        `json:"absorbed"`
	AbsorbedByElement map[string]stats.Weighted             `json:"absorbed_by_element"`
	// RouletteKills counts histories terminated by the Russian roulette
	// that bounds how far a survival weight can decay.
	RouletteKills int64 `json:"roulette_kills"`
}

// TransmittedWeight sums the weighted transmissions over all bands.
func (w *TransportWeights) TransmittedWeight() float64 {
	total := 0.0
	for _, t := range w.Transmitted {
		total += t.SumW
	}
	return total
}

// ReflectedWeight sums the weighted reflections over all bands.
func (w *TransportWeights) ReflectedWeight() float64 {
	total := 0.0
	for _, t := range w.Reflected {
		total += t.SumW
	}
	return total
}

func newTally() *Tally {
	return &Tally{
		Transmitted:       map[physics.EnergyBand]int{},
		Reflected:         map[physics.EnergyBand]int{},
		AbsorbedByElement: map[string]int{},
	}
}

// TransmittedTotal sums transmissions over all bands.
func (t *Tally) TransmittedTotal() int {
	n := 0
	for _, v := range t.Transmitted {
		n += v
	}
	return n
}

// ReflectedTotal sums reflections over all bands.
func (t *Tally) ReflectedTotal() int {
	n := 0
	for _, v := range t.Reflected {
		n += v
	}
	return n
}

// TransmissionFraction is transmitted/incident.
func (t *Tally) TransmissionFraction() float64 {
	if t.Incident == 0 {
		return 0
	}
	return float64(t.TransmittedTotal()) / float64(t.Incident)
}

// ReflectedThermalFraction is the thermal albedo: thermal reflections per
// incident neutron, the quantity behind the paper's flux-enhancement
// observations.
func (t *Tally) ReflectedThermalFraction() float64 {
	if t.Incident == 0 {
		return 0
	}
	return float64(t.Reflected[physics.BandThermal]) / float64(t.Incident)
}

// Options selects transport-model variants for ablation studies
// (DESIGN.md §5). The zero value is the default model.
type Options struct {
	// ForwardBias in [0, 1) shifts scattering re-emission toward the
	// incident (+x) hemisphere: the forward hemisphere is chosen with
	// probability 0.5+ForwardBias/2 instead of 0.5. Real elastic
	// scattering is forward-peaked in the lab frame (mean cosine 2/3A);
	// the default isotropic model is the textbook approximation.
	ForwardBias float64
	// Shards caps how many transport shards execute concurrently (default
	// GOMAXPROCS). It never affects the tally; see internal/engine.
	Shards int
	// ShardGrain is the number of source neutrons per shard (default
	// 16384). Like the caller's stream, it is part of the deterministic
	// schedule: changing it re-partitions the campaign.
	ShardGrain int
	// ImplicitCapture switches the walk to weighted (non-analog)
	// transport: instead of killing a history on an absorption draw, every
	// collision multiplies the history's weight by its survival
	// probability and deposits the absorbed weight into the weighted
	// tally. A Russian roulette below rouletteThreshold keeps the walk
	// finite — survivors double their weight, so the estimator stays
	// unbiased. The analog integer tallies then count histories, and the
	// physical fractions come from Tally.Weighted.
	ImplicitCapture bool
}

// rouletteThreshold is the survival weight below which an
// implicit-capture history plays Russian roulette (survive with
// probability ½, doubling the weight).
const rouletteThreshold = 1e-3

// DefaultShardGrain is the number of source neutrons per engine shard.
const DefaultShardGrain = 16384

// SimulateContext fires n source neutrons at normal incidence into the
// slab stack and returns the tally. source supplies the incident energy
// distribution. Spans nest under the caller's, progress posts reach any
// observer attached with telemetry.ContextWithProgress, and cancellation
// stops the walk at the next shard boundary.
func SimulateContext(ctx context.Context, slabs []Slab, n int, source func(*rng.Stream) units.Energy, s *rng.Stream, opts Options) (*Tally, error) {
	if len(slabs) == 0 {
		return nil, errors.New("transport: empty geometry")
	}
	if n <= 0 {
		return nil, errors.New("transport: non-positive neutron count")
	}
	if source == nil {
		return nil, errors.New("transport: nil source")
	}
	if opts.ForwardBias < 0 || opts.ForwardBias >= 1 {
		return nil, errors.New("transport: forward bias out of [0,1)")
	}
	for _, sl := range slabs {
		if sl.Material == nil || sl.Thickness <= 0 {
			return nil, errors.New("transport: slab needs material and positive thickness")
		}
	}
	// Precompute cumulative boundaries.
	bounds := make([]float64, len(slabs)+1)
	for i, sl := range slabs {
		bounds[i+1] = bounds[i] + sl.Thickness
	}
	ctx, span := trace.StartChild(ctx, "transport.simulate")
	defer span.End()
	kT := float64(units.RoomTemperature.KT())
	// Pre-split one stream per shard off the caller's stream, in shard
	// order, so the tally depends only on the stream's state at the call —
	// never on worker scheduling. source is called with the shard's
	// stream and must be safe for concurrent use (the built-in spectra and
	// monoenergetic closures are pure).
	grain := opts.ShardGrain
	if grain <= 0 {
		grain = DefaultShardGrain
	}
	streams := make([]*rng.Stream, len(engine.Plan(n, grain)))
	for i := range streams {
		streams[i] = s.Split()
	}
	start := time.Now()
	tallies, err := engine.Map(ctx, engine.Config{
		Workers:   opts.Shards,
		Grain:     grain,
		Name:      "transport",
		StreamFor: func(i int) *rng.Stream { return streams[i] },
		OnShardDone: func(doneItems, totalItems int) {
			telemetry.ReportProgress(ctx, telemetry.ProgressUpdate{
				Component: "transport",
				Done:      float64(doneItems),
				Total:     float64(totalItems),
				Elapsed:   time.Since(start),
			})
		},
	}, n, DefaultShardGrain, func(_ context.Context, sh engine.Shard) (*Tally, error) {
		t := newTally()
		t.Incident = sh.Count
		tt := &trackTally{absorbedBy: map[string]int{}}
		if opts.ImplicitCapture {
			tt.w = &weightedTrack{absorbedBy: map[string]*stats.Weighted{}}
		}
		for i := 0; i < sh.Count; i++ {
			trackOne(slabs, bounds, source(sh.Stream), sh.Stream, kT, tt, opts)
		}
		tt.fold(t)
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	tally := newTally()
	// Shard order: weighted merges are Kahan sums, which are only
	// deterministic for a fixed fold order (engine.Map returns tallies in
	// shard order regardless of worker scheduling).
	for _, t := range tallies {
		tally.merge(t)
	}
	tally.finalizeWeighted()
	reg := telemetry.Default
	reg.Counter("transport.neutrons").Add(int64(n))
	reg.Counter("transport.collisions").Add(tally.Collisions)
	reg.Counter("transport.absorbed").Add(int64(tally.Absorbed))
	reg.Counter("transport.transmitted").Add(int64(tally.TransmittedTotal()))
	reg.Counter("transport.reflected").Add(int64(tally.ReflectedTotal()))
	if tally.Weighted != nil {
		reg.Counter("transport.roulette_kills").Add(tally.Weighted.RouletteKills)
	}
	return tally, nil
}

// merge folds another shard's tally into t. All fields are counts, so the
// merge is order-independent.
func (t *Tally) merge(o *Tally) {
	t.Incident += o.Incident
	t.Absorbed += o.Absorbed
	t.Collisions += o.Collisions
	t.Lost += o.Lost
	for b, n := range o.Transmitted {
		t.Transmitted[b] += n
	}
	for b, n := range o.Reflected {
		t.Reflected[b] += n
	}
	for e, n := range o.AbsorbedByElement {
		t.AbsorbedByElement[e] += n
	}
	if o.Weighted != nil {
		if t.Weighted == nil {
			t.Weighted = &TransportWeights{
				Transmitted:       map[physics.EnergyBand]stats.Weighted{},
				Reflected:         map[physics.EnergyBand]stats.Weighted{},
				AbsorbedByElement: map[string]stats.Weighted{},
			}
		}
		w := t.Weighted
		w.Absorbed.Merge(o.Weighted.Absorbed)
		w.RouletteKills += o.Weighted.RouletteKills
		for b, ot := range o.Weighted.Transmitted {
			cur := w.Transmitted[b]
			cur.Merge(ot)
			w.Transmitted[b] = cur
		}
		for b, ot := range o.Weighted.Reflected {
			cur := w.Reflected[b]
			cur.Merge(ot)
			w.Reflected[b] = cur
		}
		for e, ot := range o.Weighted.AbsorbedByElement {
			cur := w.AbsorbedByElement[e]
			cur.Merge(ot)
			w.AbsorbedByElement[e] = cur
		}
	}
}

// finalizeWeighted folds the Kahan compensation terms of every weighted
// tally into the exported sums before the result is published (the JSON
// round-trip guarantee of stats.Weighted).
func (t *Tally) finalizeWeighted() {
	if t.Weighted == nil {
		return
	}
	w := t.Weighted
	w.Absorbed.Finalize()
	for b, wt := range w.Transmitted {
		wt.Finalize()
		w.Transmitted[b] = wt
	}
	for b, wt := range w.Reflected {
		wt.Finalize()
		w.Reflected[b] = wt
	}
	for e, wt := range w.AbsorbedByElement {
		wt.Finalize()
		w.AbsorbedByElement[e] = wt
	}
}

// trackTally is the shard-local tally trackOne updates. Per-band exit
// counters are fixed arrays indexed by band value (1..physics.NumBands) so
// per-neutron bookkeeping never touches a map; fold converts to the
// exported map-based Tally once per shard.
type trackTally struct {
	collisions  int64
	absorbed    int
	lost        int
	transmitted [physics.NumBands + 1]int
	reflected   [physics.NumBands + 1]int
	absorbedBy  map[string]int
	// w is the weighted side of an implicit-capture shard, nil in analog
	// mode.
	w *weightedTrack
}

// weightedTrack is the shard-local weighted tally of an implicit-capture
// walk. Per-band exit tallies are fixed arrays for the same reason as
// trackTally's; the per-element absorption map holds pointers so the hot
// loop updates in place.
type weightedTrack struct {
	transmitted   [physics.NumBands + 1]stats.Weighted
	reflected     [physics.NumBands + 1]stats.Weighted
	absorbed      stats.Weighted
	absorbedBy    map[string]*stats.Weighted
	rouletteKills int64
}

func (tt *trackTally) fold(t *Tally) {
	t.Collisions += tt.collisions
	t.Absorbed += tt.absorbed
	t.Lost += tt.lost
	for b := 1; b < len(tt.transmitted); b++ {
		if n := tt.transmitted[b]; n != 0 {
			t.Transmitted[physics.EnergyBand(b)] += n
		}
		if n := tt.reflected[b]; n != 0 {
			t.Reflected[physics.EnergyBand(b)] += n
		}
	}
	for e, n := range tt.absorbedBy {
		t.AbsorbedByElement[e] += n
	}
	if tt.w == nil {
		return
	}
	w := &TransportWeights{
		Transmitted:       map[physics.EnergyBand]stats.Weighted{},
		Reflected:         map[physics.EnergyBand]stats.Weighted{},
		Absorbed:          tt.w.absorbed,
		AbsorbedByElement: map[string]stats.Weighted{},
		RouletteKills:     tt.w.rouletteKills,
	}
	for b := 1; b < len(tt.w.transmitted); b++ {
		if wt := tt.w.transmitted[b]; wt.N != 0 {
			w.Transmitted[physics.EnergyBand(b)] = wt
		}
		if wt := tt.w.reflected[b]; wt.N != 0 {
			w.Reflected[physics.EnergyBand(b)] = wt
		}
	}
	for e, wt := range tt.w.absorbedBy {
		w.AbsorbedByElement[e] = *wt
	}
	t.Weighted = w
}

// trackOne walks one history through the slab stack: exponential free
// flights, boundary crossings, and elastic scattering. In analog mode
// (tally.w nil) a collision kills the history on an absorption draw. Under
// implicit capture (tally.w set) absorption is continuous instead: every
// collision deposits weight × P(absorb) into the weighted absorption
// tallies (apportioned over the material's elements by their macroscopic
// absorption share, no extra random draws) and the history survives with
// its weight reduced by the survival probability. A Russian roulette
// terminates histories whose weight decays below rouletteThreshold,
// doubling the survivors' weight so every tally stays an unbiased
// estimate of its analog counterpart.
func trackOne(slabs []Slab, bounds []float64, e units.Energy, s *rng.Stream, kT float64, tally *trackTally, opts Options) {
	x := 0.0
	mu := 1.0 // entering along +x
	wt := 1.0 // survival weight; stays 1 in analog mode
	slab := 0
	back := bounds[len(bounds)-1]
	w := tally.w
	for c := 0; c < maxCollisions; c++ {
		// Thermal equilibrium: below ~the thermal cutoff the neutron
		// exchanges energy with the lattice instead of monotonically
		// slowing down; re-draw from the ambient Maxwellian.
		if float64(e) < kT {
			e = units.Energy(s.MaxwellEnergy(kT))
		}
		m := slabs[slab].Material
		sigmaT := m.MacroTotal(e)
		var flight float64
		if sigmaT <= 0 {
			flight = math.Inf(1)
		} else {
			flight = s.Exponential(sigmaT)
		}
		// Distance along x to the boundary ahead.
		var boundaryX float64
		if mu > 0 {
			boundaryX = bounds[slab+1]
		} else {
			boundaryX = bounds[slab]
		}
		pathToBoundary := (boundaryX - x) / mu // positive by construction
		if flight >= pathToBoundary {
			// Crosses into the neighboring region (or escapes).
			x = boundaryX
			if mu > 0 {
				slab++
				if x >= back || slab >= len(slabs) {
					b := physics.Classify(e)
					tally.transmitted[b]++
					if w != nil {
						w.transmitted[b].Add(wt)
					}
					return
				}
			} else {
				slab--
				if x <= 0 || slab < 0 {
					b := physics.Classify(e)
					tally.reflected[b]++
					if w != nil {
						w.reflected[b].Add(wt)
					}
					return
				}
			}
			continue
		}
		// Collision inside the current slab.
		x += flight * mu
		tally.collisions++
		if w == nil {
			if s.Bernoulli(m.AbsorptionProbability(e)) {
				tally.absorbed++
				tally.absorbedBy[sampleAbsorber(m, e, s)]++
				return
			}
		} else {
			if pAbs := m.AbsorptionProbability(e); pAbs > 0 {
				wAbs := wt * pAbs
				w.absorbed.Add(wAbs)
				depositAbsorbed(w.absorbedBy, m, e, wAbs)
				wt *= 1 - pAbs
			}
			if wt < rouletteThreshold {
				if !s.Bernoulli(0.5) {
					w.rouletteKills++
					tally.absorbed++ // history terminated inside the geometry
					return
				}
				wt *= 2
			}
		}
		nucleus := m.SampleScatterer(s)
		e = physics.ScatterEnergy(e, nucleus.A, s)
		// Re-emission direction: isotropic in the lab frame by default;
		// optionally forward-biased (DESIGN.md §5 ablation).
		for {
			mu = s.Float64() // magnitude
			if mu == 0 {
				continue
			}
			if !s.Bernoulli(0.5 + opts.ForwardBias/2) {
				mu = -mu
			}
			break
		}
	}
	// A lost neutron has certainly thermalized and died. Under implicit
	// capture the bound cut discards the history's remaining weight;
	// maxCollisions is far beyond any physical walk, so the truncation
	// bias is nil in practice and Lost records that it happened at all.
	tally.lost++
	tally.absorbed++
}

// depositAbsorbed apportions one collision's absorbed weight over the
// material's elements by their share of the macroscopic absorption — the
// same arithmetic sampleAbsorber randomizes, made deterministic.
func depositAbsorbed(by map[string]*stats.Weighted, m *materials.Material, e units.Energy, wAbs float64) {
	comps := m.Components()
	total := m.MacroAbsorb(e)
	if total <= 0 || len(comps) == 0 {
		return
	}
	for _, c := range comps {
		share := c.NumberDensity * float64(c.Element.SigmaAbsorb(e)) / total
		if share <= 0 {
			continue
		}
		t, ok := by[c.Element.Name]
		if !ok {
			t = &stats.Weighted{}
			by[c.Element.Name] = t
		}
		t.Add(wAbs * share)
	}
}

// sampleAbsorber picks which element captured the neutron, weighted by the
// per-element macroscopic absorption at energy e.
func sampleAbsorber(m *materials.Material, e units.Energy, s *rng.Stream) string {
	comps := m.Components()
	total := m.MacroAbsorb(e)
	if total <= 0 || len(comps) == 0 {
		return "?"
	}
	u := s.Float64() * total
	acc := 0.0
	for _, c := range comps {
		acc += c.NumberDensity * float64(c.Element.SigmaAbsorb(e))
		if u < acc {
			return c.Element.Name
		}
	}
	return comps[len(comps)-1].Element.Name
}

// ShieldTransmission fires n monoenergetic neutrons at a single-material
// shield and returns the transmitted fraction, split into the fraction
// still in the original band and the total. It is the engine behind the
// paper's Cd / borated-plastic shielding discussion (§VI).
func ShieldTransmission(m *materials.Material, thicknessCm float64, e units.Energy, n int, s *rng.Stream) (sameBand, total float64, err error) {
	tally, err := SimulateContext(context.Background(), []Slab{{Material: m, Thickness: thicknessCm}}, n,
		func(*rng.Stream) units.Energy { return e }, s, Options{})
	if err != nil {
		return 0, 0, err
	}
	band := physics.Classify(e)
	return float64(tally.Transmitted[band]) / float64(n), tally.TransmissionFraction(), nil
}

// ThermalAlbedoContext fires n fast neutrons (from source) into a
// moderator slab and returns the fraction that comes back out of the front
// face as thermal neutrons. This is the mechanism by which a concrete floor
// or a water tank raises the thermal flux seen by nearby devices.
func ThermalAlbedoContext(ctx context.Context, m *materials.Material, thicknessCm float64, n int, source func(*rng.Stream) units.Energy, s *rng.Stream) (float64, error) {
	tally, err := SimulateContext(ctx, []Slab{{Material: m, Thickness: thicknessCm}}, n, source, s, Options{})
	if err != nil {
		return 0, err
	}
	return tally.ReflectedThermalFraction(), nil
}

// ModeratorCoupling folds the geometry between a moderator slab and the
// device it faces into one factor, calibrated once against Tin-II's
// measured +24% for two inches of water: the slab raises the device's
// thermal flux by albedo × ModeratorCoupling × Φfast/Φthermal, where
// albedo is ThermalAlbedoContext's.
const ModeratorCoupling = 0.5
