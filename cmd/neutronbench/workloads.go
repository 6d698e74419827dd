package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"neutronsim/internal/cluster"
	"neutronsim/internal/plan"
	"neutronsim/internal/server"
	"neutronsim/internal/surrogate"
)

// call is one generated request plus the index the workload's checks key
// on: a lattice point or a rotation slot.
type call struct {
	req *server.CampaignRequest
	key int
}

// traffic is one workload: how to start the system for it, how to warm
// it, the request streams of its clients, and how to check every answer.
type traffic interface {
	topology() topology
	// clients is the closed-loop client count, and the connection count.
	clients() int
	// traceSample is the number of requests the traced run replays.
	traceSample() int
	// prepare runs once, before any set-up is timed, and returns the
	// front-door node's extra flags.
	prepare(ctx context.Context, dir string) ([]string, error)
	// warmup is the warm-up pass of set-up number rep.
	warmup(ctx context.Context, c *client, rep int) error
	// next is request i of client cl's stream.
	next(cl, i int) call
	// check inspects one successful answer.
	check(call, answer)
	// verify runs the checks deferred past the measurement window.
	verify(ctx context.Context) error
	// wrong lists the wrong answers found so far.
	wrong() []string
}

var workloadNames = []string{"design-sweep", "beam-campaigns", "beam-cluster", "assess"}

func newWorkload(name string, seed uint64) (traffic, error) {
	switch name {
	case "design-sweep":
		return &designSweep{seed: seed}, nil
	case "beam-campaigns":
		return &stream{topo: singleNode, conns: 2, sample: 200, seed: seed, every: 50, variants: beamVariants()}, nil
	case "beam-cluster":
		return &stream{topo: coordinatorPlusTwo, conns: 2, sample: 150, seed: seed, every: 50, variants: beamVariants()}, nil
	case "assess":
		return &stream{topo: singleNode, conns: 2, sample: 96, seed: seed, every: 16, variants: assessVariants()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix hashes its arguments into one well-spread 64-bit value
// (splitmix64 finalizer per word), so every request seed, key pick and
// check sample derives from the run seed alone.
func mix(xs ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, x := range xs {
		h += x + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// checks counts wrong answers. Deferred checks re-execute a sample of
// answers directly after the measurement window, so the reference runs
// never compete with the system under test for CPU.
type checks struct {
	mu       sync.Mutex
	bad      []string
	deferred []call
	bodies   [][]byte
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad = append(c.bad, fmt.Sprintf(format, args...))
}

func (c *checks) wrong() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bad...)
}

func (c *checks) later(k call, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deferred = append(c.deferred, k)
	c.bodies = append(c.bodies, body)
}

// verify re-executes every deferred answer with a direct single-process
// server.Execute and requires the bytes neutrond sent to be identical,
// which also holds a cluster's merged result to the single-node one.
func (c *checks) verify(ctx context.Context) error {
	c.mu.Lock()
	calls, bodies := c.deferred, c.bodies
	c.deferred, c.bodies = nil, nil
	c.mu.Unlock()
	for i, k := range calls {
		want, err := direct(ctx, k.req)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, bodies[i]) {
			c.fail("%s seed %d: answer differs from a direct server.Execute", k.req.Kind, k.req.Seed)
		}
	}
	return nil
}

// direct runs req in this process, as neutrond would, and returns the
// result envelope JSON neutrond would send.
func direct(ctx context.Context, req *server.CampaignRequest) ([]byte, error) {
	n, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	env, err := server.Execute(ctx, n, 0)
	if err != nil {
		return nil, fmt.Errorf("direct %s seed %d: %w", req.Kind, req.Seed, err)
	}
	return json.Marshal(env)
}

// stream is a workload whose every request carries a fresh seed, so no
// request can be answered from a cache: each client rotates through the
// variants, and a seeded one-in-every sample of answers is checked.
type stream struct {
	checks
	topo     topology
	conns    int
	sample   int
	seed     uint64
	every    uint64
	variants []func(seed uint64) *server.CampaignRequest
}

func (s *stream) topology() topology                                { return s.topo }
func (s *stream) clients() int                                      { return s.conns }
func (s *stream) traceSample() int                                  { return s.sample }
func (s *stream) prepare(context.Context, string) ([]string, error) { return nil, nil }

func (s *stream) next(cl, i int) call {
	v := (i + cl) % len(s.variants)
	return call{req: s.variants[v](mix(s.seed, 1, uint64(cl), uint64(i))), key: v}
}

// warmup sends one request of every variant, with seeds no measured
// request uses.
func (s *stream) warmup(ctx context.Context, c *client, rep int) error {
	for v, mk := range s.variants {
		k := call{req: mk(mix(s.seed, 2, uint64(rep), uint64(v))), key: v}
		a, err := c.campaign(ctx, k.req)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		s.check(k, a)
	}
	return nil
}

func (s *stream) check(k call, a answer) {
	if a.tier != tierExact {
		s.fail("%s seed %d: fresh seed answered from tier %q", k.req.Kind, k.req.Seed, a.tier)
		return
	}
	if mix(s.seed, 3, k.req.Seed)%s.every == 0 {
		s.later(k, a.body)
	}
}

// beamVariants are K20/MxM campaigns of 800 beam-seconds at 0.01 s per
// run: 80,000 runs in 10 shards at the default grain, which is at least
// the coordinator's fan-out threshold of 8, across both beamlines, exact
// and thermally biased.
func beamVariants() []func(uint64) *server.CampaignRequest {
	mk := func(spectrum string, bias *plan.Bias) func(uint64) *server.CampaignRequest {
		return func(seed uint64) *server.CampaignRequest {
			return &server.CampaignRequest{Kind: server.KindBeam, Seed: seed, Beam: &server.BeamParams{
				Device: "K20", Workload: "MxM", Spectrum: spectrum,
				DurationSeconds: 800, RunSeconds: 0.01, Bias: bias,
			}}
		}
	}
	thermal := &plan.Bias{Thermal: 10}
	return []func(uint64) *server.CampaignRequest{
		mk("ChipIR", nil), mk("ROTAX", nil), mk("ChipIR", thermal), mk("ROTAX", thermal),
	}
}

// assessDevice is one device of the assess rotation. Budgets are scaled
// per device so each request costs about the same, which keeps the
// latency distribution single-moded and its percentiles steady.
type assessDevice struct {
	device        string
	workloads     []string
	fast, thermal float64
}

// assessDevices covers one device per kind and all nine kernels; Zynq7000
// runs MNIST only, because its YOLO repeats the conv2D kernel K20's YOLO
// already runs, at several times the cost.
var assessDevices = []assessDevice{
	{"K20", nil, 1.5, 9},
	{"XeonPhi", nil, 18, 108},
	{"APU-CPU+GPU", nil, 28, 168},
	{"Zynq7000", []string{"MNIST"}, 20, 120},
}

func assessVariants() []func(uint64) *server.CampaignRequest {
	var out []func(uint64) *server.CampaignRequest
	for _, d := range assessDevices {
		out = append(out, func(seed uint64) *server.CampaignRequest {
			return &server.CampaignRequest{Kind: server.KindAssess, Seed: seed, Assess: &server.AssessParams{
				Device: d.device, Workloads: d.workloads, FastSeconds: d.fast, ThermalSeconds: d.thermal,
			}}
		})
	}
	return out
}

// designSweep is uniform traffic over the 40-point design lattice of
// cluster.XsectionCampaign(0.1) against a surrogate-enabled node: every
// third point asks for an exact answer, which the result cache holds
// after the warm-up pass, and the rest accept the surrogate's certified
// error.
type designSweep struct {
	checks
	seed    uint64
	model   *surrogate.Model
	lattice []*server.CampaignRequest
	want    [][]byte  // exact result body per point
	sigma   []float64 // exact σ per point
	served  [][]byte  // first surrogate body seen per point
}

const latticePoints = 40

func (d *designSweep) topology() topology { return singleNode }
func (d *designSweep) clients() int       { return 2 }
func (d *designSweep) traceSample() int   { return 3000 }

// prepare trains the stock surrogate model and computes every point's
// exact answer in this process.
func (d *designSweep) prepare(ctx context.Context, dir string) ([]string, error) {
	ds, err := surrogate.EvaluateGrid(surrogate.DefaultGrid())
	if err != nil {
		return nil, err
	}
	if d.model, err = surrogate.Train(ds, surrogate.TrainConfig{}); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "surrogate.json")
	if err := d.model.Save(path); err != nil {
		return nil, err
	}
	gen := cluster.XsectionCampaign(0.1)
	d.lattice = make([]*server.CampaignRequest, latticePoints)
	d.want = make([][]byte, latticePoints)
	d.sigma = make([]float64, latticePoints)
	d.served = make([][]byte, latticePoints)
	for k := range d.lattice {
		req := gen(k)
		req.Seed = mix(d.seed, 4, uint64(k))
		d.lattice[k] = req
		if d.want[k], err = direct(ctx, req); err != nil {
			return nil, err
		}
		var env server.ResultEnvelope
		if err := json.Unmarshal(d.want[k], &env); err != nil {
			return nil, err
		}
		d.sigma[k] = env.Xsection.SigmaCm2
	}
	return []string{"-surrogate", path}, nil
}

func (d *designSweep) next(cl, i int) call {
	k := int(mix(d.seed, 1, uint64(cl), uint64(i)) % latticePoints)
	return call{req: d.lattice[k], key: k}
}

// warmup asks every lattice point once, which fills the result cache
// with the exact points.
func (d *designSweep) warmup(ctx context.Context, c *client, _ int) error {
	for k, req := range d.lattice {
		a, err := c.campaign(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-up point %d: %w", k, err)
		}
		d.check(call{req: req, key: k}, a)
	}
	return nil
}

// check holds exact and cached answers to the direct result byte for
// byte, and the first surrogate answer of each point to the model's
// certified bound around the direct exact σ; later surrogate answers for
// the point must repeat that first one byte for byte.
func (d *designSweep) check(k call, a answer) {
	switch a.tier {
	case tierHit, tierExact:
		if !bytes.Equal(a.body, d.want[k.key]) {
			d.fail("point %d: %s answer differs from a direct server.Execute", k.key, a.tier)
		}
	case tierSurrogate:
		d.mu.Lock()
		first := d.served[k.key]
		d.mu.Unlock()
		if first != nil {
			if !bytes.Equal(a.body, first) {
				d.fail("point %d: surrogate answer changed between requests", k.key)
			}
			return
		}
		var env server.ResultEnvelope
		if err := json.Unmarshal(a.body, &env); err != nil || env.Xsection == nil || !env.Xsection.Approx ||
			env.Xsection.ModelHash != d.model.Hash || env.Xsection.RelErrBound != d.model.CertifiedRelErr {
			d.fail("point %d: surrogate answer does not carry the served model's identity and bound", k.key)
			return
		}
		x := env.Xsection
		if rel := math.Abs(x.SigmaCm2/d.sigma[k.key] - 1); !(rel <= d.model.CertifiedRelErr) {
			d.fail("point %d: surrogate σ %.4g is %.2f%% from exact %.4g, bound %.2f%%",
				k.key, x.SigmaCm2, 100*rel, d.sigma[k.key], 100*d.model.CertifiedRelErr)
			return
		}
		d.mu.Lock()
		d.served[k.key] = a.body
		d.mu.Unlock()
	default:
		d.fail("point %d: unexpected tier %q", k.key, a.tier)
	}
}

func (d *designSweep) surrogateModel() *surrogate.Model { return d.model }
