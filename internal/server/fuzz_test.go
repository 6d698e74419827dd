package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzNormalize drives submit bodies through the decode and Normalize
// steps of handleSubmit. The body is untrusted input, and the canonical
// form is what the result cache keys on, so any request Normalize accepts
// must be a fixed point: normalizing it again gives a DeepEqual request
// with the same CacheKey.
func FuzzNormalize(f *testing.F) {
	for _, tc := range invalidSubmits {
		f.Add(tc.body)
	}
	for _, body := range []string{
		`{"kind":"Beam","seed":9,"beam":{"device":"K20","workload":"MxM","spectrum":"chipir","duration_seconds":3}}`,
		`{"kind":"beam","seed":33,"beam":{"device":"TitanV","workload":"MxM","spectrum":"ROTAX","duration_seconds":5,"run_seconds":0.01,"cal_samples":2000,"shard_grain":32}}`,
		`{"kind":"beam","seed":4242,"beam":{"device":"Zynq7000","workload":"MxM","spectrum":"ChipIR","duration_seconds":60,"run_seconds":0.03,"bias":{"thermal":60}}}`,
		`{"kind":"assess","seed":1,"assess":{"device":"K20","workloads":[" MxM"],"fast_seconds":60,"thermal_seconds":120}}`,
		`{"kind":"memory","seed":2,"memory":{"generation":"ddr4","duration_seconds":600}}`,
		`{"kind":"memory","memory":{"generation":"DDR3","band":"Fast","flux":1e5,"duration_seconds":10}}`,
		`{"kind":"transport","seed":3,"transport":{"slabs":[{"material":"Water","thickness_cm":5.08}],"neutrons":5000,"source":"ChipIR","implicit_capture":true}}`,
		`{"kind":"transport","transport":{"slabs":[{"material":"cadmium","thickness_cm":0.1}],"neutrons":100,"mono_ev":0.025}}`,
		`{"kind":"xsection","seed":1,"tolerance":0.1,"xsection":{"boron_per_cm2":1e14,"qcrit_fc":3,"spectrum":"ROTAX"}}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		raw, err := decodeCampaign(strings.NewReader(body))
		if err != nil {
			return
		}
		req, err := raw.Normalize()
		if err != nil {
			return
		}
		again, err := req.Normalize()
		if err != nil {
			t.Fatalf("body %q normalizes, but its canonical form is rejected: %v", body, err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("body %q: Normalize is not idempotent:\n%+v\n%+v", body, req, again)
		}
		if req.CacheKey() != again.CacheKey() {
			t.Fatalf("body %q: renormalizing changed the cache key", body)
		}
	})
}
