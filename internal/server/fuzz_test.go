package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzNormalize drives submit bodies through the decode and Normalize
// steps of handleSubmit. The body is untrusted input, and the canonical
// form is what the result cache keys on, so any request Normalize accepts
// must be a fixed point: normalizing it again gives a DeepEqual request
// with the same CacheKey. The key must not depend on how the body is
// spelled either: the same members sorted and re-indented normalize to
// the same CacheKey.
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
		`{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1}}` + "\n",
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var raw CampaignRequest
		if err := decodeStrict(strings.NewReader(body), &raw); err != nil {
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
		// Re-encode the body's own tree: MarshalIndent sorts every
		// object's members and re-indents, and UseNumber keeps 64-bit
		// seeds exact.
		var tree any
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&tree); err != nil {
			t.Fatalf("body %q decodes as a request but not as JSON: %v", body, err)
		}
		respelled, err := json.MarshalIndent(tree, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var raw2 CampaignRequest
		if err := decodeStrict(bytes.NewReader(respelled), &raw2); err != nil {
			t.Fatalf("body %q is accepted, but reordered as %s it is rejected: %v", body, respelled, err)
		}
		req2, err := raw2.Normalize()
		if err != nil {
			t.Fatalf("body %q normalizes, but reordered as %s it does not: %v", body, respelled, err)
		}
		if req2.CacheKey() != req.CacheKey() {
			t.Fatalf("body %q: reordering its members as %s changed the cache key", body, respelled)
		}
	})
}

// TestCacheKeyPinned pins the key of one minimal body per kind, so every
// default Normalize fills in is pinned too. The coordinator and each of
// its peers hash keys on their own for HRW routing: a default that moves
// re-homes keys, and must do so on purpose.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"kind":"beam","beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":1}}`,
			"1c45342f87f86970074f0097387a143df8228c3b270d042e8e29fc2d553d3373"},
		{`{"kind":"assess","assess":{"device":"K20"}}`,
			"8c7b3241385af071e3669c6ddae6b03bfe3b809954faa7c6c24a248d59f051fa"},
		{`{"kind":"memory","memory":{"generation":"DDR3","duration_seconds":1}}`,
			"054e817d59e2105d64dc56016910c02dc8c3e22e115607192536f166a62a3f1f"},
		{`{"kind":"transport","transport":{"slabs":[{"material":"Water","thickness_cm":1}],"neutrons":100}}`,
			"dcb400140b77a35eb0742d15038e3e4f6a102cd05a51ce1588c98dad1078d09e"},
		{`{"kind":"xsection","xsection":{"boron_per_cm2":1e14,"qcrit_fc":3,"spectrum":"ROTAX"}}`,
			"5df806f171ac3d77c24e8a45ba08f2ed5dd7e0674533cea715b733d1c742fefc"},
	} {
		var raw CampaignRequest
		if err := decodeStrict(strings.NewReader(tc.body), &raw); err != nil {
			t.Fatal(err)
		}
		req, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := req.CacheKey(); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.body, got, tc.key)
		}
	}
}

// BenchmarkRepeatedMemberCheck measures what decodeStrict's
// repeated-member check adds to each submit body: the decode alone,
// decodeStrict, and the check alone.
func BenchmarkRepeatedMemberCheck(b *testing.B) {
	body := []byte(`{"kind":"beam","seed":4242,"beam":{"device":"K20","workload":"MxM","spectrum":"ChipIR","duration_seconds":60,"run_seconds":0.03,"cal_samples":2000,"bias":{"thermal":60}}}`)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var raw CampaignRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decodeStrict", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var raw CampaignRequest
			if err := decodeStrict(bytes.NewReader(body), &raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := checkRepeatedMembers(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
