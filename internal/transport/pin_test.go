package transport

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"neutronsim/internal/materials"
	"neutronsim/internal/rng"
)

// TestSimulatePinnedDigests pins the transport draw sequence bit for bit:
// each case's marshalled tally must hash to the SHA-256 digest recorded
// before the analog and implicit-capture walks shared one body. Any change
// to how either mode consumes the stream, classifies an exit, or folds its
// tallies moves a digest.
func TestSimulatePinnedDigests(t *testing.T) {
	concrete := func() []Slab { return []Slab{{Material: materials.Concrete(), Thickness: 20}} }
	for _, tc := range []struct {
		name  string
		slabs func() []Slab
		opts  Options
		want  string
	}{
		{"concrete/analog", concrete, Options{ShardGrain: 1024},
			"9412baa4532574df918c79c691d063bfefd1a9a1d62cba4f69717d43891532b2"},
		{"concrete/implicit", concrete, Options{ShardGrain: 1024, ImplicitCapture: true},
			"974309815b13211d722c886c90e9d13b7838a26b4c918b60b2d2cb4e7a55dba1"},
		{"water-in-air/analog", implicitSlabs, Options{ShardGrain: 1024, ForwardBias: 0.3},
			"865bf5dd1bb220dd566277b17a9f9f6434eaa7bf5c5b5a0d81b4e7d24ece56ba"},
		{"water-in-air/implicit", implicitSlabs, Options{ShardGrain: 1024, ImplicitCapture: true},
			"044a7d26e333b46d7b5046f5b554c518264fcff7a984acf7c852717dce1e5923"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tally, err := SimulateContext(context.Background(), tc.slabs(), 4000, fastWattSource, rng.New(97), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(tally)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("tally digest = %s, want %s\n%s", got, tc.want, blob)
			}
		})
	}
}
