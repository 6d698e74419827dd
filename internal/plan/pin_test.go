package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
)

// TestCompilePinnedDigests pins plan compilation bit for bit: one SHA-256
// digest over every exact plan's Checksum, and one over every biased
// plan's meanP, band weights and biased alias table, across every catalog
// device (plus a K20 on which nothing interacts), both beamlines and a
// monoenergetic beam, budgets from a single slot to the production 20k,
// three seeds and three bias settings. Both digests were recorded before
// calibration wrote its slots in place; any change to how a compile draws
// its energies, sums its weights or pairs its alias slots moves one.
func TestCompilePinnedDigests(t *testing.T) {
	const (
		wantExact  = "fdcb14e7e42c67210d931e627994397738e24367362f0e6b50e4820810cea21c"
		wantBiased = "359012d2da5b040498d03a18f6c936723c08a07bed7683bb6d7f1992dac960ba"
	)
	inert := device.K20()
	inert.Name = "K20/inert"
	inert.Boron10PerCm2 = 0
	inert.SensitiveFraction = 0
	devices := append(device.All(), inert)
	mono, err := spectrum.NewMono("thermal-mono", 0.0253, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	spectra := []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX(), mono}
	biases := []Bias{{}, {Thermal: 10}, {Fast: 0.5, Epithermal: 3}}

	exact, biased := sha256.New(), sha256.New()
	var buf [8]byte
	writeF64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		biased.Write(buf[:])
	}
	for _, d := range devices {
		for _, sp := range spectra {
			for _, n := range []int{1, 7, 2000, 20000} {
				for seed := uint64(1); seed <= 3; seed++ {
					exact.Write([]byte(Compile(d, sp, n, CalibrationStream(seed)).Checksum()))
					for _, b := range biases {
						p, err := CompileBiased(d, sp, n, CalibrationStream(seed), b)
						if err != nil {
							t.Fatal(err)
						}
						ws := p.WeightedSampler()
						writeF64(p.MeanP())
						for _, w := range ws.bandW {
							writeF64(w)
						}
						for _, sl := range ws.slots {
							writeF64(sl.prob)
							writeF64(float64(sl.self))
							writeF64(float64(sl.alias))
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(exact.Sum(nil)); got != wantExact {
		t.Errorf("exact plan digest = %s, want %s", got, wantExact)
	}
	if got := hex.EncodeToString(biased.Sum(nil)); got != wantBiased {
		t.Errorf("biased plan digest = %s, want %s", got, wantBiased)
	}
}
