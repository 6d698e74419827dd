package plan

import (
	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
)

// CompileStratified is, outside any cache, the compile a cache miss runs:
// the one compile pass fed the spectrum's stratified point set, biased
// when bias is non-nil. Tests compare cached plans against it.
func CompileStratified(d *device.Device, sp spectrum.Spectrum, n int, bias *Bias) *CampaignPlan {
	p, err := compile(d, sp, n, nil, sp.Points(n), bias)
	if err != nil {
		panic(err)
	}
	return p
}
