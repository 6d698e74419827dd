package experiments

import (
	"context"
	"fmt"

	"neutronsim/internal/materials"
	"neutronsim/internal/rng"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
)

func transportBudget(scale Scale) int {
	if scale == Full {
		return 100000
	}
	return 15000
}

func atmosphericFast(st *rng.Stream) units.Energy {
	return units.Energy(st.WattEnergy(0.988, 2.249) * 1e6)
}

// E10Shielding regenerates the §VI shielding discussion: thin cadmium or
// inches of borated plastic remove the thermal flux while leaving the fast
// flux almost untouched.
func E10Shielding(scale Scale, seed uint64) (Table, error) {
	n := transportBudget(scale)
	s := rng.New(seed)
	t := Table{
		ID:     "E10",
		Title:  "Shield transmission: thermal vs fast neutrons (§VI)",
		Header: []string{"shield", "thickness", "thermal transmission", "fast transmission"},
	}
	type shield struct {
		name      string
		mat       *materials.Material
		thickness float64
		label     string
	}
	shields := []shield{
		{"cadmium", materials.CadmiumSheet(), 0.05, "0.5 mm"},
		{"cadmium", materials.CadmiumSheet(), 0.1, "1 mm"},
		{"cadmium", materials.CadmiumSheet(), 0.2, "2 mm"},
		{"borated PE (5%)", materials.BoratedPolyethylene(0.05), 2.54, "1 in"},
		{"borated PE (5%)", materials.BoratedPolyethylene(0.05), 5.08, "2 in"},
		{"borated PE (5%)", materials.BoratedPolyethylene(0.05), 10.16, "4 in"},
	}
	for _, sh := range shields {
		thermalTrans, _, err := transport.ShieldTransmission(sh.mat, sh.thickness, 0.0253, n, s)
		if err != nil {
			return Table{}, err
		}
		fastTrans, _, err := transport.ShieldTransmission(sh.mat, sh.thickness, 14*units.MeV, n, s)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{sh.name, sh.label, pct(thermalTrans), pct(fastTrans)})
	}
	t.Notes = append(t.Notes,
		"paper: thermal flux can be shielded with thin Cd or inches of boron plastic,",
		"but Cd is toxic when heated and B-plastic thermally isolates the device (§VI)",
	)
	return t, nil
}

// E12Moderation regenerates the transport result behind the paper's flux
// adjustments: the thermal-flux enhancement caused by water (Tin-II
// measured +24%) and a concrete slab (≈+20%), and their combination
// (+44%).
func E12Moderation(scale Scale, seed uint64) (Table, error) {
	n := transportBudget(scale)
	s := rng.New(seed)
	const coupling = 0.5 // calibrated once against the water measurement
	ratio := 1 / 0.31    // NYC bare fast:thermal
	t := Table{
		ID:     "E12",
		Title:  "Moderator-induced thermal flux enhancement (§VI)",
		Header: []string{"moderator", "thickness", "thermal albedo", "enhancement", "paper"},
	}
	cases := []struct {
		name      string
		mat       *materials.Material
		thickness float64
		label     string
		paper     string
	}{
		{"water", materials.Water(), 5.08, "2 in", "+24% (Tin-II)"},
		{"concrete", materials.Concrete(), 30, "30 cm slab", "≈+20%"},
		{"polyethylene", materials.Polyethylene(), 5.08, "2 in", "-"},
	}
	sum := 0.0
	for _, c := range cases {
		albedo, err := transport.ThermalAlbedoContext(context.Background(), c.mat, c.thickness, n, atmosphericFast, s)
		if err != nil {
			return Table{}, err
		}
		enh := albedo * coupling * ratio
		if c.name != "polyethylene" {
			sum += enh
		}
		t.Rows = append(t.Rows, []string{c.name, c.label, f3(albedo), pct(enh), c.paper})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("water + concrete combined: %s (paper: +44%%)", pct(sum)),
		"coupling factor 0.5 calibrated once on the water measurement; concrete is then a prediction",
	)
	return t, nil
}
