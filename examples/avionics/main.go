// Avionics: the paper's §II-A notes the fast flux "increases exponentially
// with altitude, reaching a maximum at about 60,000 ft", and its §VI lists
// fuel among the hydrogen-rich moderators around a vehicle's electronics.
// This example flies a COTS GPU from the ground to cruise altitude, with a
// kerosene tank near the avionics bay, and watches the failure rates.
package main

import (
	"context"
	"fmt"
	"log"

	"neutronsim"
	"neutronsim/internal/materials"
	"neutronsim/internal/rng"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
)

func main() {
	gpu, err := neutronsim.DeviceByName("TitanX")
	if err != nil {
		log.Fatal(err)
	}
	assessment, err := neutronsim.Assess(gpu, []string{"YOLO"}, neutronsim.QuickBudget(), 61)
	if err != nil {
		log.Fatal(err)
	}

	// The fuel tank acts like the paper's water box: fast neutrons
	// thermalize in the kerosene and come back at the avionics.
	s := rng.New(62)
	fastSource := func(st *rng.Stream) units.Energy {
		return units.Energy(st.WattEnergy(0.988, 2.249) * 1e6)
	}
	albedo, err := transport.ThermalAlbedoContext(context.Background(), materials.Kerosene(), 30, 20000, fastSource, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kerosene tank thermal albedo (30 cm): %.3f\n\n", albedo)

	fmt.Printf("%-22s %12s %12s %12s %14s\n",
		"altitude", "fast n/cm²/h", "SDC FIT", "DUE FIT", "thermal share")
	for _, alt := range []float64{0, 3000, 8000, 12000, 18300} {
		site := neutronsim.AtAltitude(fmt.Sprintf("%.0f m", alt), alt)
		env := neutronsim.Environment{Location: site}
		// Fold the fuel-tank moderation in: albedo × coupling ×
		// fast:thermal ratio, like the machine-room water loops.
		ratio := site.FastFluxPerHour / site.ThermalFluxPerHour
		env.ExtraThermalFactor = 1 + albedo*0.5*ratio
		rep, err := assessment.FIT(env)
		if err != nil {
			log.Fatal(err)
		}
		total := rep.Total()
		share := float64(rep.SDC.Thermal+rep.DUE.Thermal) / float64(total)
		fmt.Printf("%-22s %12.3g %12.4g %12.4g %13.1f%%\n",
			site.Name, site.FastFluxPerHour,
			float64(rep.SDC.Total()), float64(rep.DUE.Total()), share*100)
	}
	fmt.Println("\nat cruise the same part fails hundreds of times more often than on")
	fmt.Println("the ground — and the fuel tank (like the passengers, who are mostly")
	fmt.Println("water) keeps feeding thermalized neutrons back at the avionics.")
}
