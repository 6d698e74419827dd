package device

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTripAllCatalogDevices(t *testing.T) {
	for _, d := range All() {
		var buf bytes.Buffer
		if err := Save(&buf, d); err != nil {
			t.Fatalf("%s: save: %v", d.Name, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", d.Name, err)
		}
		if *back != *d {
			t.Errorf("%s: round trip changed the model:\n%+v\nvs\n%+v", d.Name, back, d)
		}
	}
}

func TestLoadRejectsInvalidModels(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"garbage", `not json`},
		{"unknown field", `{"name":"x","technology":"FinFET","kind":"GPU","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1,"surprise":true}`},
		{"bad technology", `{"name":"x","technology":"vacuum tubes","kind":"GPU","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1}`},
		{"bad kind", `{"name":"x","technology":"FinFET","kind":"toaster","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1}`},
		{"fails validation", `{"name":"","technology":"FinFET","kind":"GPU","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1}`},
		{"zero area", `{"name":"x","technology":"FinFET","kind":"GPU","dieAreaCm2":0,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.json)); err == nil {
				t.Error("invalid model accepted")
			}
		})
	}
}

// TestLoadRejectsTrailingContent holds Load to one JSON object: a second
// object or garbage after it is an error, while the whitespace Save ends
// its output with, or more of it, still loads.
func TestLoadRejectsTrailingContent(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, K20()); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if d, err := Load(strings.NewReader(saved + " \t\n")); err != nil || *d != *K20() {
		t.Fatalf("Save output with trailing whitespace: %v, %+v", err, d)
	}
	for name, tail := range map[string]string{
		"second object":    `{"name":"y"}`,
		"trailing garbage": "garbage",
	} {
		if d, err := Load(strings.NewReader(saved + tail)); err == nil {
			t.Errorf("%s after the device accepted, loaded %s", name, d.Name)
		}
	}
}

func TestLoadMinimalCustomDevice(t *testing.T) {
	in := `{
  "name": "MyASIC",
  "technology": "FinFET",
  "kind": "accelerator",
  "dieAreaCm2": 2.5,
  "sensitiveDepthUm": 0.3,
  "sensitiveFraction": 0.001,
  "boron10PerCm2": 5e13,
  "qcritFC": 1.2,
  "qcritSigmaFC": 0.3,
  "controlFracFast": 0.2,
  "controlFracThermal": 0.3,
  "mbuProb": 0.1
}`
	d, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "MyASIC" || d.Tech != FinFET || d.Kind != KindAccelerator {
		t.Errorf("parsed wrong: %+v", d)
	}
	if d.Boron10PerCm2 != 5e13 {
		t.Errorf("boron = %v", d.Boron10PerCm2)
	}
}

func TestSaveValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Error("nil device accepted")
	}
	bad := K20()
	bad.DieAreaCm2 = -1
	if err := Save(&buf, bad); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestSaveIsHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, FPGA()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name": "Zynq7000"`, `"technology": "planar CMOS"`, `"configMemory": true`} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized form missing %q:\n%s", want, out)
		}
	}
}

// TestDeviceSchemaPinned pins the device JSON schema byte for byte: the
// json.Marshal form of every catalog device and of the double-size FPGA,
// and the Save form of one device. Every neutrond assessment carries its
// device in this form, so a moved byte is a changed response.
func TestDeviceSchemaPinned(t *testing.T) {
	want := map[string]string{
		"XeonPhi":         `{"name":"XeonPhi","vendor":"Intel","process":"22nm Intel 3-D Tri-Gate","technology":"3-D Tri-Gate","kind":"accelerator","dieAreaCm2":7,"sensitiveDepthUm":0.35,"sensitiveFraction":0.001,"boron10PerCm2":35500000000000,"qcritFC":2,"qcritSigmaFC":0.5,"controlFracFast":0.3,"controlFracThermal":0.42,"mbuProb":0.05}`,
		"K20":             `{"name":"K20","vendor":"NVIDIA","process":"28nm TSMC CMOS","technology":"planar CMOS","kind":"GPU","dieAreaCm2":5.61,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":370000000000000,"qcritFC":6,"qcritSigmaFC":1.5,"controlFracFast":0.25,"controlFracThermal":0.177,"mbuProb":0.08}`,
		"TitanX":          `{"name":"TitanX","vendor":"NVIDIA","process":"16nm TSMC FinFET","technology":"FinFET","kind":"GPU","dieAreaCm2":4.71,"sensitiveDepthUm":0.3,"sensitiveFraction":0.001,"boron10PerCm2":71400000000000,"qcritFC":1.5,"qcritSigmaFC":0.4,"controlFracFast":0.25,"controlFracThermal":0.112,"mbuProb":0.1}`,
		"TitanV":          `{"name":"TitanV","vendor":"NVIDIA","process":"12nm TSMC FinFET","technology":"FinFET","kind":"GPU","dieAreaCm2":8.15,"sensitiveDepthUm":0.25,"sensitiveFraction":0.001,"boron10PerCm2":83900000000000,"qcritFC":1.2,"qcritSigmaFC":0.3,"controlFracFast":0.25,"controlFracThermal":0.079,"mbuProb":0.12}`,
		"APU-CPU":         `{"name":"APU-CPU","vendor":"AMD","process":"28nm SHP Bulk (Global Foundries)","technology":"planar CMOS","kind":"APU","dieAreaCm2":0.9,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":417000000000000,"qcritFC":6,"qcritSigmaFC":1.5,"controlFracFast":0.3,"controlFracThermal":0.467,"mbuProb":0.06}`,
		"APU-GPU":         `{"name":"APU-GPU","vendor":"AMD","process":"28nm SHP Bulk (Global Foundries)","technology":"planar CMOS","kind":"APU","dieAreaCm2":1.3,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":476000000000000,"qcritFC":6,"qcritSigmaFC":1.5,"controlFracFast":0.35,"controlFracThermal":0.551,"mbuProb":0.06}`,
		"APU-CPU+GPU":     `{"name":"APU-CPU+GPU","vendor":"AMD","process":"28nm SHP Bulk (Global Foundries)","technology":"planar CMOS","kind":"APU","dieAreaCm2":2.45,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":506000000000000,"qcritFC":6,"qcritSigmaFC":1.5,"controlFracFast":0.35,"controlFracThermal":0.559,"mbuProb":0.06}`,
		"Zynq7000":        `{"name":"Zynq7000","vendor":"Xilinx","process":"28nm TSMC","technology":"planar CMOS","kind":"FPGA","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":315000000000000,"qcritFC":5,"qcritSigmaFC":1,"controlFracFast":0.01,"controlFracThermal":0.01,"mbuProb":0.15,"configMemory":true}`,
		"Zynq7000-double": `{"name":"Zynq7000-double","vendor":"Xilinx","process":"28nm TSMC","technology":"planar CMOS","kind":"FPGA","dieAreaCm2":2,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"boron10PerCm2":630000000000000,"qcritFC":5,"qcritSigmaFC":1,"controlFracFast":0.01,"controlFracThermal":0.01,"mbuProb":0.15,"configMemory":true}`,
	}
	devices := append(All(), FPGAPrecision(true))
	if len(devices) != len(want) {
		t.Fatalf("%d devices, %d pinned forms", len(devices), len(want))
	}
	for _, d := range devices {
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if string(got) != want[d.Name] {
			t.Errorf("%s marshals as\n%s\nwant\n%s", d.Name, got, want[d.Name])
		}
	}

	var buf bytes.Buffer
	if err := Save(&buf, K20()); err != nil {
		t.Fatal(err)
	}
	const saved = `{
  "name": "K20",
  "vendor": "NVIDIA",
  "process": "28nm TSMC CMOS",
  "technology": "planar CMOS",
  "kind": "GPU",
  "dieAreaCm2": 5.61,
  "sensitiveDepthUm": 1,
  "sensitiveFraction": 0.001,
  "boron10PerCm2": 370000000000000,
  "qcritFC": 6,
  "qcritSigmaFC": 1.5,
  "controlFracFast": 0.25,
  "controlFracThermal": 0.177,
  "mbuProb": 0.08
}
`
	if buf.String() != saved {
		t.Errorf("Save(K20) wrote\n%s\nwant\n%s", buf.String(), saved)
	}
}

// TestUnknownNamesListTheValidOnes checks that an unknown technology or
// kind name is rejected with a message naming it and every valid name.
func TestUnknownNamesListTheValidOnes(t *testing.T) {
	for _, tc := range []struct{ tech, kind, want string }{
		{"vacuum tubes", "GPU", `unknown technology "vacuum tubes" (want one of: planar CMOS, FinFET, 3-D Tri-Gate)`},
		{"FinFET", "toaster", `unknown kind "toaster" (want one of: CPU, GPU, accelerator, APU, FPGA)`},
	} {
		in := `{"name":"x","technology":"` + tc.tech + `","kind":"` + tc.kind + `","dieAreaCm2":1,"sensitiveDepthUm":1,"sensitiveFraction":0.001,"qcritFC":1}`
		if _, err := Load(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("technology %q, kind %q: error %v, want one containing %s", tc.tech, tc.kind, err, tc.want)
		}
	}
}
