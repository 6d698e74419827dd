package server

import (
	"fmt"
	"sort"
	"strings"

	"neutronsim/internal/materials"
)

// materialCatalog maps request material names (lowercase) to constructors
// from the built-in library. Borated polyethylene is fixed at the 5 wt%
// grade shielding vendors actually sell; a request needing a different
// loading is a library call, not a service call.
var materialCatalog = map[string]func() *materials.Material{
	"water":                materials.Water,
	"concrete":             materials.Concrete,
	"polyethylene":         materials.Polyethylene,
	"borated polyethylene": func() *materials.Material { return materials.BoratedPolyethylene(0.05) },
	"cadmium":              materials.CadmiumSheet,
	"silicon":              materials.SiliconBulk,
	"bpsg":                 materials.BPSG,
	"air":                  materials.Air,
	"kerosene":             materials.Kerosene,
	"liquid methane":       materials.LiquidMethane,
}

// MaterialByName resolves a transport material case-insensitively.
func MaterialByName(name string) (*materials.Material, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	ctor, ok := materialCatalog[key]
	if !ok {
		return nil, fmt.Errorf("unknown material %q (have %s)", clip(name), strings.Join(MaterialNames(), ", "))
	}
	return ctor(), nil
}

// MaterialNames lists the materials the service accepts, sorted.
func MaterialNames() []string {
	names := make([]string, 0, len(materialCatalog))
	for k := range materialCatalog {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
