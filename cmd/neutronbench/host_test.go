package main

import "testing"

func TestParseCPUTimes(t *testing.T) {
	for _, c := range []struct {
		line string
		want cpuTimes
	}{
		// Guest time (the last two fields) is part of user time already.
		{"cpu  808775 0 58878 668398 2817 0 13228 2802 40 0", cpuTimes{total: 1554898, steal: 2802}},
		{"cpu  100 0 50 800 0 0 0", cpuTimes{total: 950}},
		{"cpu0 401450 0 30134 335123 2758 0 6550 1466 0 0", cpuTimes{}},
		{"cpu  1 x 2", cpuTimes{}},
		{"", cpuTimes{}},
	} {
		if got := parseCPUTimes(c.line); got != c.want {
			t.Errorf("parseCPUTimes(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}
