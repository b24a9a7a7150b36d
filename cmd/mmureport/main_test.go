package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A -j N pass on a host that cannot run two goroutines at once measures
// scheduling, not parallel scaling, so -benchjson must not publish its
// ratio as a speedup.
func TestBenchJSONSpeedupNeedsTwoCPUs(t *testing.T) {
	cases := []struct {
		cpus, procs int
		want        bool
	}{
		{1, 1, false},
		{1, 8, false},
		{8, 1, false},
		{2, 2, true},
		{8, 8, true},
	}
	for _, tc := range cases {
		d := benchDoc{HostCPUs: tc.cpus, GoMaxProcs: tc.procs}
		d.setSpeedup(2*time.Second, time.Second)
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(out), `"speedup"`); got != tc.want {
			t.Errorf("host_cpus %d, gomaxprocs %d: speedup present = %v, want %v: %s", tc.cpus, tc.procs, got, tc.want, out)
		}
		if tc.want && *d.Speedup != 2 {
			t.Errorf("host_cpus %d, gomaxprocs %d: speedup = %v, want 2", tc.cpus, tc.procs, *d.Speedup)
		}
	}
}
