package cluster

import (
	"strings"
	"testing"
)

func TestParseFleet(t *testing.T) {
	models, err := ParseFleet("tesla-c1060:2, tesla-m2050, fpga:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tesla-c1060", "tesla-c1060", "tesla-m2050", "fpga"}
	for i, m := range models {
		if m.Name != want[i] {
			t.Errorf("models[%d] = %q, want %q", i, m.Name, want[i])
		}
	}

	for _, bad := range []struct{ spec, frag string }{
		{"tesla-c1060:0", "bad count"},
		{"tesla-c1060:x", "bad count"},
		{"geforce-8800", "unknown device model"},
		{"", "empty fleet"},
		{"tesla-c1060:3", "cluster has 4"},
	} {
		if _, err := ParseFleet(bad.spec, 4); err == nil || !strings.Contains(err.Error(), bad.frag) {
			t.Errorf("ParseFleet(%q) = %v, want error containing %q", bad.spec, err, bad.frag)
		}
	}

	// want < 0 skips the size check.
	if _, err := ParseFleet("fpga:3", -1); err != nil {
		t.Errorf("unsized parse: %v", err)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	// Fleet must cover regular + spare accelerators.
	_, err := New(Config{ComputeNodes: 1, Accelerators: 2, SpareAccelerators: 1,
		Fleet: "fpga:1"})
	if err == nil || !strings.Contains(err.Error(), "cluster has 3") {
		t.Errorf("short Fleet: err = %v, want a size mismatch", err)
	}

	// A correctly sized fleet builds.
	if _, err := New(Config{ComputeNodes: 1, Accelerators: 2, SpareAccelerators: 1,
		Fleet: "tesla-c1060:2,fpga:1"}); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
}
