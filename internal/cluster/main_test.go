package cluster

import "testing"

// TestMain makes a run that ends with records out fail its Run, but for the
// residue ROADMAP item 2 names (see AllowResidue).
func TestMain(m *testing.M) {
	RecordsCheck = AllowResidue
	m.Run()
}
