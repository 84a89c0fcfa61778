package conformance

import (
	"testing"

	"dynacc/internal/cluster"
)

// TestMain makes a cluster run that ends with records out fail its Run, but
// for the residue ROADMAP item 2 names (see cluster.AllowResidue).
func TestMain(m *testing.M) {
	cluster.RecordsCheck = cluster.AllowResidue
	m.Run()
}
