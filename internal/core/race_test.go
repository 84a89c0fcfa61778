//go:build race

package core

// The race detector runs the seeded shadow search some ten times slower, and
// CI runs this package under it twenty times over: there a tenth of the
// sequences still drive every path the detector watches.
func init() { shadowSequences /= 10 }
