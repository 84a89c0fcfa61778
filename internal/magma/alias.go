package magma

import "dynacc/internal/accel"

// The hybrid routines are written against the shared accelerator
// abstraction; these aliases keep magma call sites self-contained.

// Device is the GPU surface the hybrid algorithms need.
type Device = accel.Device

// Pending is an in-flight asynchronous device operation.
type Pending = accel.Pending

// Remote wraps a middleware accelerator handle (see accel.Remote).
var Remote = accel.Remote
