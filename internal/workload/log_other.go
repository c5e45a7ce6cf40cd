//go:build !amd64

package workload

import "math"

// logs replaces every element of x by its natural logarithm, math.Log's
// result exactly. amd64 has a two-lane kernel with the same bits
// (log_amd64.s); elsewhere this loop is the definition.
func logs(x *[2 * beBlock]float64) {
	for i, v := range x {
		x[i] = math.Log(v)
	}
}
