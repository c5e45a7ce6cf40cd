package workload

// logs replaces every element of x by its natural logarithm, bit for bit
// what math.Log returns, two elements per SSE2 step (see log_amd64.s). Its
// domain is the positive finite numbers; the best-effort sampler feeds it
// 1-u in [2^-53, 1].
//
//go:noescape
func logs(x *[2 * beBlock]float64)
