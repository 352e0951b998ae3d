package graph

import "sync"

// processKernels is the process-wide sum of the tallies of finished
// RADS machine runs, the source of rads_kernel_selections_total. A run
// touches it once, when it ends — never per intersection.
var processKernels struct {
	sync.Mutex
	KernelTally
}

// AddToProcessTotals adds a finished run's tally to the process totals.
func (t KernelTally) AddToProcessTotals() {
	processKernels.Lock()
	processKernels.Add(t)
	processKernels.Unlock()
}

// KernelCounts returns the process totals by kernel label ("merge_u32",
// "gallop_u32", "kway_u32", "probe_u32"). The map is freshly allocated.
func KernelCounts() map[string]int64 {
	processKernels.Lock()
	defer processKernels.Unlock()
	return processKernels.Map()
}

// KernelCountsDelta subtracts an earlier KernelCounts sample from the
// current totals, dropping zero entries; nil when nothing ran. Runs in
// flight contribute nothing until they end. Kept for the benchmark
// module, which samples the totals around its traced passes.
func KernelCountsDelta(before map[string]int64) map[string]int64 {
	var out map[string]int64
	for k, v := range KernelCounts() {
		if d := v - before[k]; d > 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[k] = d
		}
	}
	return out
}

// SetKernelCounting does nothing: selections are always counted, in the
// tally of whoever runs them. Kept because the benchmark module calls
// it.
func SetKernelCounting(bool) {}
