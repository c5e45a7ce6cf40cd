package sim

import (
	"context"
	"fmt"

	"memstream/internal/parallel"
)

// RunBatch runs every configuration as an independent simulation on a
// bounded worker pool and returns the statistics in input order. The batch
// output is bit-identical to running the configurations sequentially through
// RunConfig, at any worker count. Seed-varied copies of one configuration
// are RunReplicas' job, which validates once and reuses one simulator per
// worker.
//
// workers bounds the pool: zero means one worker per CPU, one forces the
// sequential path. The first failing configuration (lowest index) aborts the
// batch, and the returned error names it.
func RunBatch(ctx context.Context, workers int, cfgs []Config) ([]*Stats, error) {
	return parallel.Map(ctx, workers, len(cfgs), func(_ context.Context, i int) (*Stats, error) {
		stats, err := RunConfig(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: batch config %d: %w", i, err)
		}
		return stats, nil
	})
}
