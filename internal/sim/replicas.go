package sim

// Replica runners: n seed-varied runs of one configuration. The service
// layer's replica loop used to build and validate one Config per replica;
// these runners take the prototype once, validate it once, and drive one
// pooled simulator per worker through the reset path, so a warm replica
// costs no allocations beyond its output record.

import (
	"context"
	"fmt"

	"memstream/internal/parallel"
)

// reseedConfig applies the replica convention to a configuration: every
// stochastic input — the run's own RNG, the demand pattern and the
// best-effort process — takes the replica seed. Simulator.Reset and
// RunReplicas share it, so the two paths cannot drift apart.
func reseedConfig(cfg Config, seed uint64) Config {
	cfg.Seed = seed
	cfg.Spec.Seed = seed
	cfg.BestEffort.Seed = seed
	return cfg
}

// reseedMultiConfig applies the multi-stream replica convention: stream j
// draws from seed ^ ((j+1) · golden ratio) so concurrent streams never share
// a random sequence, and the best-effort process takes the replica seed
// itself. It seeds cfg.Streams in place — the caller must own the slice.
func reseedMultiConfig(cfg MultiConfig, seed uint64) MultiConfig {
	cfg.Seed = seed
	for j := range cfg.Streams {
		cfg.Streams[j].Spec.Seed = seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)
	}
	cfg.BestEffort.Seed = seed
	return cfg
}

// RunReplicas runs replicas seed-varied copies of one configuration on a
// bounded worker pool: replica i takes seed+i applied to every stochastic
// input, exactly as Simulator.Reset does, and the statistics come back in
// replica order, bit-identical to sequential fresh runs at any worker count.
// The configuration is validated once; each worker builds one simulator and
// rewinds it per replica, so a warm replica allocates only its returned
// Stats. workers follows the RunBatch convention (zero means one worker per
// CPU).
func RunReplicas(ctx context.Context, workers int, cfg Config, seed uint64, replicas int) ([]*Stats, error) {
	if replicas <= 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := make([]*Simulator, parallel.EffectiveWorkers(workers, replicas))
	return parallel.MapWorkers(ctx, workers, replicas, func(_ context.Context, worker, i int) (*Stats, error) {
		replicaSeed := seed + uint64(i)
		s := slots[worker]
		if s == nil {
			var err error
			s, err = newValidated(reseedConfig(cfg, replicaSeed))
			if err != nil {
				return nil, fmt.Errorf("sim: replica %d: %w", i, err)
			}
			slots[worker] = s
		} else if err := s.Reset(replicaSeed); err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", i, err)
		}
		stats, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", i, err)
		}
		// Run returns the core's own statistics record, which the next
		// reset wipes; hand each replica its own copy.
		out := *stats
		return &out, nil
	})
}

// RunMultiReplicas is RunReplicas for shared-device configurations: replica
// i takes seed+i applied through the multi-stream convention (stream j draws
// from seed+i ^ ((j+1) · golden ratio)), exactly as MultiSimulator.Reset
// does. The caller's stream slice is never touched.
func RunMultiReplicas(ctx context.Context, workers int, cfg MultiConfig, seed uint64, replicas int) ([]*MultiStats, error) {
	if replicas <= 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := make([]*MultiSimulator, parallel.EffectiveWorkers(workers, replicas))
	return parallel.MapWorkers(ctx, workers, replicas, func(_ context.Context, worker, i int) (*MultiStats, error) {
		replicaSeed := seed + uint64(i)
		s := slots[worker]
		if s == nil {
			// Reseeding writes through the Streams slice, so the first build
			// works on its own copy rather than the shared prototype.
			first := cfg
			first.Streams = append([]MultiStream(nil), cfg.Streams...)
			var err error
			s, err = newMultiValidated(reseedMultiConfig(first, replicaSeed))
			if err != nil {
				return nil, fmt.Errorf("sim: replica %d: %w", i, err)
			}
			slots[worker] = s
		} else if err := s.Reset(replicaSeed); err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", i, err)
		}
		// Run builds a fresh MultiStats per invocation, so no copy is needed
		// before the next reset reuses the core.
		stats, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", i, err)
		}
		return stats, nil
	})
}
