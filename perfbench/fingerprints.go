package main

// Output fingerprints of the quick-scale study, recorded from the program
// as it stood when this benchmark was defined. A run whose outputs hash
// differently counts every affected pass as failed. A change that moves
// simulated results on purpose must re-pin these values (a benchmark
// change, made on its own).
const (
	// pinnedFig3 hashes the Figure 3 constrained and unconstrained picks
	// of all fifteen benchmarks.
	pinnedFig3 = "7837dbf8e3bf8b36"
	// pinnedPolicy hashes all ninety (benchmark, policy) shoot-out points;
	// the replay path (sweep) and the generator path (bypass) must both
	// produce it.
	pinnedPolicy = "4c6b0df961b8c0f7"
)
