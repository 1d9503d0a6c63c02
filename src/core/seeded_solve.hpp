// Facade over the seeded mode of the Delta-stepping engine, for layers
// that may not drive DeltaEngine directly (analyzer check A3: src/update/
// reaches the engines only through the solver/session facades).
//
// A seeded solve is a Delta-stepping sweep that starts from caller-provided
// tentative state instead of the root: `dist`/`parent` arrive fully
// populated, `settled_init` marks the vertices whose entries are trusted
// upper bounds, and `seeds` injects the relaxations the update batch made
// newly possible. The engine unsettles any preset vertex a better distance
// reaches (strict-<), so the sweep converges to the exact SSSP of the
// *current* logical graph — the repair engine's correctness bar
// (docs/DYNAMIC.md).
#pragma once

#include <vector>

#include "core/delta_engine.hpp"  // IWYU pragma: export (RelaxMsg is part of the job API)
#include "core/instrumentation.hpp"
#include "core/options.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/partition.hpp"

namespace parsssp {

/// Inputs of one seeded sweep. All pointers must outlive the call; `dist`,
/// `parent` (optional) and `changed` (optional) are updated in place.
struct SeededSolveJob {
  /// Base CSR (used for sizing and as the estimator's fallback weight
  /// bound). The arc data the sweep relaxes comes from `views`, which may
  /// describe a patched logical graph the CSR does not.
  const CsrGraph* graph = nullptr;
  BlockPartition part;
  const std::vector<LocalEdgeView>* views = nullptr;
  std::vector<dist_t>* dist = nullptr;
  std::vector<vid_t>* parent = nullptr;  ///< null disables tracking
  vid_t root = 0;
  /// Global preset-settled flags, size num_vertices.
  const std::vector<char>* settled_init = nullptr;
  /// Seed relaxations, applied at init by each target's owner.
  const std::vector<RelaxMsg>* seeds = nullptr;
  /// Optional change flags (size num_vertices), set on every dist write.
  std::vector<char>* changed = nullptr;
  /// Monotone upper bound on the logical graph's max weight (0 = graph's).
  weight_t max_weight = 0;
  std::vector<RankCounters>* rank_counters = nullptr;
  SsspStats* stats = nullptr;
};

/// Runs the seeded sweep collectively on `session`. Blocks until done.
void run_seeded_solve(MachineSession& session, const SeededSolveJob& job,
                      const SsspOptions& options);

}  // namespace parsssp
