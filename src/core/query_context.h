#ifndef RSMI_CORE_QUERY_CONTEXT_H_
#define RSMI_CORE_QUERY_CONTEXT_H_

#include <cstdint>

namespace rsmi {

/// Per-call accumulator for everything a single query touches: block
/// accesses (the paper's external-memory cost metric), sub-model
/// invocations and descents (the learned indices' "average depth",
/// Section 6.2.2), and directory/tree node pages visited.
///
/// A QueryContext is owned by exactly one in-flight query, so recording
/// into it needs no synchronization — this is what makes every read path
/// in the repository safe to run from many threads at once: queries write
/// their costs here instead of into shared `mutable` counters. It is the
/// only place a cost is ever recorded; callers that want a total over
/// many queries fold the contexts with MergeFrom.
struct QueryContext {
  /// Counted data-block reads plus charged node/buffer pages.
  uint64_t block_accesses = 0;
  /// MLP sub-models invoked while descending learned indices.
  uint64_t model_invocations = 0;
  /// Root-to-leaf descents completed (model_invocations / descents is the
  /// paper's "average depth").
  uint64_t descents = 0;
  /// Directory / tree node pages visited (traditional indices and the
  /// RSMIa exact traversals).
  uint64_t nodes_visited = 0;

  /// Records `n` block accesses happening outside BlockStore::Access
  /// (tree nodes, directory pages, leaf insert buffers, B+-tree levels).
  void CountBlockAccess(uint64_t n = 1) { block_accesses += n; }

  /// Records the read of one directory/tree node page: one block access
  /// plus one visited node.
  void CountNodePage() {
    ++block_accesses;
    ++nodes_visited;
  }

  /// Folds another context into this one — the single way contexts are
  /// ever combined (batch engines folding worker contexts, fan-out
  /// queries merging per-shard costs, tests summing replays). Keep every
  /// field here so a new counter cannot be dropped by an ad-hoc copy at
  /// one of the merge sites.
  void MergeFrom(const QueryContext& other) {
    block_accesses += other.block_accesses;
    model_invocations += other.model_invocations;
    descents += other.descents;
    nodes_visited += other.nodes_visited;
  }
};

}  // namespace rsmi

#endif  // RSMI_CORE_QUERY_CONTEXT_H_
