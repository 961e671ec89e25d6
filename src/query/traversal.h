// The read contract every query engine shares. The paper's query processors
// (PDQ, Sect. 4.1; NPDQ, Sect. 4.2; SPDQ; moving kNN; the PDQ <-> NPDQ
// hand-off session) differ only in what they prune. They all read NSI
// R-tree nodes the same way, decoded to SoA form through the decoded-node
// cache: through one page reader, under one fault policy, charged to one
// budget, with their declared future hinted to one prefetcher.
// TraversalOptions names those four settings once; every engine's options
// struct inherits it and adds only its own algorithm settings. NodeVisitor
// is the one node-visit step that applies them.
#ifndef DQMO_QUERY_TRAVERSAL_H_
#define DQMO_QUERY_TRAVERSAL_H_

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "common/result.h"
#include "geom/box.h"
#include "query/budget.h"
#include "rtree/fault_policy.h"
#include "rtree/node_soa.h"
#include "rtree/rtree.h"
#include "rtree/stats.h"

namespace dqmo {

class Prefetcher;

/// How a query traversal reads R-tree nodes.
struct TraversalOptions {
  /// Page source for node reads; nullptr reads the tree's backing file.
  PageReader* reader = nullptr;
  /// Reaction to unreadable nodes (rtree/fault_policy.h). Under
  /// kSkipSubtree an unreadable subtree is skipped and recorded in the
  /// engine's SkipReport, and the answer is flagged kPartial.
  FaultPolicy fault_policy = FaultPolicy::kFailFast;
  /// Per-frame work budget + cancellation (query/budget.h); not owned, may
  /// be null (unbudgeted: the bit-identical default). One charge per node
  /// visit; a refused charge skips the node, records it in the SkipReport,
  /// and the answer finishes degraded (kPartial) with what was found.
  QueryBudget* budget = nullptr;
  /// Speculative read driver (storage/prefetch.h); not owned, may be null
  /// (no speculation: the bit-identical default). Each engine hints its
  /// declared future: the PDQ and kNN heaps their front region, NPDQ its
  /// recursion frontier. Results and node-level counters are unchanged;
  /// only prefetch_* IoStats move. A stopped or cancelled budget issues no
  /// more speculation.
  Prefetcher* prefetcher = nullptr;
};

/// Best-first queue with a read-only window onto its backing array: raw()[0]
/// is the top, and the heap-property prefix around it holds the most
/// imminent entries, which are the pages worth speculating on. The heap
/// invariant is never touched.
template <typename Entry, typename Compare>
struct PeekHeap : std::priority_queue<Entry, std::vector<Entry>, Compare> {
  const std::vector<Entry>& raw() const { return this->c; }
};

/// One traversal's node reads under its TraversalOptions: charge the
/// budget, record the skip, load the node or skip it, hint the prefetcher.
/// Nothing is owned; the tree, options and stats must outlive the visitor.
/// `skips` may be null (the count still lands in stats->pages_skipped).
class NodeVisitor {
 public:
  NodeVisitor(const RTree* tree, const TraversalOptions* options,
              SkipReport* skips, QueryStats* stats)
      : tree_(tree), options_(options), skips_(skips), stats_(stats) {}

  // Holds pointers into its owner; a copy would alias the original's state.
  NodeVisitor(const NodeVisitor&) = delete;
  NodeVisitor& operator=(const NodeVisitor&) = delete;

  // The per-node steps are inline: they run on every node visit.

  /// Charges one node visit to the budget. False when the frame is out of
  /// budget (or cancelled): the subtree is recorded as skipped with the
  /// stop cause and must not be read.
  bool Charge(PageId page, const StBox& bounds) {
    QueryBudget* budget = options_->budget;
    if (budget == nullptr || budget->TryChargeNode()) return true;
    if (skips_ != nullptr) {
      skips_->RecordSkip(page, bounds, budget->StopStatus());
    }
    stats_->pages_skipped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Reads node `page` in SoA form (through the decoded-node cache) under
  /// the fault policy. nullptr: kSkipSubtree absorbed a read fault and
  /// recorded the skip; the caller prunes the subtree.
  Result<std::shared_ptr<const SoaNode>> Load(PageId page,
                                              const StBox& bounds) {
    return tree_->LoadNodeSoaOrSkip(page, bounds, options_->fault_policy,
                                    skips_, stats_, options_->reader);
  }

  /// Issues `pages` (most imminent first) to the prefetcher, each
  /// speculative read charged to the budget. No-op without a prefetcher.
  void Hint(const std::vector<PageId>& pages);

  /// Hints the node pages in the front region of a best-first heap whose
  /// entries carry `is_object` and `page`. Called after a node pop, before
  /// its exploration, so speculative reads overlap the node's CPU work.
  template <typename Entry, typename Compare>
  void HintHeapFront(const PeekHeap<Entry, Compare>& heap) {
    if (options_->prefetcher == nullptr || heap.empty()) return;
    const size_t depth = HintDepth();
    if (depth == 0) return;
    // The heap array's prefix is not sorted, but the heap property keeps
    // the most-imminent entries clustered at the front (every slot orders
    // after its parent), so scanning ~2*depth slots covers the next pops
    // with high probability at O(depth) cost: no heap mutation, no sort.
    const std::vector<Entry>& raw = heap.raw();
    const size_t window = std::min(raw.size(), 2 * depth + 4);
    hint_scratch_.clear();
    for (size_t i = 0; i < window; ++i) {
      if (raw[i].is_object) continue;
      hint_scratch_.push_back(raw[i].page);
      if (hint_scratch_.size() >= depth) break;
    }
    Hint(hint_scratch_);
  }

 private:
  /// The prefetcher's depth bound (the prefetcher is set).
  size_t HintDepth() const;

  const RTree* tree_;
  const TraversalOptions* options_;
  SkipReport* skips_;
  QueryStats* stats_;
  // Page ids collected by HintHeapFront, reused across calls.
  std::vector<PageId> hint_scratch_;
};

}  // namespace dqmo

#endif  // DQMO_QUERY_TRAVERSAL_H_
