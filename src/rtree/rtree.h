// The NSI R-tree (Sect. 3.2): a paged Guttman R-tree over space-time whose
// leaves store exact motion segments, with the update-management hooks the
// dynamic-query algorithms of Sect. 4 rely on. Durability lives above it:
// DurableIndex (server/durability.h) logs, syncs and replays every insert,
// and the tree only carries the applied LSN in its meta page.
#ifndef DQMO_RTREE_RTREE_H_
#define DQMO_RTREE_RTREE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "geom/box.h"
#include "motion/motion_segment.h"
#include "rtree/fault_policy.h"
#include "rtree/node.h"
#include "rtree/node_cache.h"
#include "rtree/node_soa.h"
#include "rtree/split.h"
#include "rtree/stats.h"
#include "storage/page_file.h"

namespace dqmo {

/// Receives notifications about concurrent index mutations so that running
/// dynamic queries stay complete (Sect. 4.1 "Update Management").
class UpdateListener {
 public:
  virtual ~UpdateListener() = default;

  /// A new motion segment was inserted without creating any new node.
  virtual void OnObjectInserted(const MotionSegment& m) = 0;

  /// An insertion caused one or more splits; `subtree` is the entry of the
  /// topmost newly created node (the single entry covering every new node
  /// and the inserted data, thanks to same-path splitting). `level` is that
  /// node's level (0 = leaf).
  virtual void OnSubtreeCreated(const ChildEntry& subtree, int level) = 0;

  /// The root itself split; the tree grew by one level. Queries should
  /// rebuild their state from the new root.
  virtual void OnRootSplit(PageId new_root) = 0;
};

/// Paged R-tree over (space x time) storing motion segments.
///
/// Page 0 of the backing PageFile holds tree metadata; every other page is
/// one node. All reads go through a PageReader (the PageFile itself, or a
/// BufferPool), and every physical node read is charged to the QueryStats
/// passed by the caller — the paper's disk-access metric.
class RTree {
 public:
  struct Options {
    int dims = 2;              // Spatial dimensionality.
    double fill_factor = 0.5;  // Minimum node fill on split (paper: 0.5).
    /// Node split algorithm; the paper's experiments use Guttman's
    /// quadratic split, the R*-style split is the bench/abl_split_policy
    /// alternative.
    SplitPolicy split_policy = SplitPolicy::kQuadratic;
  };

  /// Creates a fresh tree (meta page + empty root leaf) in `file`, which
  /// must be empty. The tree does not own the file.
  static Result<std::unique_ptr<RTree>> Create(PageStore* file,
                                               const Options& options);

  /// Opens a tree previously persisted in `file` (via Flush + SaveTo).
  static Result<std::unique_ptr<RTree>> Open(PageStore* file);

  /// Re-reads the meta page from the (already re-loaded) backing file into
  /// *this* object, in place. This is the repair path: the scrubber reloads
  /// a quarantined shard's page store from its checkpoint image and then
  /// Reopen()s the tree so every pointer the router captured at session
  /// build (tree, reader, gate) stays valid. Must be called with the
  /// shard's exclusive gate held — no traversal may be in flight. The
  /// update stamp is forced strictly past both the in-memory and persisted
  /// stamps so stamp-keyed caches (the router's RootBounds, NPDQ discard
  /// prune) can never mistake post-repair state for pre-repair state.
  Status Reopen();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  int dims() const { return options_.dims; }
  PageId root() const { return root_; }
  /// Number of levels; 1 = the root is a leaf. (The paper's setup yields
  /// height 3 over ~0.5M segments.)
  int height() const { return height_; }
  uint64_t num_segments() const { return num_segments_; }
  size_t num_nodes() const { return num_nodes_; }
  /// Current update timestamp (bumped once per Insert).
  UpdateStamp stamp() const { return stamp_; }
  double fill_factor() const { return options_.fill_factor; }
  /// Maximum speed (length units / time unit) over all stored motion
  /// segments; used by the moving-kNN fence (query/knn.h).
  double max_speed() const { return max_speed_; }

  /// Inserts one motion segment. The stored form is float32-quantized (see
  /// rtree/layout.h); use QuantizeStored() to predict the stored geometry.
  /// Fires exactly one UpdateListener notification per call.
  Status Insert(const MotionSegment& m);

  /// Removes the motion segment identified by `m`'s key (object id + start
  /// time); `m`'s geometry guides the descent, so pass the stored segment
  /// (e.g. a query result, or the original update — geometry is quantized
  /// internally). Underfull nodes are condensed Guttman-style: their
  /// remaining segments are collected and reinserted, and the root is
  /// collapsed when it degenerates to a single child. Freed pages are
  /// recycled by subsequent inserts. Returns NotFound if no such segment
  /// exists. Dynamic queries running concurrently may still deliver a
  /// motion removed after they started — removal is not retroactive.
  Status Remove(const MotionSegment& m);

  /// Traversal options shared by the search entry points.
  struct SearchOptions {
    /// Reads go through this reader when set (BufferPool / fault wrappers),
    /// else the backing file.
    PageReader* reader = nullptr;
    /// What to do when a node cannot be read (rtree/fault_policy.h).
    FaultPolicy fault_policy = FaultPolicy::kFailFast;
    /// Receives the skipped subtrees under kSkipSubtree (may be null; the
    /// count still lands in QueryStats::pages_skipped).
    SkipReport* skip_report = nullptr;
  };

  /// Snapshot range query (Definition 3): all motion segments whose exact
  /// space-time line intersects `q`. This is the paper's "naive" building
  /// block: a standard R-tree range search with the exact leaf segment test
  /// of Sect. 3.2. Reads via `reader` if given, else the backing file.
  Result<std::vector<MotionSegment>> RangeSearch(
      const StBox& q, QueryStats* stats, PageReader* reader = nullptr) const;

  /// RangeSearch with full traversal options (degraded-result support).
  /// Under FaultPolicy::kSkipSubtree the returned set is a subset of the
  /// fault-free answer; consult opts.skip_report (or stats->pages_skipped)
  /// for whether anything was lost.
  Result<std::vector<MotionSegment>> RangeSearch(
      const StBox& q, QueryStats* stats, const SearchOptions& opts) const;

  /// Ablation variant (Sect. 3.2 optimization *disabled*): leaf entries are
  /// accepted whenever their bounding boxes intersect `q`, as if the leaves
  /// stored BBs instead of segment endpoints. May return false admissions.
  Result<std::vector<MotionSegment>> RangeSearchBbOnly(
      const StBox& q, QueryStats* stats, PageReader* reader = nullptr) const;

  /// Loads and deserializes node `id` through `reader` (or the backing
  /// file), charging `stats` if the read was physical.
  Result<Node> LoadNode(PageId id, QueryStats* stats,
                        PageReader* reader = nullptr) const;

  /// LoadNode with degraded-result handling: under kSkipSubtree a read
  /// failure (IOError / Corruption / truncated node) is absorbed — the skip
  /// is recorded in `report` (if non-null) and stats->pages_skipped, and
  /// std::nullopt is returned so the caller prunes the subtree.
  /// `entry_bounds` is the parent entry's box (empty when unknown, e.g. the
  /// root). Malformed *requests* (OutOfRange ids) and kFailFast errors
  /// propagate unchanged.
  Result<std::optional<Node>> LoadNodeOrSkip(PageId id,
                                             const StBox& entry_bounds,
                                             FaultPolicy policy,
                                             SkipReport* report,
                                             QueryStats* stats,
                                             PageReader* reader) const;

  /// Zero-copy variant of LoadNode: returns the decoded SoA form of node
  /// `id`. When a decoded-node cache is attached, a cache hit skips the
  /// page store entirely (charged to stats->decoded_hits, not node_reads);
  /// a miss reads through `reader` (or the backing file), decodes once, and
  /// populates the cache. The returned node is immutable and pinned by the
  /// shared_ptr — safe across concurrent eviction and invalidation.
  Result<std::shared_ptr<const SoaNode>> LoadNodeSoa(
      PageId id, QueryStats* stats, PageReader* reader = nullptr) const;

  /// LoadNodeSoa with the degraded-result handling of LoadNodeOrSkip:
  /// under kSkipSubtree an unreadable node yields nullptr (skip recorded in
  /// `report` / stats->pages_skipped) so the caller prunes the subtree.
  Result<std::shared_ptr<const SoaNode>> LoadNodeSoaOrSkip(
      PageId id, const StBox& entry_bounds, FaultPolicy policy,
      SkipReport* report, QueryStats* stats, PageReader* reader) const;

  /// Decoded-node cache hook (not owned; pass nullptr to detach). Every
  /// page write or free invalidates the attached cache's entry, so cached
  /// decodes never go stale; see rtree/node_cache.h for the full protocol.
  void AttachNodeCache(DecodedNodeCache* cache) { node_cache_ = cache; }
  DecodedNodeCache* node_cache() const { return node_cache_; }

  /// Bounding rectangle of the entire tree (loads the root; uncharged).
  Result<StBox> RootBounds() const;

  /// Writes the metadata page. Call before PageFile::SaveTo.
  Status Flush();

  /// Highest WAL LSN whose insert this tree contains; persisted in the
  /// meta page by Flush so a checkpoint image can tell recovery which log
  /// records it already holds. 0 = none (fresh tree or pre-WAL image).
  /// DurableIndex sets it after each logged or redone insert.
  uint64_t applied_lsn() const { return applied_lsn_; }
  void set_applied_lsn(uint64_t lsn) { applied_lsn_ = lsn; }

  /// Registers a listener for concurrent-update notifications. The caller
  /// keeps ownership and must RemoveListener before destroying it.
  /// Add/Remove are safe to call from concurrent query sessions (an
  /// internal mutex guards the registry); the notifications themselves fire
  /// from Insert, which the concurrent engine runs under the exclusive side
  /// of the TreeGate (server/executor.h), so a listener is never notified
  /// while its owning session is mid-frame.
  void AddListener(UpdateListener* listener);
  void RemoveListener(UpdateListener* listener);

  /// Validates structural invariants (entry containment, fill, levels,
  /// stamps monotone vs tree stamp); used by tests. Expensive: full scan.
  /// `check_min_fill` should be false for bulk-loaded trees, whose trailing
  /// tiles may legally be underfull.
  Status CheckInvariants(bool check_min_fill = true) const;

  /// Internal-node and leaf capacities for this tree's dimensionality.
  int internal_capacity() const { return InternalCapacity(options_.dims); }
  int leaf_capacity() const { return LeafCapacity(options_.dims); }

 private:
  friend Result<std::unique_ptr<RTree>> BulkLoad(
      PageStore* file, std::vector<MotionSegment> segments,
      const struct BulkLoadOptions& options);

  RTree(PageStore* file, Options options)
      : file_(file), options_(options) {}

  struct InsertOutcome {
    ChildEntry updated_entry;                // New geometry of visited node.
    std::optional<ChildEntry> new_sibling;   // Set when the node split.
  };

  Result<InsertOutcome> InsertInto(PageId pid, int node_level,
                                   const MotionSegment& m);

  struct RemoveOutcome {
    bool removed = false;        // Target found beneath this node.
    bool node_dissolved = false; // Node went underfull and was freed.
    ChildEntry updated_entry;    // Valid when !node_dissolved.
  };

  Result<RemoveOutcome> RemoveFrom(PageId pid, int node_level,
                                   const MotionSegment::Key& key,
                                   const StBox& guide,
                                   std::vector<MotionSegment>* orphans);

  /// Collects every motion segment stored beneath `pid`, freeing all pages
  /// of the subtree (used when an internal node underflows).
  Status DissolveSubtree(PageId pid, std::vector<MotionSegment>* orphans);

  PageId AllocatePage();
  void FreePage(PageId id);
  int MinFill(bool leaf) const;

  Result<Node> LoadForWrite(PageId pid) const;
  Status StoreNode(Node* node) const;

  Status WriteMeta();
  static Result<Options> ReadMeta(PageStore* file, PageId* root, int* height,
                                  uint64_t* num_segments, size_t* num_nodes,
                                  UpdateStamp* stamp);

  // Split `node` (which overflows by one entry); the entry at
  // `forced_index` is placed in the new node. Returns the new node's entry.
  Result<ChildEntry> SplitNode(Node* node, int forced_index);

  // State for listener notification of the current Insert.
  struct PendingNotice {
    bool any_split = false;
    bool root_split = false;
    ChildEntry topmost;
    int topmost_level = 0;
  };

  PageStore* file_;
  Options options_;
  PageId meta_page_ = 0;
  PageId root_ = kInvalidPageId;
  int height_ = 1;
  uint64_t num_segments_ = 0;
  size_t num_nodes_ = 0;
  UpdateStamp stamp_ = 0;
  double max_speed_ = 0.0;
  DecodedNodeCache* node_cache_ = nullptr;  // See AttachNodeCache.
  uint64_t applied_lsn_ = 0;
  PendingNotice pending_;
  /// Guards listeners_: sessions running under the shared side of the
  /// TreeGate register/unregister their PDQs concurrently.
  mutable std::mutex listeners_mu_;
  std::vector<UpdateListener*> listeners_;
  std::vector<PageId> free_pages_;  // Recycled by AllocatePage().
};

}  // namespace dqmo

#endif  // DQMO_RTREE_RTREE_H_
