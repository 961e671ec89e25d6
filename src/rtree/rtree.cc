#include "rtree/rtree.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "rtree/split.h"

namespace dqmo {
namespace {

/// The registry side of NodeAccounting (rtree/stats.h): every load charges
/// `loads` plus exactly one of {decoded, physical, pooled}, always from the
/// same callsite, so the sum invariant holds at any quiescent point.
struct NodeLoadMetrics {
  Counter* loads;
  Counter* decoded;
  Counter* physical;
  Counter* pooled;

  static NodeLoadMetrics& Get() {
    static NodeLoadMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return NodeLoadMetrics{
          r.GetCounter("dqmo_rtree_node_loads_total",
                       "R-tree node loads requested by queries"),
          r.GetCounter("dqmo_rtree_decoded_hits_total",
                       "Node loads served by the decoded-node cache"),
          r.GetCounter("dqmo_rtree_reads_physical_total",
                       "Node loads that hit the physical page store"),
          r.GetCounter("dqmo_rtree_reads_pooled_total",
                       "Node loads served from a buffer-pool frame"),
      };
    }();
    return m;
  }
};

/// The one skippability rule behind LoadNodeOrSkip and LoadNodeSoaOrSkip:
/// under kSkipSubtree a read failure is recorded and absorbed (OK: the
/// caller prunes the subtree). Only *read* failures are skippable; a
/// malformed request (OutOfRange id) indicates a caller bug and propagates
/// under either policy.
Status AbsorbReadFault(const Status& s, PageId id, const StBox& entry_bounds,
                       FaultPolicy policy, SkipReport* report,
                       QueryStats* stats) {
  const bool skippable = s.IsIOError() || s.IsCorruption();
  if (policy != FaultPolicy::kSkipSubtree || !skippable) return s;
  if (report != nullptr) report->RecordSkip(id, entry_bounds, s);
  if (stats != nullptr) {
    stats->pages_skipped.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

constexpr uint64_t kTreeMagic = 0x4451'4d4f'5254'5231ULL;  // "DQMORTR1"
constexpr uint32_t kTreeVersion = 2;

struct MetaPage {
  uint64_t magic;
  uint32_t version;
  uint32_t dims;
  PageId root;
  uint32_t height;
  uint64_t num_segments;
  uint64_t num_nodes;
  uint64_t stamp;
  double fill_factor;
  double max_speed;
  uint32_t split_policy;
  uint32_t reserved;
  /// Highest WAL LSN whose insert this image contains (0: none / pre-WAL
  /// image). Appended within the zeroed meta page, so version 2 files
  /// written before durability existed read back as wal_lsn = 0 — "replay
  /// everything" — which is exactly right for them.
  uint64_t wal_lsn;
};

}  // namespace

std::string QueryStats::ToString() const {
  return StrFormat(
      "stats{reads=%llu (leaf %llu), dist=%llu, results=%llu, "
      "pushes=%llu, pops=%llu, dups=%llu, discarded=%llu, skipped=%llu, "
      "decoded=%llu}",
      static_cast<unsigned long long>(node_reads),
      static_cast<unsigned long long>(leaf_reads),
      static_cast<unsigned long long>(distance_computations),
      static_cast<unsigned long long>(objects_returned),
      static_cast<unsigned long long>(queue_pushes),
      static_cast<unsigned long long>(queue_pops),
      static_cast<unsigned long long>(duplicates_skipped),
      static_cast<unsigned long long>(nodes_discarded),
      static_cast<unsigned long long>(pages_skipped),
      static_cast<unsigned long long>(decoded_hits));
}

std::string NodeAccounting::ToString() const {
  return StrFormat(
      "node_accounting{loads=%llu, decoded=%llu, physical=%llu, pooled=%llu}",
      static_cast<unsigned long long>(loads),
      static_cast<unsigned long long>(decoded_hits),
      static_cast<unsigned long long>(physical_reads),
      static_cast<unsigned long long>(pooled_reads));
}

NodeAccounting ReadNodeAccounting() {
  NodeLoadMetrics& nm = NodeLoadMetrics::Get();
  NodeAccounting a;
  a.loads = nm.loads->value();
  a.decoded_hits = nm.decoded->value();
  a.physical_reads = nm.physical->value();
  a.pooled_reads = nm.pooled->value();
  return a;
}

NodeAccounting CheckNodeAccounting() {
  const NodeAccounting a = ReadNodeAccounting();
  if (!a.Consistent()) {
    std::fprintf(stderr, "node-load accounting violated: %s\n",
                 a.ToString().c_str());
  }
  DQMO_CHECK(a.Consistent());
  return a;
}

Result<std::unique_ptr<RTree>> RTree::Create(PageStore* file,
                                             const Options& options) {
  if (file == nullptr) return Status::InvalidArgument("null page file");
  if (file->num_pages() != 0) {
    return Status::FailedPrecondition("Create requires an empty page file");
  }
  if (options.dims < 1 || options.dims > kMaxSpatialDims) {
    return Status::InvalidArgument(
        StrFormat("spatial dims %d out of range", options.dims));
  }
  if (options.fill_factor <= 0.0 || options.fill_factor > 0.5) {
    return Status::InvalidArgument(
        "fill factor must be in (0, 0.5] (minimum fill on split)");
  }
  auto tree = std::unique_ptr<RTree>(new RTree(file, options));
  tree->meta_page_ = file->Allocate();
  DQMO_CHECK(tree->meta_page_ == 0);
  // Empty root leaf.
  tree->root_ = file->Allocate();
  Node root;
  root.self = tree->root_;
  root.level = 0;
  root.dims = options.dims;
  root.stamp = 0;
  DQMO_RETURN_IF_ERROR(tree->StoreNode(&root));
  tree->height_ = 1;
  tree->num_nodes_ = 1;
  DQMO_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<RTree>> RTree::Open(PageStore* file) {
  if (file == nullptr) return Status::InvalidArgument("null page file");
  if (file->num_pages() == 0) {
    return Status::FailedPrecondition("page file is empty");
  }
  DQMO_ASSIGN_OR_RETURN(auto read, file->Read(0));
  MetaPage meta;
  std::memcpy(&meta, read.data, sizeof(meta));
  if (meta.magic != kTreeMagic) {
    return Status::Corruption("page 0 is not a DQMO R-tree meta page");
  }
  if (meta.version != kTreeVersion) {
    return Status::NotSupported(
        StrFormat("tree version %u unsupported", meta.version));
  }
  Options options;
  options.dims = static_cast<int>(meta.dims);
  options.fill_factor = meta.fill_factor;
  options.split_policy = static_cast<SplitPolicy>(meta.split_policy);
  auto tree = std::unique_ptr<RTree>(new RTree(file, options));
  tree->root_ = meta.root;
  tree->height_ = static_cast<int>(meta.height);
  tree->num_segments_ = meta.num_segments;
  tree->num_nodes_ = meta.num_nodes;
  tree->stamp_ = meta.stamp;
  tree->max_speed_ = meta.max_speed;
  tree->applied_lsn_ = meta.wal_lsn;
  return tree;
}

Status RTree::Reopen() {
  if (file_->num_pages() == 0) {
    return Status::FailedPrecondition("page file is empty");
  }
  DQMO_ASSIGN_OR_RETURN(auto read, file_->Read(0));
  MetaPage meta;
  std::memcpy(&meta, read.data, sizeof(meta));
  if (meta.magic != kTreeMagic) {
    return Status::Corruption("page 0 is not a DQMO R-tree meta page");
  }
  if (meta.version != kTreeVersion) {
    return Status::NotSupported(
        StrFormat("tree version %u unsupported", meta.version));
  }
  if (static_cast<int>(meta.dims) != options_.dims) {
    return Status::Corruption(
        StrFormat("reopened tree dims %u != live tree dims %d", meta.dims,
                  options_.dims));
  }
  root_ = meta.root;
  height_ = static_cast<int>(meta.height);
  num_segments_ = meta.num_segments;
  num_nodes_ = meta.num_nodes;
  max_speed_ = meta.max_speed;
  applied_lsn_ = meta.wal_lsn;
  // Strictly newer than every stamp any cache has seen from this tree, on
  // either side of the reload.
  stamp_ = std::max(stamp_, meta.stamp) + 1;
  pending_ = PendingNotice{};
  return Status::OK();
}

Status RTree::WriteMeta() {
  DQMO_ASSIGN_OR_RETURN(auto view, file_->WritableView(meta_page_));
  std::memset(view.data(), 0, view.size());
  MetaPage meta{};
  meta.magic = kTreeMagic;
  meta.version = kTreeVersion;
  meta.dims = static_cast<uint32_t>(options_.dims);
  meta.root = root_;
  meta.height = static_cast<uint32_t>(height_);
  meta.num_segments = num_segments_;
  meta.num_nodes = num_nodes_;
  meta.stamp = stamp_;
  meta.fill_factor = options_.fill_factor;
  meta.max_speed = max_speed_;
  meta.split_policy = static_cast<uint32_t>(options_.split_policy);
  meta.reserved = 0;
  meta.wal_lsn = applied_lsn_;
  view.Write(0, meta);
  return Status::OK();
}

Status RTree::Flush() { return WriteMeta(); }

Result<Node> RTree::LoadForWrite(PageId pid) const {
  DQMO_ASSIGN_OR_RETURN(auto read, file_->Read(pid));
  return Node::DeserializeFrom(read.data, pid);
}

Status RTree::StoreNode(Node* node) const {
  DQMO_ASSIGN_OR_RETURN(auto view, file_->WritableView(node->self));
  // The page is about to change: any cached decode of it is now stale.
  // Writers run either single-threaded or under the exclusive side of the
  // TreeGate, so no reader can observe the window between write and
  // invalidation.
  if (node_cache_ != nullptr) node_cache_->Invalidate(node->self);
  return node->SerializeTo(view);
}

Result<Node> RTree::LoadNode(PageId id, QueryStats* stats,
                             PageReader* reader) const {
  PageReader* src = reader != nullptr ? reader : file_;
  Tracer::SpanScope fetch_span(SpanKind::kNodeFetch, id);
  DQMO_ASSIGN_OR_RETURN(auto read, src->Read(id));
  NodeLoadMetrics& nm = NodeLoadMetrics::Get();
  nm.loads->Add();
  (read.physical ? nm.physical : nm.pooled)->Add();
  DQMO_ASSIGN_OR_RETURN(Node node, Node::DeserializeFrom(read.data, id));
  if (stats != nullptr && read.physical) {
    ++stats->node_reads;
    if (node.is_leaf()) ++stats->leaf_reads;
  }
  return node;
}

Result<std::optional<Node>> RTree::LoadNodeOrSkip(
    PageId id, const StBox& entry_bounds, FaultPolicy policy,
    SkipReport* report, QueryStats* stats, PageReader* reader) const {
  Result<Node> node = LoadNode(id, stats, reader);
  if (node.ok()) return std::optional<Node>(std::move(node).value());
  DQMO_RETURN_IF_ERROR(AbsorbReadFault(node.status(), id, entry_bounds,
                                       policy, report, stats));
  return std::optional<Node>(std::nullopt);
}

Result<std::shared_ptr<const SoaNode>> RTree::LoadNodeSoa(
    PageId id, QueryStats* stats, PageReader* reader) const {
  if (node_cache_ != nullptr) {
    std::shared_ptr<const SoaNode> cached = node_cache_->Lookup(id);
    if (cached != nullptr) {
      if (stats != nullptr) {
        stats->decoded_hits.fetch_add(1, std::memory_order_relaxed);
      }
      NodeLoadMetrics& nm = NodeLoadMetrics::Get();
      nm.loads->Add();
      nm.decoded->Add();
      return cached;
    }
  }
  PageReader* src = reader != nullptr ? reader : file_;
  Tracer::SpanScope fetch_span(SpanKind::kNodeFetch, id);
  DQMO_ASSIGN_OR_RETURN(auto read, src->Read(id));
  {
    NodeLoadMetrics& nm = NodeLoadMetrics::Get();
    nm.loads->Add();
    (read.physical ? nm.physical : nm.pooled)->Add();
  }
  auto node = std::make_shared<SoaNode>();
  {
    Tracer::SpanScope decode_span(SpanKind::kSoaDecode, id);
    DQMO_RETURN_IF_ERROR(node->DecodeFrom(read.data, id));
  }
  if (stats != nullptr && read.physical) {
    stats->node_reads.fetch_add(1, std::memory_order_relaxed);
    if (node->is_leaf()) {
      stats->leaf_reads.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::shared_ptr<const SoaNode> result = std::move(node);
  if (node_cache_ != nullptr) node_cache_->Insert(id, result);
  return result;
}

Result<std::shared_ptr<const SoaNode>> RTree::LoadNodeSoaOrSkip(
    PageId id, const StBox& entry_bounds, FaultPolicy policy,
    SkipReport* report, QueryStats* stats, PageReader* reader) const {
  Result<std::shared_ptr<const SoaNode>> node =
      LoadNodeSoa(id, stats, reader);
  if (node.ok()) return node;
  DQMO_RETURN_IF_ERROR(AbsorbReadFault(node.status(), id, entry_bounds,
                                       policy, report, stats));
  return std::shared_ptr<const SoaNode>(nullptr);
}

Result<StBox> RTree::RootBounds() const {
  DQMO_ASSIGN_OR_RETURN(Node root, LoadNode(root_, nullptr));
  return root.ComputeBounds();
}

void RTree::AddListener(UpdateListener* listener) {
  DQMO_CHECK(listener != nullptr);
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
}

void RTree::RemoveListener(UpdateListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

PageId RTree::AllocatePage() {
  if (!free_pages_.empty()) {
    const PageId id = free_pages_.back();
    free_pages_.pop_back();
    return id;
  }
  return file_->Allocate();
}

void RTree::FreePage(PageId id) {
  if (node_cache_ != nullptr) node_cache_->Invalidate(id);
  free_pages_.push_back(id);
}

int RTree::MinFill(bool leaf) const {
  const int capacity = leaf ? leaf_capacity() : internal_capacity();
  return std::max(1, static_cast<int>(capacity * options_.fill_factor));
}

Result<ChildEntry> RTree::SplitNode(Node* node, int forced_index) {
  std::vector<StBox> boxes;
  const int n = node->count();
  boxes.reserve(static_cast<size_t>(n));
  if (node->is_leaf()) {
    for (const MotionSegment& m : node->segments) {
      boxes.push_back(QuantizeOutward(m.Bounds()));
    }
  } else {
    for (const ChildEntry& e : node->children) boxes.push_back(e.bounds);
  }
  const int min_fill = std::max(
      1, static_cast<int>(node->capacity() * options_.fill_factor));
  const SplitPlan plan =
      SplitEntries(options_.split_policy, boxes, min_fill, forced_index);

  Node sibling;
  sibling.self = AllocatePage();
  sibling.level = node->level;
  sibling.dims = node->dims;
  sibling.stamp = stamp_;
  ++num_nodes_;

  Node kept;
  kept.self = node->self;
  kept.level = node->level;
  kept.dims = node->dims;
  kept.stamp = stamp_;
  if (node->is_leaf()) {
    for (int idx : plan.keep) {
      kept.segments.push_back(node->segments[static_cast<size_t>(idx)]);
    }
    for (int idx : plan.move) {
      sibling.segments.push_back(node->segments[static_cast<size_t>(idx)]);
    }
  } else {
    for (int idx : plan.keep) {
      kept.children.push_back(node->children[static_cast<size_t>(idx)]);
    }
    for (int idx : plan.move) {
      sibling.children.push_back(node->children[static_cast<size_t>(idx)]);
    }
  }
  *node = std::move(kept);
  DQMO_RETURN_IF_ERROR(StoreNode(node));
  DQMO_RETURN_IF_ERROR(StoreNode(&sibling));

  ChildEntry entry = sibling.ComputeEntry();
  // Record the topmost new node: splits unwind bottom-up, so the last call
  // during one Insert holds the highest new node, which (by same-path
  // forcing) covers every earlier one plus the inserted segment.
  pending_.any_split = true;
  pending_.topmost = entry;
  pending_.topmost_level = sibling.level;
  return entry;
}

Result<RTree::InsertOutcome> RTree::InsertInto(PageId pid, int node_level,
                                               const MotionSegment& m) {
  DQMO_ASSIGN_OR_RETURN(Node node, LoadForWrite(pid));
  DQMO_CHECK(node.level == node_level);
  node.stamp = stamp_;  // NPDQ update management: stamp the insertion path.
  const StBox mbounds = QuantizeOutward(m.Bounds());

  if (node.is_leaf()) {
    node.segments.push_back(m);
    if (node.count() <= node.capacity()) {
      DQMO_RETURN_IF_ERROR(StoreNode(&node));
      return InsertOutcome{node.ComputeEntry(), std::nullopt};
    }
    DQMO_ASSIGN_OR_RETURN(
        ChildEntry sibling, SplitNode(&node, node.count() - 1));
    return InsertOutcome{node.ComputeEntry(), sibling};
  }

  // ChooseSubtree: least enlargement, ties by smaller measure.
  int best = -1;
  double best_enl = kInf;
  double best_measure = kInf;
  for (int i = 0; i < node.count(); ++i) {
    const StBox& b = node.children[static_cast<size_t>(i)].bounds;
    const double enl = Enlargement(b, mbounds);
    const double measure = SplitMeasure(b);
    if (enl < best_enl || (enl == best_enl && measure < best_measure)) {
      best = i;
      best_enl = enl;
      best_measure = measure;
    }
  }
  DQMO_CHECK(best >= 0);

  ChildEntry& slot = node.children[static_cast<size_t>(best)];
  const PageId chosen_child = slot.child;
  DQMO_ASSIGN_OR_RETURN(InsertOutcome child_outcome,
                        InsertInto(chosen_child, node_level - 1, m));
  slot = child_outcome.updated_entry;
  slot.child = chosen_child;

  if (child_outcome.new_sibling.has_value()) {
    node.children.push_back(*child_outcome.new_sibling);
    if (node.count() > node.capacity()) {
      DQMO_ASSIGN_OR_RETURN(
          ChildEntry sibling, SplitNode(&node, node.count() - 1));
      return InsertOutcome{node.ComputeEntry(), sibling};
    }
  }
  DQMO_RETURN_IF_ERROR(StoreNode(&node));
  return InsertOutcome{node.ComputeEntry(), std::nullopt};
}

Status RTree::Insert(const MotionSegment& m) {
  if (m.seg.dims() != options_.dims) {
    return Status::InvalidArgument(
        StrFormat("segment dims %d != tree dims %d", m.seg.dims(),
                  options_.dims));
  }
  if (m.seg.time.empty()) {
    return Status::InvalidArgument("motion segment has empty valid time");
  }
  MotionSegment stored = m;
  stored.seg = QuantizeStored(m.seg);
  max_speed_ = std::max(max_speed_, stored.seg.Speed());

  ++stamp_;
  pending_ = PendingNotice{};
  DQMO_ASSIGN_OR_RETURN(InsertOutcome outcome,
                        InsertInto(root_, height_ - 1, stored));
  if (outcome.new_sibling.has_value()) {
    // Root split: grow the tree by one level.
    Node new_root;
    new_root.self = AllocatePage();
    new_root.level = static_cast<uint16_t>(height_);
    new_root.dims = options_.dims;
    new_root.stamp = stamp_;
    ChildEntry old_root_entry = outcome.updated_entry;
    old_root_entry.child = root_;
    new_root.children.push_back(old_root_entry);
    new_root.children.push_back(*outcome.new_sibling);
    DQMO_RETURN_IF_ERROR(StoreNode(&new_root));
    root_ = new_root.self;
    ++height_;
    ++num_nodes_;
    pending_.root_split = true;
  }
  ++num_segments_;

  // Fire exactly one notification, mirroring Sect. 4.1's update protocol.
  // Held across the callbacks: Insert runs under the exclusive TreeGate in
  // concurrent mode, so no session is mid-frame, and the callbacks only
  // push queue items (no I/O, no other locks) — the lock order is always
  // gate, then listeners_mu_.
  std::lock_guard<std::mutex> listeners_lock(listeners_mu_);
  for (UpdateListener* l : listeners_) {
    if (pending_.root_split) {
      l->OnRootSplit(root_);
    } else if (pending_.any_split) {
      l->OnSubtreeCreated(pending_.topmost, pending_.topmost_level);
    } else {
      l->OnObjectInserted(stored);
    }
  }
  return Status::OK();
}

Status RTree::DissolveSubtree(PageId pid,
                              std::vector<MotionSegment>* orphans) {
  DQMO_ASSIGN_OR_RETURN(Node node, LoadForWrite(pid));
  if (node.is_leaf()) {
    orphans->insert(orphans->end(), node.segments.begin(),
                    node.segments.end());
  } else {
    for (const ChildEntry& e : node.children) {
      DQMO_RETURN_IF_ERROR(DissolveSubtree(e.child, orphans));
    }
  }
  FreePage(pid);
  --num_nodes_;
  return Status::OK();
}

Result<RTree::RemoveOutcome> RTree::RemoveFrom(
    PageId pid, int node_level, const MotionSegment::Key& key,
    const StBox& guide, std::vector<MotionSegment>* orphans) {
  DQMO_ASSIGN_OR_RETURN(Node node, LoadForWrite(pid));
  DQMO_CHECK(node.level == node_level);
  const bool is_root = pid == root_;

  RemoveOutcome outcome;
  if (node.is_leaf()) {
    auto it = std::find_if(
        node.segments.begin(), node.segments.end(),
        [&](const MotionSegment& m) { return m.key() == key; });
    if (it == node.segments.end()) return outcome;  // Not here.
    node.segments.erase(it);
    outcome.removed = true;
    node.stamp = stamp_;
    if (!is_root && node.count() < MinFill(/*leaf=*/true)) {
      orphans->insert(orphans->end(), node.segments.begin(),
                      node.segments.end());
      FreePage(pid);
      --num_nodes_;
      outcome.node_dissolved = true;
      return outcome;
    }
    DQMO_RETURN_IF_ERROR(StoreNode(&node));
    outcome.updated_entry = node.ComputeEntry();
    return outcome;
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    if (!node.children[i].bounds.Overlaps(guide)) continue;
    DQMO_ASSIGN_OR_RETURN(
        RemoveOutcome child_outcome,
        RemoveFrom(node.children[i].child, node_level - 1, key, guide,
                   orphans));
    if (!child_outcome.removed) continue;
    outcome.removed = true;
    node.stamp = stamp_;
    if (child_outcome.node_dissolved) {
      node.children.erase(node.children.begin() +
                          static_cast<ptrdiff_t>(i));
    } else {
      const PageId child_id = node.children[i].child;
      node.children[i] = child_outcome.updated_entry;
      node.children[i].child = child_id;
    }
    if (!is_root && node.count() < MinFill(/*leaf=*/false)) {
      // Condense: dissolve this whole node; survivors get reinserted.
      for (const ChildEntry& e : node.children) {
        DQMO_RETURN_IF_ERROR(DissolveSubtree(e.child, orphans));
      }
      FreePage(pid);
      --num_nodes_;
      outcome.node_dissolved = true;
      return outcome;
    }
    DQMO_RETURN_IF_ERROR(StoreNode(&node));
    outcome.updated_entry = node.ComputeEntry();
    return outcome;
  }
  return outcome;  // Not found along any overlapping branch.
}

Status RTree::Remove(const MotionSegment& m) {
  if (m.seg.dims() != options_.dims) {
    return Status::InvalidArgument("segment dims mismatch");
  }
  MotionSegment stored = m;
  stored.seg = QuantizeStored(m.seg);
  const StBox guide = QuantizeOutward(stored.Bounds());

  ++stamp_;
  std::vector<MotionSegment> orphans;
  DQMO_ASSIGN_OR_RETURN(
      RemoveOutcome outcome,
      RemoveFrom(root_, height_ - 1, stored.key(), guide, &orphans));
  if (!outcome.removed) {
    return Status::NotFound(
        StrFormat("no motion segment with oid %u starting at %g", m.oid,
                  m.seg.time.lo));
  }
  --num_segments_;

  // Collapse a degenerate root chain: an internal root with one child.
  for (;;) {
    QueryStats scratch;
    DQMO_ASSIGN_OR_RETURN(Node root, LoadNode(root_, &scratch));
    if (root.is_leaf() || root.count() != 1) break;
    const PageId only_child = root.children.front().child;
    FreePage(root_);
    --num_nodes_;
    root_ = only_child;
    --height_;
  }

  // Reinsert survivors of condensed nodes. Insert() counts and stamps, so
  // pre-deduct them from the segment count.
  num_segments_ -= orphans.size();
  for (const MotionSegment& orphan : orphans) {
    DQMO_RETURN_IF_ERROR(Insert(orphan));
  }
  return Status::OK();
}

namespace {

/// Shared DFS for the two range-search variants.
struct RangeSearchDriver {
  const RTree* tree;
  const StBox* query;
  QueryStats* stats;
  PageReader* reader;
  bool exact_leaf_test;
  std::vector<MotionSegment>* out;
  FaultPolicy fault_policy = FaultPolicy::kFailFast;
  SkipReport* skip_report = nullptr;

  Status Visit(PageId pid, const StBox& entry_bounds) {
    DQMO_ASSIGN_OR_RETURN(
        std::optional<Node> maybe_node,
        tree->LoadNodeOrSkip(pid, entry_bounds, fault_policy, skip_report,
                             stats, reader));
    if (!maybe_node.has_value()) return Status::OK();  // Subtree skipped.
    const Node& node = *maybe_node;
    if (node.is_leaf()) {
      for (const MotionSegment& m : node.segments) {
        ++stats->distance_computations;
        const bool hit = exact_leaf_test
                             ? m.seg.Intersects(*query)
                             : QuantizeOutward(m.Bounds()).Overlaps(*query);
        if (hit) {
          out->push_back(m);
          ++stats->objects_returned;
        }
      }
      return Status::OK();
    }
    for (const ChildEntry& e : node.children) {
      ++stats->distance_computations;
      if (e.bounds.Overlaps(*query)) {
        DQMO_RETURN_IF_ERROR(Visit(e.child, e.bounds));
      }
    }
    return Status::OK();
  }
};

}  // namespace

Result<std::vector<MotionSegment>> RTree::RangeSearch(
    const StBox& q, QueryStats* stats, PageReader* reader) const {
  SearchOptions opts;
  opts.reader = reader;
  return RangeSearch(q, stats, opts);
}

Result<std::vector<MotionSegment>> RTree::RangeSearch(
    const StBox& q, QueryStats* stats, const SearchOptions& opts) const {
  if (q.spatial.dims != options_.dims) {
    return Status::InvalidArgument("query dims mismatch");
  }
  DQMO_CHECK(stats != nullptr);
  std::vector<MotionSegment> out;
  if (q.empty()) return out;
  RangeSearchDriver driver{this,
                           &q,
                           stats,
                           opts.reader,
                           /*exact_leaf_test=*/true,
                           &out,
                           opts.fault_policy,
                           opts.skip_report};
  DQMO_RETURN_IF_ERROR(driver.Visit(root_, StBox()));
  return out;
}

Result<std::vector<MotionSegment>> RTree::RangeSearchBbOnly(
    const StBox& q, QueryStats* stats, PageReader* reader) const {
  if (q.spatial.dims != options_.dims) {
    return Status::InvalidArgument("query dims mismatch");
  }
  DQMO_CHECK(stats != nullptr);
  std::vector<MotionSegment> out;
  if (q.empty()) return out;
  RangeSearchDriver driver{this, &q,   stats, reader, /*exact_leaf_test=*/false,
                           &out};
  DQMO_RETURN_IF_ERROR(driver.Visit(root_, StBox()));
  return out;
}

namespace {

Status CheckSubtree(const RTree& tree, PageId pid, int expected_level,
                    const ChildEntry* parent_entry, int min_fill_internal,
                    int min_fill_leaf, bool is_root, UpdateStamp tree_stamp,
                    bool check_min_fill, uint64_t* segment_count,
                    size_t* node_count) {
  QueryStats scratch;
  DQMO_ASSIGN_OR_RETURN(Node node, tree.LoadNode(pid, &scratch));
  ++*node_count;
  if (node.level != expected_level) {
    return Status::Corruption(
        StrFormat("node %u: level %u, expected %d", pid, node.level,
                  expected_level));
  }
  if (node.stamp > tree_stamp) {
    return Status::Corruption(
        StrFormat("node %u: stamp %llu newer than tree stamp %llu", pid,
                  static_cast<unsigned long long>(node.stamp),
                  static_cast<unsigned long long>(tree_stamp)));
  }
  const ChildEntry tight = node.ComputeEntry();
  if (parent_entry != nullptr) {
    if (!parent_entry->bounds.Contains(tight.bounds) ||
        !parent_entry->start_times.Contains(tight.start_times) ||
        !parent_entry->end_times.Contains(tight.end_times)) {
      return Status::Corruption(
          StrFormat("node %u: geometry not contained in parent entry", pid));
    }
  }
  if (!node.is_leaf()) {
    for (const ChildEntry& e : node.children) {
      if (e.bounds.time.lo != e.start_times.lo ||
          e.bounds.time.hi != e.end_times.hi) {
        return Status::Corruption(StrFormat(
            "node %u: combined time interval inconsistent with start/end "
            "extents",
            pid));
      }
    }
  }
  const int min_fill = node.is_leaf() ? min_fill_leaf : min_fill_internal;
  if (check_min_fill && !is_root && node.count() < min_fill) {
    return Status::Corruption(
        StrFormat("node %u: underfull (%d < %d)", pid, node.count(),
                  min_fill));
  }
  if (is_root && !node.is_leaf() && node.count() < 2) {
    return Status::Corruption("internal root has fewer than 2 children");
  }
  if (node.is_leaf()) {
    *segment_count += static_cast<uint64_t>(node.count());
    return Status::OK();
  }
  for (const ChildEntry& e : node.children) {
    DQMO_RETURN_IF_ERROR(
        CheckSubtree(tree, e.child, expected_level - 1, &e,
                     min_fill_internal, min_fill_leaf, /*is_root=*/false,
                     tree_stamp, check_min_fill, segment_count, node_count));
  }
  return Status::OK();
}

}  // namespace

Status RTree::CheckInvariants(bool check_min_fill) const {
  uint64_t segment_count = 0;
  size_t node_count = 0;
  const int min_internal = std::max(
      1, static_cast<int>(internal_capacity() * options_.fill_factor));
  const int min_leaf =
      std::max(1, static_cast<int>(leaf_capacity() * options_.fill_factor));
  DQMO_RETURN_IF_ERROR(CheckSubtree(
      *this, root_, height_ - 1, nullptr, min_internal, min_leaf,
      /*is_root=*/true, stamp_, check_min_fill, &segment_count, &node_count));
  if (segment_count != num_segments_) {
    return Status::Corruption(
        StrFormat("segment count mismatch: tree says %llu, scan found %llu",
                  static_cast<unsigned long long>(num_segments_),
                  static_cast<unsigned long long>(segment_count)));
  }
  if (node_count != num_nodes_) {
    return Status::Corruption(
        StrFormat("node count mismatch: tree says %zu, scan found %zu",
                  num_nodes_, node_count));
  }
  return Status::OK();
}

}  // namespace dqmo
