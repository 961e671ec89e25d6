#include "query/traversal.h"

#include "storage/prefetch.h"

namespace dqmo {

void NodeVisitor::Hint(const std::vector<PageId>& pages) {
  Prefetcher* pf = options_->prefetcher;
  if (pf == nullptr || pages.empty()) return;
  QueryBudget* budget = options_->budget;
  pf->Hint(pages, budget == nullptr
                      ? Prefetcher::ChargeFn()
                      : Prefetcher::ChargeFn(
                            [budget] { return budget->TryChargePrefetch(); }));
}

size_t NodeVisitor::HintDepth() const { return options_->prefetcher->depth(); }

}  // namespace dqmo
