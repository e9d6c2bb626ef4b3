#include "serve/accounting.h"

#include <algorithm>

namespace deco {

Status ServeAccounting::Init(const QueryRegistry* registry,
                             MetricRegistry* metrics) {
  if (registry == nullptr || registry->queries().empty()) {
    return Status::InvalidArgument("serve accounting needs a registry");
  }
  registry_ = registry;
  tenants_.clear();
  for (const std::string& tenant : registry->tenants()) {
    TenantCounters counters;
    counters.bytes = metrics->counter("serve.tenant." + tenant + ".bytes");
    counters.agg_ops =
        metrics->counter("serve.tenant." + tenant + ".agg_ops");
    tenants_.push_back(counters);
  }
  query_tenant_.clear();
  for (const ServedQuery& q : registry->queries()) {
    const auto& names = registry->tenants();
    const auto it = std::find(names.begin(), names.end(), q.tenant);
    query_tenant_.push_back(
        static_cast<size_t>(std::distance(names.begin(), it)));
  }
  return Status::OK();
}

void ServeAccounting::ActiveTenants(uint64_t pane, int slot,
                                    std::vector<size_t>* out) const {
  out->clear();
  const std::vector<ServedQuery>& queries = registry_->queries();
  for (size_t i = 0; i < queries.size(); ++i) {
    const ServedQuery& q = queries[i];
    if (pane < q.add_pane || pane >= q.remove_pane) continue;
    if (slot >= 0 && q.slot != static_cast<uint16_t>(slot)) continue;
    if (std::find(out->begin(), out->end(), query_tenant_[i]) == out->end()) {
      out->push_back(query_tenant_[i]);
    }
  }
}

void ServeAccounting::SplitEvenly(uint64_t amount,
                                  const std::vector<size_t>& among,
                                  std::vector<uint64_t>* shares) {
  shares->assign(among.size(), 0);
  if (among.empty() || amount == 0) return;
  const uint64_t each = amount / among.size();
  uint64_t remainder = amount % among.size();
  for (size_t i = 0; i < among.size(); ++i) {
    (*shares)[i] = each + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
  }
}

void ServeAccounting::OnSlice(uint64_t pane, uint64_t base_bytes,
                              uint64_t slice_events,
                              const std::vector<SlotPartial>& extras) {
  // Shared slice payload: split across every tenant active at the pane.
  ActiveTenants(pane, /*slot=*/-1, &scratch_);
  SplitEvenly(base_bytes, scratch_, &shares_);
  for (size_t i = 0; i < scratch_.size(); ++i) {
    tenants_[scratch_[i]].bytes->Add(static_cast<int64_t>(shares_[i]));
  }

  // Slot 0's accumulations go to the tenants of active slot-0 queries.
  ActiveTenants(pane, /*slot=*/0, &scratch_);
  SplitEvenly(slice_events, scratch_, &shares_);
  for (size_t i = 0; i < scratch_.size(); ++i) {
    tenants_[scratch_[i]].agg_ops->Add(static_cast<int64_t>(shares_[i]));
  }

  // Extras: both their wire bytes and their accumulations belong to the
  // tenants sharing the slot.
  for (const SlotPartial& extra : extras) {
    ActiveTenants(pane, static_cast<int>(extra.slot), &scratch_);
    SplitEvenly(SlotPartialWireSize(extra), scratch_, &shares_);
    for (size_t i = 0; i < scratch_.size(); ++i) {
      tenants_[scratch_[i]].bytes->Add(static_cast<int64_t>(shares_[i]));
    }
    SplitEvenly(slice_events, scratch_, &shares_);
    for (size_t i = 0; i < scratch_.size(); ++i) {
      tenants_[scratch_[i]].agg_ops->Add(static_cast<int64_t>(shares_[i]));
    }
  }
}

}  // namespace deco
