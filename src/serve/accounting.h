#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "node/protocol.h"
#include "obs/metric_registry.h"
#include "serve/registry.h"

/// \file accounting.h
/// \brief Per-tenant byte/CPU attribution for the serving layer
/// (DESIGN.md §11), reported through the run's metric registry.
///
/// Counters (in the run's registry, so they show up in telemetry samples
/// like every other counter, and the harness reads a tenant's usage
/// straight off them):
///   - `serve.tenant.<name>.bytes`  — wire bytes attributed to the tenant:
///     its even share of the shared slice payload plus its share of the
///     slot extras its queries requested;
///   - `serve.tenant.<name>.agg_ops` — aggregate accumulations performed
///     on the tenant's behalf (slice events × its active slots, shared
///     slots split evenly), the CPU proxy the harness scales by the
///     profiler's measured local CPU.
///
/// Attribution uses the registry's *requested* activation panes; the
/// root's effective panes lag by its planning horizon, so tenant shares
/// around an add/remove boundary are an approximation (documented in
/// DESIGN.md §11).

namespace deco {

class ServeAccounting {
 public:
  /// \brief Hoists one counter pair per registry tenant out of `metrics`
  /// (the run's registry; not owned).
  Status Init(const QueryRegistry* registry, MetricRegistry* metrics);

  /// \brief Attributes one produced slice at `pane`: `base_bytes` is the
  /// slice payload without the extras (shared work, split evenly across
  /// tenants with any active query); each extra's wire bytes go to the
  /// tenants whose active queries share its slot; `slice_events`
  /// accumulations are charged per active slot the same way.
  void OnSlice(uint64_t pane, uint64_t base_bytes, uint64_t slice_events,
               const std::vector<SlotPartial>& extras);

 private:
  struct TenantCounters {
    Counter* bytes = nullptr;
    Counter* agg_ops = nullptr;
  };

  /// Tenant indices (registry tenant order) with an active query at
  /// `pane`, optionally restricted to queries on `slot`.
  void ActiveTenants(uint64_t pane, int slot,
                     std::vector<size_t>* out) const;

  static void SplitEvenly(uint64_t amount, const std::vector<size_t>& among,
                          std::vector<uint64_t>* shares);

  const QueryRegistry* registry_ = nullptr;
  std::vector<TenantCounters> tenants_;
  std::vector<size_t> query_tenant_;  ///< query index → tenant index
  std::vector<size_t> scratch_;
  std::vector<uint64_t> shares_;
};

}  // namespace deco
