#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "node/query.h"

/// \file registry.h
/// \brief Query registry of the multi-query serving layer (DESIGN.md §11).
///
/// A run serves a *set* of window queries over the same streams. The
/// registry assigns each admitted query a stable id, a tenant tag, an
/// *aggregate slot* (distinct (aggregate kind, quantile) pairs — queries
/// sharing an aggregate share its slot, and therefore its per-pane
/// partial on the wire), and a lifecycle interval in protocol panes.
///
/// The registry is built once before the run, validated by admission
/// control, and then shared read-only by the harness, the root and the
/// locals. Every Deco run serves one: a run given no query set serves its
/// single query through a one-entry registry. Runtime add/remove is
/// *declarative*: a query scheduled with `add_pane`/`remove_pane` is known
/// to the registry up front, but locals only learn of it when the root
/// sends its slot schedule (`kQueryConfig`) with the effective pane the
/// root picks — the execution path exercises the real runtime protocol,
/// the registry just makes the run reproducible.

namespace deco {

/// \brief Sentinel pane index meaning "never" (query active to run end).
inline constexpr uint64_t kServePaneNever = UINT64_MAX;

/// \brief One distinct aggregate computed per pane. Slot 0 is the primary
/// query's aggregate and is always active for the whole run.
struct SlotSpec {
  AggregateKind kind = AggregateKind::kSum;
  double quantile_q = 0.5;
};

/// \brief One registered query.
struct ServedQuery {
  /// Stable id, assigned by the registry in admission order.
  uint32_t id = 0;

  /// Owning tenant for accounting ("default" when unspecified).
  std::string tenant = "default";

  QueryConfig query;

  /// Aggregate slot shared with every query computing the same aggregate.
  uint16_t slot = 0;

  /// First pane the query is *requested* to be active at (0 = from start).
  /// The root may activate later (its effective pane must clear every
  /// local's planning horizon); actual activation is recorded in the run
  /// report.
  uint64_t add_pane = 0;

  /// First pane the query is requested to no longer apply to
  /// (`kServePaneNever` = active to run end).
  uint64_t remove_pane = kServePaneNever;

  /// Canonical spec string (filled by the registry on admission).
  std::string spec;
};

/// \brief Admission-control budget. Violations are rejected loudly
/// (`ResourceExhausted`) at registration time, never degraded at runtime.
struct ServeAdmission {
  /// Maximum registered queries (including the primary).
  size_t max_queries = 64;

  /// Maximum *estimated* extra wire bytes per stream event the non-primary
  /// aggregate slots may cost (0 = unlimited). The estimate is the
  /// steady-state slice overhead: one encoded slot partial per pane per
  /// local, divided by the pane's event count.
  double max_extra_bytes_per_event = 0.0;

  /// Local node count used by the bytes/event estimate (the harness fills
  /// it from the experiment config; 1 when unknown).
  size_t num_locals = 1;
};

/// \brief Immutable-after-build set of served queries.
class QueryRegistry {
 public:
  QueryRegistry() = default;
  explicit QueryRegistry(ServeAdmission admission)
      : admission_(admission) {}

  /// \brief Admits one query: validates it, assigns id + slot + canonical
  /// spec, and enforces the admission budget. The first admitted query is
  /// the *primary* (slot 0, must be active from pane 0 to run end).
  Status Add(ServedQuery q);

  const std::vector<ServedQuery>& queries() const { return queries_; }
  const std::vector<SlotSpec>& slots() const { return slots_; }
  const ServeAdmission& admission() const { return admission_; }

  /// \brief Distinct tenant names, admission order.
  const std::vector<std::string>& tenants() const { return tenants_; }

  /// \brief Shared protocol pane length: gcd over `ProtocolWindowLength`
  /// of every registered query. 0 when empty.
  uint64_t PaneLength() const;

  /// \brief True when any query has a scheduled runtime add or remove.
  bool HasRuntimeSchedule() const;

  /// \brief Estimated steady-state extra wire bytes per stream event from
  /// the non-primary slots (the quantity `max_extra_bytes_per_event`
  /// bounds).
  double ExtraBytesPerEvent() const;

  /// \brief Per-slot encoded size of one slice extra (slot > 0 only;
  /// returns 0 for slot 0, which rides in the base summary).
  size_t SlotWireBytes(uint16_t slot) const;

 private:
  ServeAdmission admission_;
  std::vector<ServedQuery> queries_;
  std::vector<SlotSpec> slots_;
  std::vector<std::string> tenants_;
};

/// \brief Parses one query spec. Two grammars:
///   - positional: `agg:window[:slide]`, e.g. `sum:100000` or
///     `avg:100000:50000`;
///   - key=value list: `tenant=acme,agg=quantile,window=100000,q=0.9,
///     add=4,rm=12` (keys: tenant, agg, window, slide, q, add, rm).
/// `add`/`rm` are pane indices of the requested runtime schedule.
Result<ServedQuery> ParseQuerySpec(const std::string& spec);

/// \brief Parses a `;`-separated list of query specs (`--queries=`).
Result<std::vector<ServedQuery>> ParseQueryList(const std::string& list);

/// \brief Canonical key=value rendering of a served query.
std::string CanonicalQuerySpec(const ServedQuery& q);

}  // namespace deco
