#!/usr/bin/env python3
"""Validates Deco bench JSON documents (schema_version 1).

Usage: tools/check_bench_json.py BENCH_*.json

Checks, per document:
  * the required top-level fields and their types
    (schema_version/bench/git_sha/host/config/rows);
  * host carries cores / trace_enabled / sanitizer;
  * every row has a unique non-empty label, a metrics object, and a
    cpu_breakdown that is either null or a profile object
    (enabled/alloc_counted/threads);
  * every metric aggregate is self-consistent: non-empty values list,
    min <= median <= max, min/max actually bound the values, and the
    mean lies within [min, max] (up to a few ulps: summing identical
    doubles and dividing back can land one ulp outside the range);
  * rows carrying the accuracy-attribution metrics (err_total, err_drop,
    err_staleness, err_approx — signed per-repeat sums emitted by
    bench/accuracy_attribution) satisfy the decomposition invariant on
    every repeat: drop + staleness + approx must equal the observed
    total within 1% (with a small absolute floor for near-exact runs);
  * multi-query serving rows (label `<scheme>/q<N>`, emitted by
    bench/qps_marginal_cost with a `queries` metric) are self-consistent
    — the label's query count matches the metric, every sweep has a q=1
    anchor — and the Deco schemes satisfy the serving-layer acceptance
    bound: the marginal bytes/event of the largest query count must stay
    under 20% of the single-query cost (the shared slice store makes the
    Nth query nearly free; rerun-per-query baselines like central are
    exempt — their linear growth is the point of the comparison);
  * ops-overhead pairs (a `<scheme>/ops` row next to its `<scheme>` row,
    emitted by fig7_end_to_end --ops_overhead) in sim documents keep the
    live ops plane's throughput cost within 2% of the plain run;
  * sim fig7_end_to_end documents carry the paper's byte claim: every
    `deco-*` row's median bytes_per_event is below the `central` row's.

Exits non-zero with a per-file message on the first violation in each
file; prints a one-line OK per valid file.
"""

import json
import sys


class BadDoc(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise BadDoc(message)


def check_number(value, where):
    expect(isinstance(value, (int, float)) and not isinstance(value, bool),
           f"{where}: expected a number, got {type(value).__name__}")


def check_metric(name, agg, where):
    expect(isinstance(agg, dict), f"{where}: metric '{name}' is not an object")
    for key in ("values", "min", "max", "mean", "median", "stddev"):
        expect(key in agg, f"{where}: metric '{name}' missing '{key}'")
    values = agg["values"]
    expect(isinstance(values, list) and values,
           f"{where}: metric '{name}' has no values")
    for v in values:
        check_number(v, f"{where}: metric '{name}' values")
    for key in ("min", "max", "mean", "median", "stddev"):
        check_number(agg[key], f"{where}: metric '{name}' {key}")
    lo, hi = agg["min"], agg["max"]
    # Accumulating repeats and dividing back is not exact: allow the
    # derived statistics to sit a few ulps outside [min, max].
    slack = 1e-12 * max(abs(lo), abs(hi))
    expect(lo - slack <= agg["median"] <= hi + slack,
           f"{where}: metric '{name}': median {agg['median']} outside "
           f"[{lo}, {hi}]")
    expect(lo - slack <= agg["mean"] <= hi + slack,
           f"{where}: metric '{name}': mean {agg['mean']} outside "
           f"[{lo}, {hi}]")
    expect(lo == min(values) and hi == max(values),
           f"{where}: metric '{name}': min/max do not bound the values")
    expect(agg["stddev"] >= 0, f"{where}: metric '{name}': negative stddev")


ATTRIBUTION_METRICS = ("err_total", "err_drop", "err_staleness",
                       "err_approx")
ATTRIBUTION_REL_TOLERANCE = 0.01
ATTRIBUTION_ABS_FLOOR = 1e-6


def check_attribution(metrics, where):
    """Per-repeat decomposition check: the signed component sums must
    telescope to the observed error on every index of the values lists
    (aggregates like the median do not telescope, the raw repeats do)."""
    present = [m for m in ATTRIBUTION_METRICS if m in metrics]
    if not present:
        return
    expect(len(present) == len(ATTRIBUTION_METRICS),
           f"{where}: partial attribution metrics (have {present}, "
           f"need all of {list(ATTRIBUTION_METRICS)})")
    series = {m: metrics[m]["values"] for m in ATTRIBUTION_METRICS}
    lengths = {len(v) for v in series.values()}
    expect(len(lengths) == 1,
           f"{where}: attribution metrics have mismatched repeat counts")
    for i in range(lengths.pop()):
        total = series["err_total"][i]
        parts = (series["err_drop"][i] + series["err_staleness"][i] +
                 series["err_approx"][i])
        bound = max(ATTRIBUTION_REL_TOLERANCE * abs(total),
                    ATTRIBUTION_ABS_FLOOR)
        expect(abs(parts - total) <= bound,
               f"{where}: repeat {i}: err_drop + err_staleness + "
               f"err_approx = {parts!r} does not sum to err_total "
               f"{total!r} (bound {bound:g})")


MARGINAL_COST_BOUND = 0.20
SHARED_STORE_SCHEME_PREFIX = "deco"


def check_marginal_cost(doc, path):
    """Cross-row checks for the multi-query serving sweep: every
    `<scheme>/q<N>` row's `queries` metric must agree with its label, each
    scheme's sweep needs a q=1 anchor, and the Deco schemes must keep the
    marginal bytes/event of their largest query count under
    MARGINAL_COST_BOUND of the single-query cost (computed from medians,
    like the regression comparison)."""
    sweeps = {}  # scheme -> {count: row}
    for i, row in enumerate(doc["rows"]):
        label = row["label"]
        metrics = row["metrics"]
        if "queries" not in metrics:
            continue
        where = f"rows[{i}] ('{label}')"
        expect("/" in label and label.rsplit("/", 1)[1].startswith("q"),
               f"{where}: serving row labels must look like <scheme>/q<N>")
        scheme, qpart = label.rsplit("/", 1)
        expect(qpart[1:].isdigit(), f"{where}: bad query count '{qpart}'")
        count = int(qpart[1:])
        expect(metrics["queries"]["median"] == count,
               f"{where}: 'queries' metric {metrics['queries']['median']!r} "
               f"disagrees with label count {count}")
        expect("bytes_per_event" in metrics,
               f"{where}: serving row missing bytes_per_event")
        sweeps.setdefault(scheme, {})[count] = (where, metrics)
    for scheme, rows in sweeps.items():
        expect(1 in rows,
               f"serving sweep for '{scheme}' has no q=1 anchor row")
        single = rows[1][1]["bytes_per_event"]["median"]
        top = max(rows)
        if top == 1 or not scheme.startswith(SHARED_STORE_SCHEME_PREFIX):
            continue
        where, metrics = rows[top]
        marginal = (metrics["bytes_per_event"]["median"] - single) / (top - 1)
        expect(marginal < MARGINAL_COST_BOUND * single,
               f"{where}: marginal cost {marginal:.4f} bytes/event/query at "
               f"q={top} exceeds {MARGINAL_COST_BOUND:.0%} of the "
               f"single-query cost {single:.4f}")


OPS_OVERHEAD_BOUND = 0.02


def check_ops_overhead(doc, path):
    """Cross-row check for the live ops plane: when a bench carries both a
    `<scheme>` row and its `<scheme>/ops` twin (same workload rerun with
    the metrics endpoint, watchdog and flight recorder on), their
    throughput medians must agree within OPS_OVERHEAD_BOUND. Only sim rows
    are gated — virtual-time throughput is deterministic, wall-clock
    throughput is too noisy for a 2% bar."""
    if not doc.get("config", {}).get("sim", False):
        return
    rows = {row["label"]: (i, row) for i, row in enumerate(doc["rows"])}
    for label, (i, row) in rows.items():
        if not label.endswith("/ops"):
            continue
        base_label = label[: -len("/ops")]
        expect(base_label in rows,
               f"rows[{i}] ('{label}'): no matching '{base_label}' row to "
               "compare against")
        where = f"rows[{i}] ('{label}')"
        base = rows[base_label][1]["metrics"]
        ops = row["metrics"]
        # Virtual time makes the structural metrics exact: the ops plane
        # (pure reads + sampler-tick detectors) must not perturb the data
        # plane at all.
        for name in ("windows", "total_bytes", "total_messages",
                     "corrections"):
            if name not in base or name not in ops:
                continue
            expect(ops[name]["median"] == base[name]["median"],
                   f"{where}: ops plane changed {name} "
                   f"({ops[name]['median']!r} vs {base[name]['median']!r}) "
                   "— endpoints must be pure reads")
        # Unpaced sim runs report zero eps (no virtual elapsed time); when
        # throughput is measurable (--cpu-paced sim), hold the 2% bound.
        plain = base.get("throughput_eps", {}).get("median", 0)
        with_ops = ops.get("throughput_eps", {}).get("median", 0)
        if plain > 0:
            overhead = (plain - with_ops) / plain
            expect(overhead <= OPS_OVERHEAD_BOUND,
                   f"{where}: ops plane costs {overhead:.2%} throughput "
                   f"({with_ops:.0f} vs {plain:.0f} ev/s), above the "
                   f"{OPS_OVERHEAD_BOUND:.0%} bound")


def check_deco_bytes(doc, path):
    """The paper's network claim on fig7 (Deco ships slices plus narrow raw
    edges, Central every event): in sim documents, whose bytes are exact,
    each Deco row's median bytes/event must be below Central's."""
    if doc["bench"] != "fig7_end_to_end" or not doc["config"].get("sim"):
        return
    rows = {row["label"]: row for row in doc["rows"]}
    expect("central" in rows, "fig7 sim document has no 'central' row")
    central = rows["central"]["metrics"]["bytes_per_event"]["median"]
    for label, row in rows.items():
        if not label.startswith("deco-"):
            continue
        deco = row["metrics"]["bytes_per_event"]["median"]
        expect(deco < central,
               f"row '{label}': {deco:.2f} bytes/event is not below "
               f"central's {central:.2f}")


def check_profile(profile, where):
    for key in ("enabled", "alloc_counted", "threads"):
        expect(key in profile, f"{where}: cpu_breakdown missing '{key}'")
    expect(isinstance(profile["threads"], list),
           f"{where}: cpu_breakdown threads is not a list")
    for thread in profile["threads"]:
        for key in ("name", "cpu_nanos", "wall_nanos", "messages_handled",
                    "allocations", "allocated_bytes", "handlers"):
            expect(key in thread,
                   f"{where}: cpu_breakdown thread missing '{key}'")
        for handler in thread["handlers"]:
            for key in ("type", "count", "cpu_nanos", "wall_nanos"):
                expect(key in handler,
                       f"{where}: cpu_breakdown handler missing '{key}'")


def check_doc(doc, path):
    expect(isinstance(doc, dict), "top level is not an object")
    for key, kind in (("schema_version", int), ("bench", str),
                      ("git_sha", str), ("host", dict), ("config", dict),
                      ("rows", list)):
        expect(key in doc, f"missing top-level '{key}'")
        expect(isinstance(doc[key], kind),
               f"'{key}' is not a {kind.__name__}")
    expect(doc["schema_version"] == 1,
           f"unsupported schema_version {doc['schema_version']}")
    expect(doc["bench"], "empty bench name")
    for key in ("cores", "trace_enabled", "sanitizer"):
        expect(key in doc["host"], f"host missing '{key}'")
    labels = set()
    for i, row in enumerate(doc["rows"]):
        where = f"rows[{i}]"
        expect(isinstance(row, dict), f"{where}: not an object")
        for key in ("label", "metrics", "cpu_breakdown"):
            expect(key in row, f"{where}: missing '{key}'")
        label = row["label"]
        expect(isinstance(label, str) and label, f"{where}: empty label")
        expect(label not in labels, f"{where}: duplicate label '{label}'")
        labels.add(label)
        expect(isinstance(row["metrics"], dict) and row["metrics"],
               f"{where} ('{label}'): no metrics")
        for name, agg in row["metrics"].items():
            check_metric(name, agg, f"{where} ('{label}')")
        check_attribution(row["metrics"], f"{where} ('{label}')")
        if row["cpu_breakdown"] is not None:
            check_profile(row["cpu_breakdown"], f"{where} ('{label}')")
    check_marginal_cost(doc, path)
    check_ops_overhead(doc, path)
    check_deco_bytes(doc, path)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in sys.argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            check_doc(doc, path)
        except (OSError, ValueError) as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            status = 1
            continue
        except BadDoc as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            status = 1
            continue
        print(f"OK {path}: bench '{doc['bench']}', {len(doc['rows'])} rows")
    return status


if __name__ == "__main__":
    sys.exit(main())
