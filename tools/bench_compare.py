#!/usr/bin/env python3
"""Compares Deco bench JSON documents and fails on regressions.

Usage:
  # Diff two documents (baseline first):
  tools/bench_compare.py BASELINE.json CURRENT.json

  # Diff a directory of checked-in baselines against fresh runs; files
  # are matched on their "bench" field:
  tools/bench_compare.py --baseline-dir bench/baselines CURRENT.json ...

  # Refresh the checked-in baselines from fresh runs:
  tools/bench_compare.py --baseline-dir bench/baselines --update-baseline \
      CURRENT.json ...

Tolerance rules (applied to the per-metric *median* across repeats):

  * When both documents were produced with --sim, the structural metrics
    (total_messages, total_bytes, total_dropped, windows_emitted,
    correction_steps, events_processed, bytes_per_event) are
    machine-independent and must match exactly; timing metrics are
    ignored. This is the CI mode: checked-in baselines stay valid on any
    host.
  * Otherwise: throughput_eps may not drop more than 5%; the latency
    metrics may not rise more than 10%; bytes_per_event must be
    bit-stable for the exact schemes (central, scotty, disco, deco-mon,
    deco-sync, deco-monlocal) and within 1% for the rest; structural
    metrics are informational (wall-clock runs schedule nondeterministically).
  * total_dropped may never rise, in any mode: a throttled or lossy run
    (--drop) is a regression by definition.
  * Accuracy metrics (bench/accuracy_attribution): under --sim the whole
    run replays byte-identically, so mean_abs_error and the signed
    err_total/err_drop/err_staleness/err_approx sums — plus the
    windows_estimated/windows_corrected/partials_missing counts — must
    match exactly. In wall-clock mode mean_abs_error may not rise more
    than 25% (scheduling jitter moves which windows straddle a
    correction); the signed sums and counts are informational.
  * Every other metric (wall_seconds, cpu_total_nanos, allocations,
    queue_depth_high_water, ...) is informational only.

Baselines are paired on (bench, sim-mode): a --sim document matches the
checked-in BENCH_<name>.json, a wall-clock document matches
BENCH_<name>.wall.json, so one directory holds both kinds side by side.

Documents produced under a sanitizer are refused: sanitizer timing is not
comparable with anything, including itself. Two wall-clock documents
recorded on hosts with different core counts (host.cores) are refused too:
their throughput and latency measure different machines.

Exit codes: 0 no regressions, 1 regressions found, 2 usage/input error.
"""

import argparse
import json
import os
import shutil
import sys

THROUGHPUT_DROP_TOLERANCE = 0.05
LATENCY_RISE_TOLERANCE = 0.10
BYTES_PER_EVENT_TOLERANCE = 0.01
ERROR_RISE_TOLERANCE = 0.25

HIGHER_BETTER = {"throughput_eps": THROUGHPUT_DROP_TOLERANCE}
LOWER_BETTER = {
    "latency_mean_nanos": LATENCY_RISE_TOLERANCE,
    "latency_p50_nanos": LATENCY_RISE_TOLERANCE,
    "latency_p99_nanos": LATENCY_RISE_TOLERANCE,
    "mean_abs_error": ERROR_RISE_TOLERANCE,
}
STRUCTURAL = {
    "total_messages",
    "total_bytes",
    "windows_emitted",
    "correction_steps",
    "events_processed",
    "bytes_per_event",
    # Accuracy attribution: deterministic replay makes both the counts and
    # the error decomposition exact under --sim.
    "windows_estimated",
    "windows_corrected",
    "partials_missing",
    "mean_abs_error",
    "err_total",
    "err_drop",
    "err_staleness",
    "err_approx",
}
EXACT_SCHEMES = {
    "central", "scotty", "disco", "deco-mon", "deco-sync", "deco-monlocal",
}


def fail(message):
    print(f"bench_compare: error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    for key in ("schema_version", "bench", "host", "config", "rows"):
        if key not in doc:
            fail(f"{path}: missing '{key}' (not a bench JSON?)")
    if doc["schema_version"] != 1:
        fail(f"{path}: unsupported schema_version {doc['schema_version']}")
    sanitizer = doc["host"].get("sanitizer", "none")
    if sanitizer != "none":
        fail(f"{path}: refusing document built with -fsanitize={sanitizer}; "
             "sanitizer timings are not comparable")
    return doc


def baseline_name(doc):
    """Checked-in baseline filename for a document: sim documents pair
    with BENCH_<name>.json, wall-clock ones with BENCH_<name>.wall.json."""
    suffix = "" if doc["config"].get("sim") else ".wall"
    return f"BENCH_{doc['bench']}{suffix}.json"


def row_scheme(label):
    """The scheme part of a row label ('deco-sync/nodes=4' -> 'deco-sync')."""
    return label.split("/", 1)[0].split(".", 1)[0]


def compare_rows(bench, base_row, cur_row, both_sim, findings):
    label = base_row["label"]
    scheme = row_scheme(label)
    for metric, base in base_row["metrics"].items():
        cur = cur_row["metrics"].get(metric)
        where = f"{bench}: {label}: {metric}"
        if cur is None:
            findings.append(("REGRESSION", where, "metric missing in current"))
            continue
        b, c = base["median"], cur["median"]
        if metric == "total_dropped":
            # A throttled/lossy run is a regression in any mode.
            if c > b:
                findings.append(
                    ("REGRESSION", where,
                     f"messages dropped rose: {b:g} -> {c:g}"))
            continue
        if both_sim:
            if metric in STRUCTURAL:
                if b != c:
                    findings.append(
                        ("REGRESSION", where,
                         f"structural metric changed under --sim: "
                         f"{b!r} -> {c!r}"))
            continue
        if metric in HIGHER_BETTER:
            tol = HIGHER_BETTER[metric]
            if b > 0 and c < b * (1.0 - tol):
                findings.append(
                    ("REGRESSION", where,
                     f"dropped {100.0 * (1.0 - c / b):.1f}% "
                     f"({b:.6g} -> {c:.6g}, tolerance {100 * tol:.0f}%)"))
        elif metric in LOWER_BETTER:
            tol = LOWER_BETTER[metric]
            if b > 0 and c > b * (1.0 + tol):
                findings.append(
                    ("REGRESSION", where,
                     f"rose {100.0 * (c / b - 1.0):.1f}% "
                     f"({b:.6g} -> {c:.6g}, tolerance {100 * tol:.0f}%)"))
        elif metric == "bytes_per_event":
            if scheme in EXACT_SCHEMES:
                if b != c:
                    findings.append(
                        ("REGRESSION", where,
                         f"must be bit-stable for scheme '{scheme}': "
                         f"{b!r} -> {c!r}"))
            elif b > 0 and abs(c - b) > b * BYTES_PER_EVENT_TOLERANCE:
                findings.append(
                    ("REGRESSION", where,
                     f"changed {100.0 * abs(c - b) / b:.2f}% "
                     f"({b:.6g} -> {c:.6g}, tolerance "
                     f"{100 * BYTES_PER_EVENT_TOLERANCE:.0f}%)"))
        # everything else: informational only


def compare_docs(base, cur, findings, notes):
    bench = base["bench"]
    if cur["bench"] != bench:
        fail(f"bench mismatch: baseline is '{bench}', "
             f"current is '{cur['bench']}'")
    both_sim = bool(base["config"].get("sim")) and bool(
        cur["config"].get("sim"))
    both_wall = not base["config"].get("sim") and not cur["config"].get("sim")
    if both_wall and base["host"].get("cores") != cur["host"].get("cores"):
        fail(f"{bench}: refusing to compare wall-clock documents recorded on "
             f"{base['host'].get('cores')} and {cur['host'].get('cores')} "
             "cores; re-record the baseline on a host like this one")
    if bool(base["config"].get("sim")) != bool(cur["config"].get("sim")):
        notes.append(f"{bench}: one side is --sim and the other is not; "
                     "timing rules apply, structural exactness does not")
    cur_rows = {r["label"]: r for r in cur["rows"]}
    for base_row in base["rows"]:
        cur_row = cur_rows.pop(base_row["label"], None)
        if cur_row is None:
            findings.append(
                ("REGRESSION", f"{bench}: {base_row['label']}",
                 "row missing in current document"))
            continue
        compare_rows(bench, base_row, cur_row, both_sim, findings)
    for label in cur_rows:
        notes.append(f"{bench}: new row '{label}' (not in baseline)")


def render_report(findings, notes, pairs):
    lines = ["# Bench comparison", ""]
    for base_path, cur_path in pairs:
        lines.append(f"- baseline `{base_path}` vs current `{cur_path}`")
    lines.append("")
    if findings:
        lines.append(f"## {len(findings)} regression(s)")
        lines.append("")
        lines.append("| where | what |")
        lines.append("|---|---|")
        for _, where, what in findings:
            lines.append(f"| {where} | {what} |")
    else:
        lines.append("## No regressions")
    if notes:
        lines.append("")
        lines.append("## Notes")
        lines.append("")
        for note in notes:
            lines.append(f"- {note}")
    lines.append("")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="BASELINE.json CURRENT.json, or with "
                        "--baseline-dir one or more CURRENT.json")
    parser.add_argument("--baseline-dir",
                        help="directory of checked-in BENCH_<name>.json "
                        "baselines, matched on the 'bench' field")
    parser.add_argument("--report", help="also write the markdown report here")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy the current documents into "
                        "--baseline-dir instead of comparing")
    args = parser.parse_args()

    pairs = []  # (baseline_path, current_path)
    if args.baseline_dir:
        if args.update_baseline:
            os.makedirs(args.baseline_dir, exist_ok=True)
            for path in args.files:
                doc = load(path)
                dest = os.path.join(args.baseline_dir, baseline_name(doc))
                shutil.copyfile(path, dest)
                print(f"updated {dest}")
            return 0
        for path in args.files:
            doc = load(path)
            base_path = os.path.join(args.baseline_dir, baseline_name(doc))
            if not os.path.exists(base_path):
                fail(f"no baseline for bench '{doc['bench']}' "
                     f"(expected {base_path}; run with --update-baseline "
                     "to create it)")
            pairs.append((base_path, path))
    else:
        if args.update_baseline:
            fail("--update-baseline requires --baseline-dir")
        if len(args.files) != 2:
            fail("expected exactly BASELINE.json CURRENT.json "
                 "(or use --baseline-dir)")
        pairs.append((args.files[0], args.files[1]))

    findings, notes = [], []
    for base_path, cur_path in pairs:
        compare_docs(load(base_path), load(cur_path), findings, notes)

    report = render_report(findings, notes, pairs)
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
