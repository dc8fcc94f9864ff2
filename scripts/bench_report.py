#!/usr/bin/env python3
"""Aggregates BENCH_<name>.json files (emitted by the benches' --metrics-out
flag) into the paper's markdown tables and optionally gates them against a
checked-in baseline.

Usage:
  bench_report.py FILE_OR_DIR...                   # print markdown report
  bench_report.py FILE_OR_DIR... --out report.md   # write it to a file
  bench_report.py FILE_OR_DIR... --check-baseline scripts/bench_baseline.json

Exit status is non-zero when --check-baseline is given and any check fails,
so CI can gate on it directly.

File format (see bench/bench_common.h BenchMetricsWriter):
  {"bench": "<name>", "experiments": [
     {"label": "<bench>.<scheme>[.<variant>]", "scheme": "...",
      "device": {..., "write_amplification": W, "telemetry": {...}},
      "results": {...}, "metrics": {"counters": {...}, ...}}]}

Baseline format (scripts/bench_baseline.json): {"checks": [...]} where each
check is one of
  {"type": "wa_leq",      "bench": B, "label": L, "other": M, "slack": S}
      device WA of L must be <= WA of M + S
  {"type": "result_geq",  "bench": B, "label": L, "key": K, "min": V}
  {"type": "result_leq",  "bench": B, "label": L, "key": K, "max": V}
      results[K] bound (absolute, already including any tolerance)
  {"type": "reduction_geq", "bench": B, "baseline_label": L0, "label": L,
   "key": K, "min_pct": P}
      (1 - results[K](L)/results[K](L0)) * 100 must be >= P
  {"type": "ratio_geq", "bench": B, "base_label": L0, "label": L,
   "key": K, "min_ratio": R}
  {"type": "ratio_leq", "bench": B, "base_label": L0, "label": L,
   "key": K, "max_ratio": R}
      results[K](L) / results[K](L0) bound (ratio_leq is the degradation
      gate: e.g. mixed-workload p999 over the OLTP-only baseline)
  {"type": "counter_geq", "bench": B, "label": L, "counter": C, "min": V}
  {"type": "counter_leq", "bench": B, "label": L, "counter": C, "max": V}
      metrics.counters[C] bound
  {"type": "percentile_leq", "bench": B, "label": L, "histogram": H,
   "quantile": Q, "max": V}
      metrics.histograms[H][Q] must be <= V (Q is a summary field such as
      "p999_ns"; the tail-latency gate)
  {"type": "phase_sum_within", "bench": B, "label": L, "latency": H,
   "phases": [H1, ...], "tolerance_pct": P}
      sum over the phase histograms of mean_ns*count must be within P% of
      mean_ns*count of the end-to-end latency histogram H (the span
      attribution invariant; see docs/OBSERVABILITY.md)
Every check accepts an optional "desc". Checks referencing a bench with no
loaded file are reported as skipped (not failures) unless "required": true.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any

# BENCH_*.json documents are schemaless by design (each bench emits its own
# result keys), so experiments stay as loosely-typed JSON objects and every
# numeric read goes through a narrowing helper below.
Experiment = dict[str, Any]
ExpMap = dict[str, Experiment]
BenchMap = dict[str, ExpMap]
Check = dict[str, Any]


def load_files(paths: list[str]) -> BenchMap:
    """Returns {bench_name: {label: experiment}} from files/dirs/globs."""
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "BENCH_*.json"))))
        else:
            files.append(p)
    benches: BenchMap = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "bench" not in doc:
            continue  # e.g. the BENCH_*.json.trace.json span exports
        by_label = benches.setdefault(str(doc["bench"]), {})
        for exp in doc.get("experiments", []):
            by_label[str(exp["label"])] = exp
    return benches


def as_num(v: object) -> float | None:
    """JSON value -> float, or None for anything non-numeric."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    return float(v)


def fmt(v: float | None, nd: int = 1) -> str:
    if v is None:
        return "-"
    return f"{v:.{nd}f}"


def wa_of(exp: Experiment) -> float | None:
    return as_num(exp.get("device", {}).get("write_amplification"))


def res(exp: Experiment, key: str) -> float | None:
    return as_num(exp.get("results", {}).get(key))


def tpcc_errors(exp: Experiment) -> float:
    """TPC-C transactions the leg's run failed (say, on a full device). A
    leg with any did not complete: its figures are shown, but marked."""
    return res(exp, "tpcc_errors") or 0.0


def hist_of(exp: Experiment, name: str) -> dict[str, Any] | None:
    h = exp.get("metrics", {}).get("histograms", {}).get(name)
    return h if isinstance(h, dict) else None


def hist_total_ns(h: dict[str, Any]) -> float | None:
    """Total virtual time in a histogram summary: mean_ns * count."""
    mean, count = as_num(h.get("mean_ns")), as_num(h.get("count"))
    if mean is None or count is None:
        return None
    return mean * count


# ---------------------------------------------------------------------------
# Markdown tables
# ---------------------------------------------------------------------------

def report_write_reduction(name: str, exps: ExpMap) -> list[str]:
    """The paper's Table 1 (write amount + reduction) plus the WA/wear
    summary the flash-telemetry layer adds."""
    out = [f"## {name} (paper Table 1)", ""]
    si = next((e for e in exps.values() if e["scheme"] == "SI"), None)
    if si is None:
        return out + ["_no SI baseline run in file_", ""]
    # Window columns come from the SI run's results keys.
    windows = sorted(
        int(k[len("written_mb_window"):])
        for k in si["results"] if k.startswith("written_mb_window"))
    labels = sorted(exps)
    incomplete = [l for l in labels if tpcc_errors(exps[l])]

    def leg(l: str) -> str:
        name = l.split('.', 1)[1]
        return f"{name} (incomplete)" if l in incomplete else name

    header = "| window (vsec) | " + " | ".join(
        f"{leg(l)} (MB)" for l in labels) + " | " + " | ".join(
        f"red {leg(l)} (%)" for l in labels
        if exps[l] is not si) + " |"
    sep = "|" + "---|" * (1 + len(labels) + len(labels) - 1)
    out += [header, sep]
    for w in windows:
        key = f"written_mb_window{w}"
        vsec = res(si, f"window{w}_vsec")
        row = [fmt(vsec, 1)]
        for l in labels:
            row.append(fmt(res(exps[l], key)))
        for l in labels:
            if exps[l] is si:
                continue
            base, v = res(si, key), res(exps[l], key)
            red = 100.0 * (1.0 - v / base) if base and v is not None else None
            row.append(fmt(red, 0))
        out.append("| " + " | ".join(row) + " |")
    out += ["", "### Device write amplification and wear", ""]
    out += ["| run | WA | GC page moves | block erases | erase p90 | "
            "trim ops |", "|---|---|---|---|---|---|"]
    for l in labels:
        d = exps[l].get("device", {})
        t = d.get("telemetry", {})
        mark = " (incomplete)" if l in incomplete else ""
        out.append(
            f"| {l}{mark} | {fmt(wa_of(exps[l]), 3)} |"
            f" {d.get('gc_page_moves', 0)}"
            f" | {d.get('flash_block_erases', 0)} |"
            f" {t.get('erase_p90', 0)} | {d.get('trim_ops', 0)} |")
    out.append("")
    if incomplete:
        legs = ", ".join(
            f"{l} ({tpcc_errors(exps[l]):.0f} TPC-C errors)"
            for l in incomplete)
        out += [f"_Incomplete: {legs}. Their runs failed transactions (a "
                "full device, say), so their figures do not compare with "
                "the other legs'._", ""]
    return out


def report_ycsb(exps: ExpMap) -> list[str]:
    out = ["## YCSB read/update mix sweep", ""]
    out += ["| run | ops/vsec | written MB | read p99 (ms) | WA |",
            "|---|---|---|---|---|"]
    for l in sorted(exps):
        e = exps[l]
        out.append(
            f"| {l} | {fmt(res(e, 'ops_per_vsec'), 0)} |"
            f" {fmt(res(e, 'written_mb'))} |"
            f" {fmt(res(e, 'read_p99_ms'), 2)} | {fmt(wa_of(e), 3)} |")
    out.append("")
    return out


def report_tpcc(name: str, exps: ExpMap) -> list[str]:
    out = [f"## {name}: TPC-C throughput", ""]
    out += ["| run | NOTPM | committed | NewOrder p90 (vsec) | WA |",
            "|---|---|---|---|---|"]
    for l in sorted(exps):
        e = exps[l]
        out.append(
            f"| {l} | {fmt(res(e, 'notpm'), 0)} |"
            f" {fmt(res(e, 'committed'), 0)} |"
            f" {fmt(res(e, 'new_order_p90_vsec'), 3)} |"
            f" {fmt(wa_of(e), 3)} |")
    out.append("")
    return out


def report_generic(name: str, exps: ExpMap) -> list[str]:
    out = [f"## {name}", ""]
    for l in sorted(exps):
        e = exps[l]
        keys = sorted(e.get("results", {}))
        out += [f"### {l}", ""]
        out += ["| result | value |", "|---|---|"]
        for k in keys:
            out.append(f"| {k} | {fmt(res(e, k), 4)} |")
        out.append("")
    return out


def build_report(benches: BenchMap) -> str:
    lines = ["# Bench report", ""]
    for name in sorted(benches):
        exps = benches[name]
        # Prefix match: CI emits the same bench twice under different
        # configurations via --bench-suffix (e.g. write_reduction_tight).
        if name.startswith("write_reduction"):
            lines += report_write_reduction(name, exps)
        elif name == "ycsb":
            lines += report_ycsb(exps)
        elif name in ("tpcc_ssd", "tpcc_hdd"):
            lines += report_tpcc(name, exps)
        else:
            lines += report_generic(name, exps)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Baseline checks
# ---------------------------------------------------------------------------

def run_check(check: Check, benches: BenchMap) -> tuple[bool | None, str]:
    """Returns (ok, message); ok is None for a skipped check. Malformed
    checks (missing fields) FAIL cleanly via the KeyError guard in
    check_baseline."""
    bench = benches.get(check["bench"])
    desc = str(check.get("desc", check["type"]))
    if bench is None:
        if check.get("required"):
            return False, f"{desc}: bench file for '{check['bench']}' missing"
        return None, f"{desc}: skipped ('{check['bench']}' not loaded)"
    t = check["type"]
    if t == "wa_leq":
        a, b = bench.get(check["label"]), bench.get(check["other"])
        if a is None or b is None:
            return False, f"{desc}: label missing"
        wa, wb = wa_of(a), wa_of(b)
        slack = float(check.get("slack", 0.0))
        ok = wa is not None and wb is not None and wa <= wb + slack
        return ok, (f"{desc}: WA({check['label']})={fmt(wa, 3)} vs "
                    f"WA({check['other']})={fmt(wb, 3)} (slack {slack})")
    if t in ("result_geq", "result_leq"):
        e = bench.get(check["label"])
        if e is None:
            return False, f"{desc}: label {check['label']} missing"
        v = res(e, check["key"])
        if v is None:
            return False, f"{desc}: key {check['key']} missing"
        if t == "result_geq":
            ok, bound = v >= float(check["min"]), f">= {check['min']}"
        else:
            ok, bound = v <= float(check["max"]), f"<= {check['max']}"
        return ok, f"{desc}: {check['key']}={fmt(v, 3)} (want {bound})"
    if t == "reduction_geq":
        e0 = bench.get(check["baseline_label"])
        e = bench.get(check["label"])
        if e0 is None or e is None:
            return False, f"{desc}: label missing"
        v0, v = res(e0, check["key"]), res(e, check["key"])
        if not v0:
            return False, f"{desc}: baseline {check['key']} is zero/missing"
        if v is None:
            return False, f"{desc}: key {check['key']} missing"
        red = 100.0 * (1.0 - v / v0)
        ok = red >= float(check["min_pct"])
        return ok, (f"{desc}: reduction {fmt(red)}% "
                    f"(want >= {check['min_pct']}%)")
    if t in ("ratio_geq", "ratio_leq"):
        e0 = bench.get(check["base_label"])
        e = bench.get(check["label"])
        if e0 is None or e is None:
            return False, f"{desc}: label missing"
        v0, v = res(e0, check["key"]), res(e, check["key"])
        if not v0:
            return False, f"{desc}: baseline {check['key']} is zero/missing"
        if v is None:
            return False, f"{desc}: key {check['key']} missing"
        ratio = v / v0
        if t == "ratio_geq":
            ok, bound = ratio >= float(check["min_ratio"]), \
                f">= {check['min_ratio']}"
        else:
            ok, bound = ratio <= float(check["max_ratio"]), \
                f"<= {check['max_ratio']}"
        return ok, (f"{desc}: {check['label']}/{check['base_label']} "
                    f"{check['key']} ratio {fmt(ratio, 4)} "
                    f"(want {bound})")
    if t in ("counter_geq", "counter_leq"):
        e = bench.get(check["label"])
        if e is None:
            return False, f"{desc}: label {check['label']} missing"
        v = as_num(
            e.get("metrics", {}).get("counters", {}).get(check["counter"]))
        if v is None:
            return False, f"{desc}: counter {check['counter']} missing"
        if t == "counter_geq":
            ok, bound = v >= float(check["min"]), f">= {check['min']}"
        else:
            ok, bound = v <= float(check["max"]), f"<= {check['max']}"
        return ok, f"{desc}: {check['counter']}={v:g} (want {bound})"
    if t == "percentile_leq":
        e = bench.get(check["label"])
        if e is None:
            return False, f"{desc}: label {check['label']} missing"
        h = hist_of(e, check["histogram"])
        if h is None:
            return False, f"{desc}: histogram {check['histogram']} missing"
        v = as_num(h.get(check["quantile"]))
        if v is None:
            return False, (f"{desc}: quantile {check['quantile']} missing "
                           f"from {check['histogram']}")
        ok = v <= float(check["max"])
        return ok, (f"{desc}: {check['histogram']}.{check['quantile']}={v:g} "
                    f"(want <= {check['max']})")
    if t == "phase_sum_within":
        e = bench.get(check["label"])
        if e is None:
            return False, f"{desc}: label {check['label']} missing"
        lat = hist_of(e, check["latency"])
        if lat is None:
            return False, f"{desc}: histogram {check['latency']} missing"
        total = hist_total_ns(lat)
        if not total:
            return False, f"{desc}: {check['latency']} is empty"
        phase_sum = 0.0
        for name in check["phases"]:
            h = hist_of(e, name)
            if h is None:
                # An all-zero phase is legitimately absent (nothing recorded)
                # and contributes 0 to the sum.
                continue
            part = hist_total_ns(h)
            if part is None:
                return False, f"{desc}: histogram {name} malformed"
            phase_sum += part
        drift = 100.0 * abs(phase_sum - total) / total
        ok = drift <= float(check["tolerance_pct"])
        return ok, (f"{desc}: phase sum {phase_sum:.0f}ns vs latency "
                    f"{total:.0f}ns, drift {drift:.2f}% "
                    f"(want <= {check['tolerance_pct']}%)")
    return False, f"{desc}: unknown check type '{t}'"


def check_baseline(baseline_path: str, benches: BenchMap) -> int:
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = 0
    for check in baseline.get("checks", []):
        try:
            ok, msg = run_check(check, benches)
        except KeyError as e:
            # A malformed check (missing field) must surface as a FAIL
            # line, never as a traceback that aborts the remaining checks.
            desc = check.get("desc", check.get("type", "<no type>"))
            ok, msg = False, f"{desc}: malformed check (missing field {e})"
        if ok is None:
            print(f"  SKIP  {msg}")
        elif ok:
            print(f"  PASS  {msg}")
        else:
            failures += 1
            print(f"  FAIL  {msg}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    ap.add_argument("inputs", nargs="+",
                    help="BENCH_*.json files or directories holding them")
    ap.add_argument("--out", help="write the markdown report to this file")
    ap.add_argument("--check-baseline", metavar="BASELINE",
                    help="gate the loaded results against this baseline")
    args = ap.parse_args()

    benches = load_files(args.inputs)
    if not benches:
        print("no BENCH_*.json inputs found", file=sys.stderr)
        return 2

    report = build_report(benches)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"report -> {args.out}")
    else:
        print(report, end="")

    if args.check_baseline:
        print(f"baseline: {args.check_baseline}")
        failures = check_baseline(args.check_baseline, benches)
        if failures:
            print(f"{failures} baseline check(s) FAILED")
            return 1
        print("all baseline checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
