#!/usr/bin/env python3
"""Unit tests for scripts/bench_report.py's baseline checker.

Regression coverage for the gate hardening: a missing results key or a
zero/absent baseline value must produce a clean FAIL line (non-zero check
count), and a malformed check (missing a field) must surface as FAIL
without aborting the remaining checks with a KeyError traceback.

Run directly (python3 tests/bench_report_test.py) or via ctest.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stdout
from typing import Any, cast

_SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "scripts",
    "bench_report.py")
_spec = importlib.util.spec_from_file_location("bench_report", _SCRIPT)
assert _spec is not None and _spec.loader is not None
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)

CheckResult = tuple[Any, str]


def _exp(results: dict[str, float] | None = None,
         counters: dict[str, float] | None = None,
         wa: float | None = None,
         histograms: dict[str, dict[str, float]] | None = None
         ) -> dict[str, Any]:
    exp: dict[str, Any] = {"results": results or {}}
    if counters is not None or histograms is not None:
        exp["metrics"] = {}
        if counters is not None:
            exp["metrics"]["counters"] = counters
        if histograms is not None:
            exp["metrics"]["histograms"] = histograms
    if wa is not None:
        exp["device"] = {"write_amplification": wa}
    return exp


def _hist(count: float, mean_ns: float, p999_ns: float = 0.0
          ) -> dict[str, float]:
    return {"count": count, "mean_ns": mean_ns, "p50_ns": mean_ns,
            "p90_ns": mean_ns, "p99_ns": p999_ns, "p999_ns": p999_ns,
            "max_ns": p999_ns}


BENCHES: dict[str, dict[str, dict[str, Any]]] = {
    "read_scaling": {
        "read_scaling.SIAS-V.sync": _exp(
            {"reads_per_vsec": 16000.0, "busy_fraction_mean": 0.19}),
        "read_scaling.SIAS-V.d4": _exp(
            {"reads_per_vsec": 36000.0, "busy_fraction_mean": 0.43}),
        "read_scaling.SIAS-V.zero": _exp(
            {"reads_per_vsec": 0.0, "busy_fraction_mean": 0.0}),
        "read_scaling.SIAS-V.empty": _exp({}),
    },
    "write_reduction": {
        # Phase sum 100*(400+350+200) + 0 absent gc = 95000ns vs latency
        # 100*1000 = 100000ns -> 5% drift.
        "write_reduction.SIAS-V.t2": _exp(histograms={
            "txn.latency.new_order": _hist(50, 2000.0, p999_ns=9000.0),
            "txn.latency.committed": _hist(100, 1000.0, p999_ns=8000.0),
            "txn.phase.apply": _hist(100, 400.0),
            "txn.phase.traversal": _hist(100, 350.0),
            "txn.phase.wal_flush": _hist(100, 200.0),
        }),
        "write_reduction.SIAS-V.empty": _exp(histograms={
            "txn.latency.committed": _hist(0, 0.0),
        }),
    },
}


class RatioGeqTest(unittest.TestCase):
    def check(self, check: dict[str, Any]) -> CheckResult:
        return cast(CheckResult, bench_report.run_check(check, BENCHES))

    def test_passes_on_real_ratio(self) -> None:
        ok, msg = self.check({
            "type": "ratio_geq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.d4",
            "key": "busy_fraction_mean", "min_ratio": 1.5})
        self.assertTrue(ok, msg)

    def test_zero_baseline_fails_cleanly(self) -> None:
        # Division by a zero baseline must FAIL, not raise ZeroDivisionError.
        ok, msg = self.check({
            "type": "ratio_geq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.zero",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "min_ratio": 1.0})
        self.assertFalse(ok)
        self.assertIn("zero/missing", msg)

    def test_missing_baseline_key_fails_cleanly(self) -> None:
        ok, msg = self.check({
            "type": "ratio_geq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.empty",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "min_ratio": 1.0})
        self.assertFalse(ok)
        self.assertIn("zero/missing", msg)

    def test_missing_subject_key_fails_cleanly(self) -> None:
        # Baseline present but the subject label lacks the counter: the old
        # code compared None/v0 and threw TypeError.
        ok, msg = self.check({
            "type": "ratio_geq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.empty",
            "key": "reads_per_vsec", "min_ratio": 1.0})
        self.assertFalse(ok)
        self.assertIn("missing", msg)


class RatioLeqTest(unittest.TestCase):
    """The degradation gate: label/base_label must stay under max_ratio."""

    def check(self, check: dict[str, Any]) -> CheckResult:
        return cast(CheckResult, bench_report.run_check(check, BENCHES))

    def test_passes_under_bound(self) -> None:
        # 36000/16000 = 2.25 <= 3.0.
        ok, msg = self.check({
            "type": "ratio_leq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "max_ratio": 3.0})
        self.assertTrue(ok, msg)

    def test_fails_over_bound(self) -> None:
        ok, msg = self.check({
            "type": "ratio_leq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "max_ratio": 2.0})
        self.assertFalse(ok)
        self.assertIn("ratio 2.2500", msg)
        self.assertIn("<= 2.0", msg)

    def test_zero_baseline_fails_cleanly(self) -> None:
        ok, msg = self.check({
            "type": "ratio_leq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.zero",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "max_ratio": 2.0})
        self.assertFalse(ok)
        self.assertIn("zero/missing", msg)

    def test_missing_subject_key_fails_cleanly(self) -> None:
        ok, msg = self.check({
            "type": "ratio_leq", "bench": "read_scaling",
            "base_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.empty",
            "key": "reads_per_vsec", "max_ratio": 2.0})
        self.assertFalse(ok)
        self.assertIn("missing", msg)

    def test_missing_bound_field_is_malformed(self) -> None:
        # No "max_ratio": the KeyError guard in check_baseline turns this
        # into a FAIL; run_check itself raises.
        with self.assertRaises(KeyError):
            self.check({
                "type": "ratio_leq", "bench": "read_scaling",
                "base_label": "read_scaling.SIAS-V.sync",
                "label": "read_scaling.SIAS-V.d4",
                "key": "reads_per_vsec"})


class ReductionGeqTest(unittest.TestCase):
    def test_zero_baseline_fails_cleanly(self) -> None:
        ok, msg = cast(CheckResult, bench_report.run_check({
            "type": "reduction_geq", "bench": "read_scaling",
            "baseline_label": "read_scaling.SIAS-V.zero",
            "label": "read_scaling.SIAS-V.d4",
            "key": "reads_per_vsec", "min_pct": 10}, BENCHES))
        self.assertFalse(ok)
        self.assertIn("zero/missing", msg)

    def test_missing_subject_key_fails_cleanly(self) -> None:
        ok, msg = cast(CheckResult, bench_report.run_check({
            "type": "reduction_geq", "bench": "read_scaling",
            "baseline_label": "read_scaling.SIAS-V.sync",
            "label": "read_scaling.SIAS-V.empty",
            "key": "reads_per_vsec", "min_pct": 10}, BENCHES))
        self.assertFalse(ok)
        self.assertIn("missing", msg)


class PercentileLeqTest(unittest.TestCase):
    def check(self, check: dict[str, Any]) -> CheckResult:
        return cast(CheckResult, bench_report.run_check(check, BENCHES))

    def test_passes_under_bound(self) -> None:
        ok, msg = self.check({
            "type": "percentile_leq", "bench": "write_reduction",
            "label": "write_reduction.SIAS-V.t2",
            "histogram": "txn.latency.new_order",
            "quantile": "p999_ns", "max": 10000})
        self.assertTrue(ok, msg)

    def test_fails_over_bound(self) -> None:
        ok, msg = self.check({
            "type": "percentile_leq", "bench": "write_reduction",
            "label": "write_reduction.SIAS-V.t2",
            "histogram": "txn.latency.new_order",
            "quantile": "p999_ns", "max": 5000})
        self.assertFalse(ok)
        self.assertIn("p999_ns=9000", msg)

    def test_missing_histogram_fails_cleanly(self) -> None:
        ok, msg = self.check({
            "type": "percentile_leq", "bench": "write_reduction",
            "label": "write_reduction.SIAS-V.t2",
            "histogram": "txn.latency.nope",
            "quantile": "p999_ns", "max": 5000})
        self.assertFalse(ok)
        self.assertIn("missing", msg)

    def test_missing_label_fails_cleanly(self) -> None:
        ok, msg = self.check({
            "type": "percentile_leq", "bench": "write_reduction",
            "label": "write_reduction.SIAS-V.nope",
            "histogram": "txn.latency.new_order",
            "quantile": "p999_ns", "max": 5000})
        self.assertFalse(ok)
        self.assertIn("missing", msg)


class PhaseSumWithinTest(unittest.TestCase):
    PHASES = ["txn.phase.lock_wait", "txn.phase.io_wait",
              "txn.phase.wal_flush", "txn.phase.traversal",
              "txn.phase.gc_defer", "txn.phase.apply"]

    def check(self, tolerance_pct: float,
              label: str = "write_reduction.SIAS-V.t2",
              latency: str = "txn.latency.committed") -> CheckResult:
        return cast(CheckResult, bench_report.run_check({
            "type": "phase_sum_within", "bench": "write_reduction",
            "label": label, "latency": latency,
            "phases": self.PHASES, "tolerance_pct": tolerance_pct}, BENCHES))

    def test_passes_within_tolerance(self) -> None:
        # 95000ns phase sum vs 100000ns latency: 5% drift.
        ok, msg = self.check(10)
        self.assertTrue(ok, msg)

    def test_fails_outside_tolerance(self) -> None:
        ok, msg = self.check(2)
        self.assertFalse(ok)
        self.assertIn("drift 5.00%", msg)

    def test_absent_phases_count_as_zero(self) -> None:
        # Only apply/traversal/wal_flush histograms exist; absent phases
        # must contribute 0, not fail the check.
        ok, msg = self.check(6)
        self.assertTrue(ok, msg)

    def test_empty_latency_fails_cleanly(self) -> None:
        ok, msg = self.check(10, label="write_reduction.SIAS-V.empty")
        self.assertFalse(ok)
        self.assertIn("empty", msg)

    def test_missing_latency_fails_cleanly(self) -> None:
        ok, msg = self.check(10, latency="txn.latency.nope")
        self.assertFalse(ok)
        self.assertIn("missing", msg)


class MalformedCheckTest(unittest.TestCase):
    def run_baseline(self, checks: list[dict[str, Any]]) -> tuple[int, str]:
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as fh:
            json.dump({"checks": checks}, fh)
            path = fh.name
        try:
            out = io.StringIO()
            with redirect_stdout(out):
                failures = cast(
                    int, bench_report.check_baseline(path, BENCHES))
            return failures, out.getvalue()
        finally:
            os.unlink(path)

    def test_missing_field_is_fail_not_traceback(self) -> None:
        # No "min_ratio": must be one FAIL line, and the following valid
        # check must still run (and pass).
        failures, out = self.run_baseline([
            {"type": "ratio_geq", "bench": "read_scaling",
             "base_label": "read_scaling.SIAS-V.sync",
             "label": "read_scaling.SIAS-V.d4", "key": "reads_per_vsec",
             "desc": "broken"},
            {"type": "result_geq", "bench": "read_scaling",
             "label": "read_scaling.SIAS-V.d4", "key": "reads_per_vsec",
             "min": 1, "desc": "still runs"},
        ])
        self.assertEqual(failures, 1)
        self.assertIn("malformed check", out)
        self.assertIn("PASS  still runs", out)

    def test_missing_type_is_fail(self) -> None:
        failures, out = self.run_baseline([{"bench": "read_scaling"}])
        self.assertEqual(failures, 1)
        self.assertIn("malformed check", out)

    def test_unknown_bench_skips_unless_required(self) -> None:
        failures, out = self.run_baseline([
            {"type": "result_geq", "bench": "nope", "label": "x", "key": "k",
             "min": 1, "desc": "optional"},
            {"type": "result_geq", "bench": "nope", "label": "x", "key": "k",
             "min": 1, "required": True, "desc": "mandatory"},
        ])
        self.assertEqual(failures, 1)
        self.assertIn("SKIP  optional", out)
        self.assertIn("FAIL  mandatory", out)


class IncompleteLegTest(unittest.TestCase):
    """A write-reduction leg whose TPC-C run failed transactions is marked
    incomplete in the report instead of passing for a finished run."""

    def test_leg_with_errors_is_marked(self) -> None:
        def leg(scheme: str, errors: float) -> dict[str, Any]:
            e = _exp({"written_mb_window0": 10.0, "window0_vsec": 2.0,
                      "tpcc_errors": errors}, wa=1.0)
            e["scheme"] = scheme
            return e

        exps = {"write_reduction.SI": leg("SI", 0),
                "write_reduction.SIAS-Chains.t1": leg("SIAS-Chains", 42),
                "write_reduction.SIAS-V.t2": leg("SIAS-V", 0)}
        text = "\n".join(
            bench_report.report_write_reduction("write_reduction_tight", exps))
        self.assertIn("SIAS-Chains.t1 (incomplete) (MB)", text)
        self.assertIn("| write_reduction.SIAS-Chains.t1 (incomplete) |", text)
        self.assertIn("write_reduction.SIAS-Chains.t1 (42 TPC-C errors)", text)
        self.assertNotIn("SIAS-V.t2 (incomplete)", text)
        self.assertNotIn("SI (incomplete)", text)

    def test_complete_legs_have_no_note(self) -> None:
        e = _exp({"written_mb_window0": 10.0, "window0_vsec": 2.0,
                  "tpcc_errors": 0.0})
        e["scheme"] = "SI"
        text = "\n".join(bench_report.report_write_reduction(
            "write_reduction", {"write_reduction.SI": e}))
        self.assertNotIn("ncomplete", text)


if __name__ == "__main__":
    unittest.main()
