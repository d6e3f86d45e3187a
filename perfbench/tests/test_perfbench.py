"""Tests of the benchmark itself: references, spans, seeds, coverage.

Run from the repository root:  python3 -m pytest perfbench/tests
The last two tests run traced workloads and take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- references and failure accounting -------------------------------------

def test_reference_phase_passes_and_perturbed_phase_fails():
    assert workloads.check_phase("mu56", "cube3", 3, "1/3")["ok"]
    bad = workloads.check_phase("mu56", "cube3", 3, "2/3")
    assert not bad["ok"] and not bad["known"]


def test_known_red_line_is_failed_but_known():
    rec = workloads.check_phase("mu56", "p1b3", 3, "2/3")
    assert not rec["ok"] and rec["known"]
    rec = workloads.check_phase("tjunction", "particle-quad", 3, "1/3")
    assert rec["ok"]


def test_perturbed_torsion_fails():
    assert workloads.check_torsion((2, 0, 2), [4])["ok"]
    assert not workloads.check_torsion((2, 0, 2), [2])["ok"]
    assert not workloads.check_torsion((2, 0, 3), [2, 2])["ok"]


def _verify_table_doc(measured):
    rows = [{"action": a, "N": N,
             "measured": {"num": int(m.split("/")[0]),
                          "den": int(m.split("/")[1]) if "/" in m else 1}}
            for (a, N), m in measured.items()]
    return json.dumps({"rows": rows[:7], "undetected": rows[7:]})


def test_verify_table_output_is_checked_row_by_row():
    measured = dict(workloads.MU56_REFERENCE)
    out = workloads.check_cli(["verify-table", "--json"],
                              _verify_table_doc(measured), 9)
    assert all(r["ok"] for r in out)
    measured[("p1b4", 3)] = "2/3"
    out = workloads.check_cli(["verify-table", "--json"],
                              _verify_table_doc(measured), 9)
    assert [r["op"] for r in out if not r["ok"]] == ["mu56 p1b4 N=3"]


def test_unreadable_output_fails_every_expected_op():
    out = workloads.check_cli(["verify-table", "--json"], "oops", 9)
    assert len(out) == 9 and not any(r["ok"] or r["known"] for r in out)
    rep = run.Repetition(False)
    rep.records = out
    result, _ = run.summarize("table", [rep, rep], False)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 9, 9)


def test_selftest_needs_every_golden_check():
    good = "\n".join(f"pass: {n}" for n in workloads.SELFTEST_GOLDEN)
    assert workloads.check_selftest(good)["ok"]
    bad = good.replace("pass: golden trace", "FAIL: golden trace")
    assert not workloads.check_selftest(bad)["ok"]


def _legality_docs():
    successes = [{"trial": 1, "f": {"0": 1}, "residual_shape": [3, 2]}]
    result = {"attempts": 2, "successes": successes}
    checkpoint = {"done": 2, "successes": successes, "rng": [3, [1], None]}
    return result, checkpoint, dict(result)


def test_agreeing_legality_scan_passes():
    out = workloads.check_legality(2, *_legality_docs())
    assert len(out) == 2 and all(r["ok"] for r in out)


@pytest.mark.parametrize("perturb", [
    lambda r, c, s: c.update(done=1),
    lambda r, c, s: c.update(successes=[]),
    lambda r, c, s: c.pop("rng"),
    lambda r, c, s: s.update(successes=[]),
    lambda r, c, s: r.update(attempts=3),
])
def test_perturbed_checkpoint_or_resume_fails(perturb):
    result, checkpoint, resumed = _legality_docs()
    perturb(result, checkpoint, resumed)
    out = workloads.check_legality(2, result, checkpoint, resumed)
    assert len(out) == 2 and not any(r["ok"] or r["known"] for r in out)


def test_summary_counts_red_lines_and_flags_unknown_failures():
    rep = run.Repetition(False)
    rep.setup_s, rep.wall_s, rep.rss_kib = 1.0, 3.0, 2048
    rep.records = [workloads.check_phase("mu56", "cube3", 3, "1/3"),
                   workloads.check_phase("mu56", "p1b3", 3, "2/3")]
    result, _ = run.summarize("table", [rep], False)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (True, 2, 1)
    assert result["metrics"]["ops_per_s"]["value"] == 1.0
    rep.records.append(workloads.check_phase("mu56", "p1b4", 3, "0"))
    result, _ = run.summarize("table", [rep], False)
    assert (result["correct"], result["failed"]) == (False, 2)


def _rep(*phases):
    rep = run.Repetition(False)
    rep.setup_s, rep.wall_s, rep.rss_kib = 1.0, 3.0, 2048
    rep.records = [workloads.check_phase("mu56", a, 3, got)
                   for a, got in phases]
    return rep


def test_each_op_is_attempted_once_per_run():
    reps = [_rep(("cube3", "1/3"), ("p1b3", "2/3")) for _ in range(3)]
    result, _ = run.summarize("table", reps, False)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (True, 2, 1)


def test_output_that_changes_between_repetitions_is_incorrect():
    reps = [_rep(("cube3", "1/3"), ("p1b3", "2/3")),
            _rep(("cube3", "1/3"), ("p1b3", "1/3"))]
    result, lines = run.summarize("table", reps, False)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 2, 1)
    assert any(ln.startswith("  UNSTABLE mu56 p1b3") for ln in lines)


# --- spans -------------------------------------------------------------------

def test_self_times_on_a_synthetic_nest():
    nest = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 3.0, 6.0, 0, 0],   # overlaps b: the union counts once
        ["d", 2.0, 3.0, 1, 0],
        ["e", 7.0, 8.0, None, 1],
    ]
    assert spans.self_times(nest) == [5.0, 2.0, 3.0, 1.0, 1.0]
    inclusive, own = spans.totals(nest)
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 3.0, "d": 1.0, "e": 1.0}
    assert own["a"] == 5.0 and own["b"] == 2.0


def test_tracer_records_parent_and_op():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        after=lambda r, x: tracer.counts.update(out=r))
    tracer.op = 7
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, None, 7],
                            ["inner", 1.0, 2.0, 0, 7]]
    assert tracer.counts["out"] == 4
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_layer_metrics_cover_every_declared_metric():
    got = spans.layer_metrics({}, {}, {})
    assert set(got) | {"trace.overhead_ratio"} == set(spans.LAYER_UNITS)
    for used in workloads.LAYERS_USED.values():
        assert set(used) <= set(spans.LAYER_UNITS)


# --- seeds ---------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seed_different_inputs(name):
    assert workloads.make_inputs(name, 5) != workloads.make_inputs(name, 6)


# --- traced runs ---------------------------------------------------------------

def _traced(name, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_used_layer_fires(name):
    result = _traced(name)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(spans.LAYER_UNITS)
    silent = [m for m in workloads.LAYERS_USED[name]
              if not metrics[m]["value"]]
    assert not silent


@pytest.mark.slow
def test_exact_counts_repeat_for_a_fixed_seed():
    first, second = _traced("search"), _traced("search")
    for key in spans.EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key]
    assert first["metrics"]["intmat.pivots"]["value"] > 0
