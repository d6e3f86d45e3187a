"""The chainphase benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its
``src`` directory.  One run repeats its workload in a closed loop (one
process at a time, one thread, each repetition starting when the
previous one ends) until `--seconds` have passed, and each repetition
runs in fresh interpreters so nothing cached carries over.  Every
repetition of a run uses the same inputs, which `workloads.make_inputs`
derives from `--seed` before timing.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, each the median over repetitions:

* ``setup_s``: interpreter start until the first op is ready (import
  and term lists), summed over the repetition's timed processes.
* ``wall_s``: interpreter start until the verdict, for one repetition.
* ``ops_per_s``: ops / (wall_s - setup_s).
* ``peak_rss_mib``: peak resident memory of the repetition's processes.

``attempted`` and ``failed`` count the run's distinct ops against the
references in `workloads`, each once however many repetitions ran, so
they depend on the seed alone; the lines above the JSON give
``fail_ratio``, quartiles and sample counts.  With ``--trace 1`` the
run alternates untraced and traced repetitions and reports the
per-layer metrics of `spans`, plus ``trace.overhead_ratio`` (traced
over untraced wall time).  Spans are written to
``.perfbench/<workload>-seed<N>-spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "peak_rss_mib": "MiB"}


class Repetition:
    """Timings, op records and layer data of one repetition."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.rss_kib = 0
        self.records: list[dict] = []
        self.inclusive: dict = {}
        self.own: dict = {}
        self.counts: dict = {}
        self.spans: list = []

    def metrics(self) -> dict:
        busy = self.wall_s - self.setup_s  # not positive only if a child failed
        return {"setup_s": self.setup_s, "wall_s": self.wall_s,
                "ops_per_s": len(self.records) / busy if busy > 0 else 0.0,
                "peak_rss_mib": self.rss_kib / 1024}

    def absorb(self, child: dict) -> None:
        """Add one traced child's spans and counters."""
        inclusive, own = spans.totals(child["spans"])
        for into, add in ((self.inclusive, inclusive), (self.own, own),
                          (self.counts, child["counts"])):
            for key, value in add.items():
                into[key] = into.get(key, 0) + value
        self.spans.extend(child["spans"])


class Runner:
    """Spawns child processes inside one scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.serial = 0

    def spawn(self, rep: Repetition, spec: dict, traced: bool):
        """Run one child; returns (result or None, wall seconds, ready
        seconds, 0 if it failed).  Adds its memory and, if traced, its
        spans to `rep`."""
        self.serial += 1
        spec = dict(spec, src=str(SRC), trace=traced,
                    result=str(self.workdir / f"result{self.serial}.json"))
        spec_path = self.workdir / f"spec{self.serial}.json"
        spec_path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None, wall, 0.0
        child = json.loads(Path(spec["result"]).read_text())
        rep.rss_kib = max(rep.rss_kib, child["rss_kib"])
        if traced:
            rep.absorb(child)
        return child, wall, child["ready"] - start


def _op_output(child, i):
    if child is None:
        return {"error": "child process failed"}
    return child["outputs"][i]


def _cli_records(argv, output, expect_ops):
    if "error" in output:
        return workloads.failed_ops(argv, expect_ops, output["error"])
    return workloads.check_cli(argv, output["stdout"], expect_ops)


def _expected_ops(argv) -> int:
    return len(workloads.MU56_REFERENCE) if argv[0] == "verify-table" else 1


def rep_table(runner, inputs, traced):
    rep = Repetition(traced)
    seed = ["--seed", str(inputs["cli_seed"])]
    for inv in inputs["invocations"]:
        argv = seed + inv["argv"]
        child, wall, ready = runner.spawn(
            rep, {"actions": inv["actions"], "argv": [argv]}, traced)
        rep.setup_s += ready
        rep.wall_s += wall
        rep.records += _cli_records(inv["argv"], _op_output(child, 0),
                                    _expected_ops(inv["argv"]))
    return rep


def rep_search(runner, inputs, traced):
    """The classify models in one interpreter, then a legality scan of
    `trials` sign functions with a checkpoint in another.  A resume of
    the scan from its checkpoint, untimed, must return the same result."""
    rep = Repetition(traced)
    argvs = [workloads.search_argv(m) for m in inputs["models"]]
    child, rep.wall_s, rep.setup_s = runner.spawn(
        rep, {"actions": [], "argv": argvs}, traced)
    for i, argv in enumerate(argvs):
        rep.records += _cli_records(argv, _op_output(child, i), 1)

    trials = inputs["trials"]
    runner.serial += 1
    checkpoint = runner.workdir / f"checkpoint{runner.serial}.json"
    scan = ["--seed", str(inputs["scan_seed"])] + workloads.search_argv(
        inputs["legality_model"], "--stretch-membrane", "--attempts",
        str(trials), "--checkpoint", str(checkpoint))
    child, wall, ready = runner.spawn(
        rep, {"actions": [], "argv": [scan],
              "checkpoint": str(checkpoint)}, traced)
    rep.wall_s += wall
    rep.setup_s += ready
    resumed, _, _ = runner.spawn(
        Repetition(False), {"actions": [], "argv": [scan]}, False)
    try:
        result = json.loads(_op_output(child, 0)["stdout"])
        saved = json.loads(checkpoint.read_text())
        again = json.loads(_op_output(resumed, 0)["stdout"])
    except (KeyError, OSError, ValueError) as exc:
        result, saved, again = {}, {}, {"error": repr(exc)}
    rep.records += workloads.check_legality(trials, result, saved, again)
    return rep


REPETITIONS = {"table": rep_table, "search": rep_search}


def provenance(workload: str, seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "git_rev": rev,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> list[Repetition]:
    """Closed loop of repetitions until `seconds` have passed; a traced
    run alternates untraced and traced repetitions, at least one each.
    A repetition starts only if it is expected to end in time.  An
    untimed import first compiles the sources, so that the first run in
    a fresh checkout does not time the byte-code compiler."""
    inputs = workloads.make_inputs(workload, seed)
    runner = Runner(workdir)
    runner.spawn(Repetition(False), {"actions": [], "argv": []}, False)
    reps: list[Repetition] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        reps.append(REPETITIONS[workload](runner, inputs,
                                          trace and len(reps) % 2 == 1))
        took = time.perf_counter() - began
        if len(reps) >= (2 if trace else 1) and \
                time.perf_counter() - start + took > seconds:
            return reps


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdicts(reps: list[Repetition]) -> tuple[list, list]:
    """(one record per distinct op, problems).  Every repetition of a run
    repeats the same ops, so an op is attempted once per run however many
    repetitions fit in it: `attempted` and `failed` then depend on the
    seed alone.  An op fails if any repetition failed it; a verdict or
    printed value that changes between repetitions is a problem."""
    by_op: dict = {}
    for rep in reps:
        for rec in rep.records:
            by_op.setdefault(rec["op"], []).append(rec)
    records, problems = [], []
    for op, recs in by_op.items():
        if len({(r["ok"], r["known"], r["detail"]) for r in recs}) > 1:
            problems.append({"op": op, "detail": "output differs between "
                             "repetitions of one seed"})
        records.append(next((r for r in recs if not r["ok"]), recs[0]))
    return records, problems


def summarize(workload: str, reps: list[Repetition], trace: bool):
    """(result object, report lines) for one run."""
    records, unstable = verdicts(reps)
    failed = [r for r in records if not r["ok"]]
    unexpected = unstable + [r for r in failed if not r["known"]]
    lines = [f"{workload}: {len(reps)} repetitions, "
             f"fail_ratio {len(failed)}/{len(records)} = "
             f"{len(failed) / len(records):.4f} "
             f"({sum(r['known'] for r in failed)} known red lines)"]
    lines += [f"  FAILED {r['op']}: {r['detail']}" for r in failed]
    lines += [f"  UNSTABLE {r['op']}: {r['detail']}" for r in unstable]
    metrics = {}
    if trace:
        traced = [rep for rep in reps if rep.traced]
        plain = [rep for rep in reps if not rep.traced]
        per_rep = [spans.layer_metrics(rep.inclusive, rep.own, rep.counts)
                   for rep in traced]
        for key in spans.EXACT_COUNTS:
            if len({m[key] for m in per_rep}) > 1:
                unexpected.append({"op": key, "detail": "count differs "
                                   "between repetitions of one seed"})
        samples = {key: [m[key] for m in per_rep] for key in per_rep[0]}
        samples["trace.overhead_ratio"] = [
            statistics.median(rep.wall_s for rep in traced)
            / statistics.median(rep.wall_s for rep in plain)]
        units = spans.LAYER_UNITS
    else:
        per_rep = [rep.metrics() for rep in reps]
        samples = {key: [m[key] for m in per_rep] for key in E2E_UNITS}
        units = E2E_UNITS
    for key, values in samples.items():
        value = statistics.median(values)
        q1, q3 = _quartiles(values)
        metrics[key] = {"value": value, "unit": units[key]}
        lines.append(f"  {key} {value:.6g} {units[key]} "
                     f"(median of {len(values)}, quartiles {q1:.6g} "
                     f"{q3:.6g})")
    result = {"correct": not unexpected, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    return result, lines


def bench(workload: str, seed: int, seconds: float, trace: bool):
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        reps = run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(
            [rep.spans for rep in reps if rep.traced]))
    return summarize(workload, reps, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chainphase" / "cli.py").is_file():
        print(f"error: no chainphase sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else \
        (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    for name in names:
        print(json.dumps({"provenance": provenance(name, args.seed)}))
        for trace in modes:
            result, lines = bench(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            results[(name, trace)] = result
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m
                        for (name, _), r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
