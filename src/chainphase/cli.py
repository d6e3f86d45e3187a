"""Command-line entry point wiring every module together.

Subcommands: verify-table, eval, trace, check-cancel, steenrod,
search, selftest.  All output is deterministic: randomized suites take
a seed (flag, else the CHAINPHASE_SEED environment variable, else 0)
and every report records the seed it used.  Phases are serialized as
reduced fractions, never floats.

Exit codes: 0 success; 1 a verification or comparison failed; 2 bad
input (unknown action, malformed file, inconsistent parameters,
unwritable output path).  Bad input is any ``ValueError``: the library
raises it for invalid arguments and the CLI for its own checks, and
``main`` alone turns it into ``error: <message>`` on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import cache

from . import fileio, process, search
from .actions import ActionFunctional, get_action
from .boundary import hop_geometries_built
from .intmat import smith_invariant_factors
from .operad import d_terms, p1_terms, psi
from .simplicial import Cochain, Phase, StandardComplex

TABLE_ROWS = {
    1: ("cube3", (2, 3, 5), lambda N: Phase(1, N)),
    2: ("pontryagin9", (3,), lambda N: Phase(1, 9)),
    3: ("p1b3", (3,), lambda N: Phase(1, 3)),
    4: ("p1b4", (3,), lambda N: Phase(1, 3)),
    5: ("p1b5", (3,), lambda N: Phase(1, 3)),
}

UNDETECTED_ROWS = (("cs-b3", 2), ("sq4-b5", 2))

PHASE_STATS_HELP = ("write the hops, hop geometries built and the action "
                    "set-up and evaluate seconds to stderr")


def _phase_obj(phase: Phase) -> dict:
    return {"num": phase.num, "den": phase.den}


def _emit(seed: int, payload: dict, as_json: bool, lines) -> None:
    """Write a report headed by the seed it used."""
    if as_json:
        print(json.dumps({"seed": seed, **payload}, sort_keys=True,
                         separators=(",", ":")))
    else:
        print(f"seed: {seed}")
        for line in lines:
            print(line)


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("CHAINPHASE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CHAINPHASE_SEED must be an integer, "
                             f"got {env!r}")
    return 0


def _load_word(name_or_path: str):
    try:
        return process.builtin(name_or_path)
    except KeyError:
        pass
    try:
        return fileio.load_process(name_or_path)
    except OSError as exc:
        raise ValueError(f"cannot read process {name_or_path!r}: {exc}")
    except ValueError as exc:
        raise ValueError(f"malformed process file {name_or_path!r}: {exc}")


def _load_initial(path, load):
    """The start state in the file at `path` (None for no file)."""
    if not path:
        return None
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"bad initial state file: {exc}")


def _get_action(name: str, N, stats: list) -> ActionFunctional:
    """The registry action, timed into a new ``--stats`` row of
    ``stats`` for ``process.evaluate`` to complete."""
    start = time.perf_counter()
    try:
        action = get_action(name, N)
    except KeyError as exc:
        raise ValueError(exc.args[0])
    stats.append({"action": f"{name} N={action.modulus}",
                  "setup_s": time.perf_counter() - start})
    return action


def _write_stats(lines) -> None:
    for line in lines:
        print(f"stats: {line}", file=sys.stderr)


def _write_phase_stats(rows, geometries: int) -> None:
    """Per evaluated action, then in total: hops, set-up seconds
    (binding the action, which builds its term list on first use) and
    evaluate seconds; then the hop geometries built."""
    total = {"action": "total"}
    for key in ("hops", "setup_s", "evaluate_s"):
        total[key] = sum(row[key] for row in rows)
    _write_stats([f"{row['action']}: {row['hops']} hops, set-up "
                  f"{row['setup_s']:.3f} s, evaluate "
                  f"{row['evaluate_s']:.3f} s" for row in rows + [total]]
                 + [f"hop geometries built: {geometries}"])


def cmd_verify_table(args, seed: int) -> int:
    try:
        rows = sorted({int(r) for r in args.rows.split(",")}) \
            if args.rows is not None else sorted(TABLE_ROWS)
    except ValueError:
        rows = None
    if rows is None or any(r not in TABLE_ROWS for r in rows):
        raise ValueError(f"rows must be a subset of 1-5, got {args.rows!r}")
    report = {"rows": [], "undetected": [], "ok": True}
    lines = []
    stats, built = [], hop_geometries_built()
    for r in rows:
        name, ns, expect = TABLE_ROWS[r]
        for N in ns:
            action = _get_action(name, N, stats)
            got = process.evaluate(process.MU56, action, stats=stats[-1])
            want = expect(N)
            ok = got == want
            report["rows"].append({
                "row": r, "action": name, "N": N,
                "expected": _phase_obj(want), "measured": _phase_obj(got),
                "ok": ok,
            })
            report["ok"] = report["ok"] and ok
            lines.append(f"row {r} {name} N={N}: expected {want} "
                         f"measured {got} {'ok' if ok else 'MISMATCH'}")
    if args.rows is None:
        for name, N in UNDETECTED_ROWS:
            action = _get_action(name, N, stats)
            got = process.evaluate(process.MU56, action, stats=stats[-1])
            report["undetected"].append({
                "action": name, "N": N, "measured": _phase_obj(got),
                "detected": bool(got),
            })
            lines.append(f"{name} N={N}: measured {got} "
                         f"({'detected' if got else 'not detected'})")
    _emit(seed, report, args.json, lines)
    if args.stats:
        _write_phase_stats(stats, hop_geometries_built() - built)
    return 0 if report["ok"] else 1


def cmd_eval(args, seed: int) -> int:
    stats, built = [], hop_geometries_built()
    action = _get_action(args.action, args.N, stats)
    word = _load_word(args.process)
    initial = _load_initial(args.initial, fileio.load_cochain)
    phase = process.evaluate(word, action, initial=initial, stats=stats[-1])
    cancel = process.check_cancellation(word)
    payload = {
        "action": action.name, "N": action.modulus,
        "D": action.spacetime, "steps": len(word),
        "phase": _phase_obj(phase), "cancellation_ok": cancel.ok,
    }
    _emit(seed, payload, args.json, [
        f"action: {action.name} (N={action.modulus}, D={action.spacetime})",
        f"steps: {len(word)}",
        f"phase: {phase}",
        f"cancellation: {'pass' if cancel.ok else 'FAIL'}",
    ])
    if args.stats:
        _write_phase_stats(stats, hop_geometries_built() - built)
    return 0


def cmd_trace(args, seed: int) -> int:
    word = _load_word(args.process)
    initial = _load_initial(args.initial, fileio.load_chain)
    states = process.trace(word, initial)
    problems = []
    if args.diff_golden:
        path = None if args.diff_golden == "builtin" else args.diff_golden
        try:
            golden = fileio.load_golden_trace(path)
        except OSError as exc:
            raise ValueError(f"cannot read golden file: {exc}")
        except ValueError as exc:
            raise ValueError(f"malformed golden file: {exc}")
        problems = process.golden_trace_diff(word, golden, initial=initial)
    payload = {
        "steps": len(word),
        "states": [sorted(("".join(map(str, t)), c) for t, c in st.items())
                   for st in states],
        "golden_diff": problems,
        "ok": not problems,
    }
    lines = []
    for i, st in enumerate(states):
        body = " ".join(f"{c:+d}*{''.join(map(str, t))}"
                        for t, c in sorted(st.items())) or "0"
        lines.append(f"{i:3d}: {body}")
    lines.extend(problems)
    if args.diff_golden and not problems:
        lines.append("golden trace: exact match")
    _emit(seed, payload, args.json, lines)
    return 0 if not problems else 1


def _parse_modulus(text: str, noun: str) -> int:
    """0 for Z, n for Z<n> with n >= 2; `noun` names the option."""
    if text == "Z":
        return 0
    digits = text[1:]
    if (text.startswith("Z") and digits.isascii() and digits.isdigit()
            and int(digits) >= 2):
        return int(digits)
    raise ValueError(f"{noun} must be Z or Z<n>, got {text!r}")


def cmd_check_cancel(args, seed: int) -> int:
    word = _load_word(args.process)
    modulus = _parse_modulus(args.coeff, "coefficients")
    report = process.check_cancellation(word, modulus=modulus)
    payload = {
        "coeff": args.coeff, "steps": len(word),
        "ok": report.ok,
        "violations": [{"vertex": v, "cell": "".join(map(str, cell)),
                        "count": len(bad)}
                       for (v, cell), bad in sorted(report.residues.items())],
    }
    _emit(seed, payload, args.json, [
        f"cancellation over {args.coeff}: "
        f"{'pass' if report.ok else 'FAIL'}",
    ] + [f"residue at vertex {v}, cell {''.join(map(str, cell))}"
         for (v, cell) in sorted(report.residues)])
    return 0 if report.ok else 1


def cmd_steenrod(args, seed: int) -> int:
    n, q = args.n, args.q
    if args.what == "psi3":
        table = psi(3, n)
        items = ["".join(map(str, w)) for w, c in sorted(table.items())
                 for _ in range(c)]
        payload = {"what": "psi3", "n": n, "count": len(table),
                   "words": items}
        lines = [f"psi(3)(e_{n}): {len(table)} words", " ".join(items)]
    elif args.what == "d3":
        terms = d_terms(3, n, q)
        payload = {"what": "d3", "i": n, "q": q, "count": len(terms)}
        lines = [f"D^3_{n} on degree-{q} cochains: {len(terms)} terms"]
    else:
        terms = p1_terms(q)
        payload = {"what": "p1", "q": q, "count": len(terms)}
        lines = [f"P^1 on degree-{q} cochains: {len(terms)} terms"]
    _emit(seed, payload, args.json, lines)
    return 0


def cmd_search(args, seed: int) -> int:
    for flag, value in (("--emit-process", args.emit_process),
                        ("--stats", args.stats)):
        if value and args.stretch_membrane:
            raise ValueError(f"{flag} does not apply with "
                             f"--stretch-membrane")
    for flag, value in (("--attempts", args.attempts),
                        ("--checkpoint", args.checkpoint)):
        if value is not None and not args.stretch_membrane:
            raise ValueError(f"{flag} applies only with --stretch-membrane")
    modulus = _parse_modulus(args.G, "fusion group")
    model = search.build_model(modulus, args.p, args.d)
    if args.stretch_membrane:
        try:
            result = search.legality_search(
                model, checkpoint=args.checkpoint, seed=seed,
                attempts=1 if args.attempts is None else args.attempts,
                max_depth=args.depth)
        except OSError as exc:
            raise ValueError(f"cannot write checkpoint "
                             f"{args.checkpoint!r}: {exc}")
        payload = {"mode": "legality", "attempts": result["attempts"],
                   "successes": result["successes"]}
        _emit(seed, payload, args.json, [
            f"legality trials: {result['attempts']}, "
            f"successes: {len(result['successes'])}",
        ])
        return 0
    stats = {}
    factors, residual, log = search.classify(model, args.depth, stats)
    free_rank = len(model.terms) - stats["rank"]
    payload = {
        "G": args.G, "p": args.p, "d": args.d,
        "generators": len(model.generators),
        "configurations": len(model.configurations),
        "invariant_factors": factors,
        "free_rank": free_rank,
        "residual_shape": list(residual.shape),
    }
    lines = [
        f"model: {model!r}",
        f"invariant factors: {factors or '[]'}",
        f"free rank: {free_rank}",
    ]
    if args.stats:
        rows, cols = stats["residual_shape"]
        _write_stats((
                f"words walked: {stats['words']}",
                f"words skipped: {stats['skipped']}",
                f"translates reduced: {stats['translates']}",
                f"translates to zero: {stats['vanished']}",
                f"translates onto a held residual row: "
                f"{stats['repeated']}",
                f"pivots: {stats['pivots']}",
                f"residual shape: {rows} x {cols}",
                f"most nonzeros held: {stats['peak_nnz']}",
                f"walk: {stats['walk_s']:.3f} s",
                f"reduce: {stats['reduce_s']:.3f} s",
                f"smith: {stats['smith_s']:.3f} s"))
    if args.emit_process and not factors:
        # A torsion-free model has no residual row to lift.
        lines.append("no torsion: no process written")
        payload["process_steps"] = None
    elif args.emit_process:
        word = search.lift_halved_expression(residual, model)
        if word:
            text = "".join(
                ("+ " if sign > 0 else "- ")
                + " ".join(map(str, cell)) + "\n"
                for sign, cell in word)
            try:
                with open(args.emit_process, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write process "
                                 f"{args.emit_process!r}: {exc}")
            lines.append(f"process written to {args.emit_process} "
                         f"({len(word)} steps)")
            payload["process_steps"] = len(word)
        else:
            lines.append("no halvable residual expression found")
            payload["process_steps"] = None
    _emit(seed, payload, args.json, lines)
    return 0


def cmd_selftest(args, seed: int) -> int:
    rng = random.Random(seed)
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
            detail = ""
        except Exception as exc:  # report, never crash the suite
            ok, detail = False, f" ({exc})"
        checks.append((name, ok))
        print(f"{'pass' if ok else 'FAIL'}: {name}{detail}")

    check("golden trace matches",
          lambda: not process.golden_trace_diff(
              process.MU56, fileio.load_golden_trace()))
    check("cancellation over Z",
          lambda: process.check_cancellation(process.MU56).ok)
    check("truncated word fails cancellation",
          lambda: not process.check_cancellation(process.MU56[:-1]).ok)
    check("operad golden: psi3 listings",
          lambda: all(psi(3, n) == table
                      for n, table in fileio.load_psi3().items()))
    check("operad golden: P1 term counts",
          lambda: (len(p1_terms(3)), len(d_terms(3, 4, 4)),
                   len(d_terms(3, 6, 5))) == (19, 177, 1110))
    check("table row 1 at N=2",
          lambda: process.evaluate(process.MU56, get_action("cube3", 2))
          == Phase(1, 2))
    check("pauli accumulation vanishes",
          lambda: not process.pauli_triviality_check(
              process.MU56,
              {cell: Cochain(2, {t: rng.randrange(5)
                                 for t in StandardComplex.simplex(5)
                                 .simplices(2)})
               for cell in {c for _, c in process.MU56}}, 5))
    check("particle model torsion is [4]",
          lambda: search.classify(search.build_model(2, 0, 2))[0] == [4])
    check("smith oracle on a fixed matrix",
          lambda: smith_invariant_factors([[2, 4, 4], [-6, 6, 12],
                                           [10, 4, 16]]) == [2, 2, 156])
    failed = [name for name, ok in checks if not ok]
    print(f"seed: {seed}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _verify_table_options(p) -> None:
    p.add_argument("--rows", help="comma-separated subset of 1-5")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help=PHASE_STATS_HELP)


def _eval_options(p) -> None:
    p.add_argument("--action", required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--process", default="mu56",
                   help="builtin name (mu56, tjunction) or file path")
    p.add_argument("--initial", help="JSON cochain file for the start state")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help=PHASE_STATS_HELP)


def _trace_options(p) -> None:
    p.add_argument("--process", default="mu56")
    p.add_argument("--initial", help="JSON chain file for the start state")
    p.add_argument("--diff-golden", metavar="PATH",
                   help="compare against a golden trace file "
                   "('builtin' for the packaged 56-step trace)")
    p.add_argument("--json", action="store_true")


def _check_cancel_options(p) -> None:
    p.add_argument("--process", default="mu56")
    p.add_argument("--coeff", default="Z", help="Z or Z<n>")
    p.add_argument("--json", action="store_true")


def _steenrod_options(p) -> None:
    p.add_argument("--what", required=True, choices=("psi3", "d3", "p1"))
    p.add_argument("--n", type=int, default=2,
                   help="subscript for psi3/d3 listings")
    p.add_argument("--q", type=int, default=3, help="input cochain degree")
    p.add_argument("--json", action="store_true")


def _search_options(p) -> None:
    p.add_argument("--G", required=True, help="fusion group, Z or Z<n>")
    p.add_argument("--p", type=int, required=True,
                   help="excitation dimension")
    p.add_argument("--d", type=int, required=True, help="space dimension")
    p.add_argument("--depth", type=int, default=3,
                   help="commutator nesting cutoff")
    p.add_argument("--stretch-membrane", action="store_true",
                   help="legality-lifting scan (batch scale, resumable)")
    p.add_argument("--attempts", type=int,
                   help="sign-function trials for the stretch scan")
    p.add_argument("--checkpoint", help="checkpoint file for the scan")
    p.add_argument("--emit-process", metavar="PATH",
                   help="write a reconstructed process word here")
    p.add_argument("--stats", action="store_true",
                   help="write the classification's counts and stage "
                   "timings to stderr")
    p.add_argument("--json", action="store_true")


COMMANDS = {
    # name: (help, handler, options)
    "verify-table": ("evaluate the 56-step word against every tabulated "
                     "action", cmd_verify_table, _verify_table_options),
    "eval": ("total phase of a word under an action", cmd_eval,
             _eval_options),
    "trace": ("walk a word's chain states", cmd_trace, _trace_options),
    "check-cancel": ("local cancellation verdict for a word",
                     cmd_check_cancel, _check_cancel_options),
    "steenrod": ("print operad term listings", cmd_steenrod,
                 _steenrod_options),
    "search": ("classify statistical processes for a model", cmd_search,
               _search_options),
    "selftest": ("run the built-in smoke suite", cmd_selftest,
                 lambda p: None),
}


@cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for a run of `command` (None: no command given),
    built on a process's first such `main` call and reused, never
    changed, by every later one.  Every subcommand is listed with its
    help, so usage lines and errors read the same whatever the command,
    but only `command`'s own options are added."""
    parser = argparse.ArgumentParser(
        prog="chainphase",
        description="Exact phases of excitation-moving processes.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites "
                        "(default: $CHAINPHASE_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            options(p)
            p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --seed, the one top-level option, takes an int, so the first
    # token naming a subcommand is the command.
    command = next((a for a in argv if a in COMMANDS), None)
    args = _parser(command).parse_args(argv)
    try:
        return args.fn(args, _resolve_seed(args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
