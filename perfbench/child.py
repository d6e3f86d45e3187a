"""One repetition's process: set up, run the ops, write a result file.

Usage: python3 perfbench/child.py SPEC.json

The spec names the checkout's ``src`` directory, whether to trace,
and the ops: argument lists that run through ``chainphase.cli.main``
after the actions they use are resolved.
The result file records when set-up ended ("ready"), each op's output,
peak resident memory and, when traced, the spans and counters.
Timestamps use the system-wide monotonic clock, so the parent can
subtract its own spawn time from them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return {"stdout": out.getvalue()}


def peak_rss_kib() -> int:
    """This process's own peak resident set.  Unlike ``ru_maxrss``,
    which keeps the spawning parent's peak across exec, ``VmHWM``
    belongs to the current address space alone."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import chainphase
    from chainphase import actions, cli

    if not os.path.abspath(chainphase.__file__).startswith(spec["src"]):
        print(f"error: imported {chainphase.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    # Set-up: the term list of every action the ops use.
    for name, N in spec["actions"]:
        actions.get_action(name, N)
    ready = time.perf_counter()

    outputs = []
    for i, argv in enumerate(spec["argv"]):
        if tracer is not None:
            tracer.op = i
        try:
            outputs.append(_run_cli(cli, argv))
        except Exception:  # an op that raises is a failed op
            outputs.append({"error": traceback.format_exc()})
    result = {"ready": ready, "outputs": outputs, "rss_kib": peak_rss_kib()}
    if tracer is not None:
        checkpoint = spec.get("checkpoint")
        if checkpoint and os.path.exists(checkpoint):
            tracer.counts["search.checkpoint_bytes"] = \
                os.path.getsize(checkpoint)
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
