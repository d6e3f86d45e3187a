"""Span recording around public calls into the chainphase modules.

The wrappers live here, not in the library: `install` replaces each
traced function at the name its callers look it up by (``process``
binds ``modified_excitation_phase`` at import, ``cli`` binds
``get_action``, ``cylinder_theta``, ``delta_on``,
``smith_invariant_factors`` and ``d_terms``).  Spans stay in memory as
``[name, start, end, parent, op]`` lists and are written out when the
run ends.  An untraced run never calls `install`.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: Per-layer metric -> unit, as the traced run reports them.
LAYER_UNITS = {
    "cli.main_self_s": "s",
    "process.evaluate_self_s": "s",
    "process.hops": "count",
    "process.hop_repeat_ratio": "ratio",
    "process.check_cancellation_s": "s",
    "boundary.hop_s": "s",
    "boundary.cylinder_theta_self_s": "s",
    "boundary.delta_on_s": "s",
    "simplicial.cylinder_simplices_s": "s",
    "simplicial.has_simplex_calls": "count",
    "simplicial.coboundary_s": "s",
    "actions.density_s": "s",
    "actions.density_calls": "count",
    "actions.density_nonzero_ratio": "ratio",
    "actions.get_action_s": "s",
    "fileio.load_term_file_s": "s",
    "operad.d_terms_s": "s",
    "search.build_model_s": "s",
    "search.gen_identities_s": "s",
    "search.identity_rows": "count",
    "intmat.build_s": "s",
    "intmat.nnz_in": "count",
    "intmat.eliminate_s": "s",
    "intmat.pivots": "count",
    "intmat.eliminate_s_per_pivot": "s",
    "intmat.nnz_out": "count",
    "intmat.residual_rows": "count",
    "intmat.residual_cols": "count",
    "intmat.copy_s": "s",
    "intmat.smith_s": "s",
    "search.legality_attempt_s": "s",
    "search.legality_partition_s": "s",
    "search.illegal_cols": "count",
    "search.legality_self_s": "s",
    "search.checkpoint_bytes": "bytes",
    "search.trial_success_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Exact counts that must repeat for a fixed seed.
EXACT_COUNTS = ("process.hops", "actions.density_calls",
                "simplicial.has_simplex_calls", "intmat.pivots")


class Tracer:
    """In-memory spans plus named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(result, *args)`
        runs once the span has closed, to update counters."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def totals(spans) -> tuple[dict, dict]:
    """(inclusive seconds, self seconds) summed per span name."""
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        inclusive[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    return dict(inclusive), dict(own)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(inclusive: dict, own: dict, counts: dict) -> dict:
    """Per-layer metrics of one repetition (all but the overhead)."""
    t = Counter(inclusive)
    s = Counter(own)
    c = Counter(counts)
    return {
        "cli.main_self_s": s["cli.main"],
        "process.evaluate_self_s": s["process.evaluate"],
        "process.hops": c["process.hops"],
        "process.hop_repeat_ratio": _ratio(c["process.hop_repeats"],
                                           c["process.hops"]),
        "process.check_cancellation_s": t["process.check_cancellation"],
        "boundary.hop_s": t["boundary.hop"],
        "boundary.cylinder_theta_self_s": s["boundary.cylinder_theta"],
        "boundary.delta_on_s": t["boundary.delta_on"],
        "simplicial.cylinder_simplices_s":
            t["simplicial.cylinder_simplices"],
        "simplicial.has_simplex_calls": c["simplicial.has_simplex_calls"],
        "simplicial.coboundary_s": t["simplicial.coboundary"],
        "actions.density_s": t["actions.density"],
        "actions.density_calls": c["actions.density_calls"],
        "actions.density_nonzero_ratio": _ratio(c["actions.density_nonzero"],
                                                c["actions.density_calls"]),
        "actions.get_action_s": t["actions.get_action"],
        "fileio.load_term_file_s": t["fileio.load_term_file"],
        "operad.d_terms_s": t["operad.d_terms"],
        "search.build_model_s": t["search.build_model"],
        "search.gen_identities_s": t["search.gen_identities"],
        "search.identity_rows": c["search.identity_rows"],
        "intmat.build_s": t["intmat.build"],
        "intmat.nnz_in": c["intmat.nnz_in"],
        "intmat.eliminate_s": t["intmat.eliminate"],
        "intmat.pivots": c["intmat.pivots"],
        "intmat.eliminate_s_per_pivot": _ratio(t["intmat.eliminate"],
                                               c["intmat.pivots"]),
        "intmat.nnz_out": c["intmat.nnz_out"],
        "intmat.residual_rows": c["intmat.residual_rows"],
        "intmat.residual_cols": c["intmat.residual_cols"],
        "intmat.copy_s": t["intmat.copy"],
        "intmat.smith_s": t["intmat.smith"],
        "search.legality_attempt_s": t["search.legality_attempt"],
        "search.legality_partition_s": t["search.legality_partition"],
        "search.illegal_cols": _ratio(c["search.illegal_cols"],
                                      c["search.partitions"]),
        "search.legality_self_s": s["search.legality_search"],
        "search.checkpoint_bytes": c["search.checkpoint_bytes"],
        "search.trial_success_ratio": _ratio(c["search.trial_successes"],
                                             c["search.trials"]),
    }


def _frozen(cochain) -> tuple:
    return cochain.modulus, tuple(sorted(cochain.items()))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an imported chainphase."""
    from chainphase import (actions, boundary, cli, intmat, operad, process,
                            search, simplicial)

    count = tracer.counts

    def patch(owners, attr, name, after=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch([cli], "main", "cli.main")
    patch([process], "evaluate", "process.evaluate")
    patch([process], "check_cancellation", "process.check_cancellation")

    seen_hops = set()

    def after_hop(result, action, b, h, s):
        key = (action.name, action.modulus, _frozen(b), _frozen(h))
        count["process.hops"] += 1
        if key in seen_hops:
            count["process.hop_repeats"] += 1
        seen_hops.add(key)

    patch([process], "modified_excitation_phase", "boundary.hop", after_hop)
    patch([boundary, cli], "cylinder_theta", "boundary.cylinder_theta")
    patch([boundary, cli], "delta_on", "boundary.delta_on")

    complex_cls = simplicial.StandardComplex
    enumerate_all = complex_cls.simplices
    on_prism = tracer.wrap("simplicial.cylinder_simplices",
                           lambda cx, degree: list(enumerate_all(cx, degree)))

    def simplices(cx, degree):
        if cx.kind == "cylinder":
            return iter(on_prism(cx, degree))
        return enumerate_all(cx, degree)

    has_simplex = complex_cls.has_simplex

    def counted_has_simplex(cx, t):
        count["simplicial.has_simplex_calls"] += 1
        return has_simplex(cx, t)

    complex_cls.simplices = simplices
    complex_cls.has_simplex = counted_has_simplex
    patch([simplicial.Cochain], "coboundary", "simplicial.coboundary")

    def after_density(result, *args):
        count["actions.density_calls"] += 1
        count["actions.density_nonzero"] += bool(result)

    patch([actions.ActionFunctional], "density", "actions.density",
          after_density)
    patch([actions, cli], "get_action", "actions.get_action")
    patch([actions], "load_term_file", "fileio.load_term_file")
    patch([operad, cli], "d_terms", "operad.d_terms")

    def after_identities(result, *args, **kwargs):
        count["search.identity_rows"] += len(result)

    def after_build(result, *args):
        count["intmat.nnz_in"] += sum(map(len, result.rows.values()))

    def after_eliminate(log, matrix, *args, **kwargs):
        rows, cols = matrix.shape
        count["intmat.pivots"] += len(log)
        count["intmat.nnz_out"] += sum(map(len, matrix.rows.values()))
        count["intmat.residual_rows"] += rows
        count["intmat.residual_cols"] += cols

    def after_partition(result, *args, **kwargs):
        count["search.partitions"] += 1
        count["search.illegal_cols"] += len(result)

    def after_attempt(result, *args, **kwargs):
        count["search.trials"] += 1
        count["search.trial_successes"] += bool(result[0])

    patch([search], "build_model", "search.build_model")
    patch([search], "gen_identities", "search.gen_identities",
          after_identities)
    patch([search], "SparseIntMatrix", "intmat.build", after_build)
    patch([intmat.SparseIntMatrix], "eliminate", "intmat.eliminate",
          after_eliminate)
    patch([intmat.SparseIntMatrix], "copy", "intmat.copy")
    patch([search, cli], "smith_invariant_factors", "intmat.smith")
    patch([search], "legality_partition", "search.legality_partition",
          after_partition)
    patch([search], "legality_attempt", "search.legality_attempt",
          after_attempt)
    patch([search], "legality_search", "search.legality_search")
