"""Spans around calls into xmodcat's modules, and kernel micro timings.

The benchmark records spans from its own code: while a traced pass runs,
``Tracer.installed`` replaces selected module attributes with wrappers that
open a span around each call, and puts the originals back afterwards. No
file under ``src/`` is changed. Each span is (name, job, parent, start, end);
spans of one job share the job's index, and the root span of a job is named
``job``.

Wrapped layer boundaries (each module that calls the function looks it up
by the name patched here):

* ``xmodcat.suites.SUITES`` entries -> ``suites.<suite>``, and the suite's
  ``checked`` count as its lines print it (the largest, since xmod prints
  three sub-report totals);
* ``xmodcat.transform.semidirect_group`` -> ``xmod.semidirect_group``;
* ``xmodcat.cli.adjoint_action`` / ``trivial_strict_action`` -> ``action.build``;
* ``xmodcat.cli.load_xmod`` / ``load_action`` -> ``serialize.load``;
* ``xmodcat.cli.load_grid`` -> ``gridlang.parse``, counting squares parsed;
* ``xmodcat.cli.evaluate_grid`` -> ``quintet.evaluate_grid`` (grid jobs);
* ``xmodcat.cli._Out.law`` -> ``cli.emit``, counting law lines and failures.

Kernels called millions of times are not wrapped, since a span per call
would swamp what it measures. ``kernel_ns`` times them instead on seeded
operands from the workload's largest crossed module. ``compose_squares``
stands in for the index-level ``hcomp`` and ``pmul`` closures inside
``verify_double_category``, which cannot be reached from outside.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

SUITE_NAMES = (
    "xmod", "catgroup", "quintet", "action", "adjoint-oracle", "double",
    "transpose", "nested", "h2cat", "v2cat", "pentagon",
)
BUSY = {  # metric -> span name whose total duration it reports
    "xmod.semidirect_group_s": "xmod.semidirect_group",
    "quintet.evaluate_grid_s": "quintet.evaluate_grid",
    "action.build_s": "action.build",
    "serialize.load_s": "serialize.load",
    "gridlang.parse_s": "gridlang.parse",
    "cli.emit_s": "cli.emit",
}
COUNTS = ("gridlang.squares_parsed", "cli.law_lines", "cli.law_lines_fail")
KERNEL_OPERANDS = 1000
KERNEL_REPEATS = 5


def sub(name: str):
    """The xmodcat submodule imported last."""
    return sys.modules[f"xmodcat.{name}"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent, start, end]
        self.counts: Counter = Counter()
        self.jobs: list[str] = []
        self._stack: list[int] = []
        self._job = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self._job, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def job(self, name: str):
        """The root span of one job; its spans carry the job's index."""
        self.jobs.append(name)
        self._job = len(self.jobs) - 1
        return self.span("job")

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _patches(self):
        cli, transform = sub("cli"), sub("transform")

        def squares(counts, args, grid):
            counts["gridlang.squares_parsed"] += grid.n_rows * grid.n_cols

        def law_line(counts, args, result):
            counts["cli.law_lines"] += 1
            counts["cli.law_lines_fail"] += args[1].status == "fail"

        return [
            (transform, "semidirect_group", "xmod.semidirect_group", None),
            (cli, "adjoint_action", "action.build", None),
            (cli, "trivial_strict_action", "action.build", None),
            (cli, "load_xmod", "serialize.load", None),
            (cli, "load_action", "serialize.load", None),
            (cli, "load_grid", "gridlang.parse", squares),
            (cli, "evaluate_grid", "quintet.evaluate_grid", None),
            (cli._Out, "law", "cli.emit", law_line),
        ]

    def _suite(self, name: str, fn):
        def instances(counts, args, lines):
            counts[f"suites.{name}.instances"] += max((ln.checked for ln in lines), default=0)

        return self.wrap(f"suites.{name}", fn, instances)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced boundary of the xmodcat now imported, then restore it."""
        suites = sub("suites").SUITES
        saved_suites = list(suites)
        patches = self._patches()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        for owner, attr, span, count in patches:
            setattr(owner, attr, self.wrap(span, getattr(owner, attr), count))
        # cli holds the same list object, so the suites are replaced in place
        suites[:] = [(n, self._suite(n, f)) for n, f in saved_suites]
        try:
            yield
        finally:
            suites[:] = saved_suites
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, _, start, end in self.spans:
            out[name] += end - start
        return out

    def layer_metrics(self, passes, inputs, enumerate_s, overhead_s, seed) -> dict:
        """Per-layer metrics, per traced pass, each as {"value", "unit"}."""
        busy = self.busy()
        m = {}
        for suite in SUITE_NAMES:
            s = busy[f"suites.{suite}"] / passes
            n = self.counts[f"suites.{suite}.instances"] / passes
            m[f"suites.{suite}.s"] = (s, "s")
            m[f"suites.{suite}.instances"] = (n, "count")
            m[f"suites.{suite}.instances_per_s"] = (n / s if s else 0.0, "1/s")
        for metric, span in BUSY.items():
            m[metric] = (busy[span] / passes, "s")
        for metric in COUNTS:
            m[metric] = (self.counts[metric] / passes, "count")
        candidates = candidate_pairs(inputs.enumerated_pairs)
        m["xmod.enumerate_s"] = (enumerate_s, "s")
        m["xmod.enumerate.accept_ratio"] = (
            inputs.modules_found / candidates if candidates else 0.0, "ratio")
        m.update((k, (v, "ns")) for k, v in kernel_ns(inputs.kernel_xm, seed).items())
        m["trace.overhead_s"] = (overhead_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "job", "parent", "start", "end")
        path.write_text(json.dumps({
            "jobs": self.jobs,
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counts": dict(self.counts),
        }))


def candidate_pairs(pairs) -> int:
    """(action, boundary) candidates enumerate_crossed_modules examines."""
    xmod = sub("xmod")
    return sum(
        len(list(xmod.enumerate_actions(g, h))) * len(list(xmod.enumerate_homomorphisms(h, g)))
        for g, h in pairs
    )


def per_call_ns(fn, operands) -> float:
    """Median over repeats of the time per call, loop overhead included."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for ops in operands:
            fn(*ops)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(operands) * 1e9


def kernel_ns(xm, seed: int) -> dict[str, float]:
    """ns per call of each hot kernel on seeded operands from xm."""
    action, catgroup, quintet, transform = (
        sub("action"), sub("catgroup"), sub("quintet"), sub("transform"))
    rng = random.Random(f"{seed}/kernels")
    g, h = xm.g, xm.h
    act = action.adjoint_action(xm)
    cat = act.category

    def G():
        return rng.randrange(g.order)

    def H():
        return rng.randrange(h.order)

    def square():
        return quintet.square_from_edges(xm, G(), G(), G(), H())

    def mor():
        return catgroup.Mor2G(xm, G(), H())

    def td_square():
        return transform.TDSquare(act, G(), H(), rng.randrange(cat.n_morphisms))

    by_src = defaultdict(list)
    for f in cat.morphisms():
        by_src[cat.src[f]].append(f)

    def after(f):
        """A morphism whose source is f's target."""
        return rng.choice(by_src[cat.tgt[f]])

    n = KERNEL_OPERANDS
    hs = [(a, quintet.square_from_edges(xm, a.right, G(), G(), H())) for a in (square() for _ in range(n))]
    vs = [(a, quintet.square_from_edges(xm, G(), a.bottom, G(), H())) for a in (square() for _ in range(n))]
    ms = [mor() for _ in range(n)]
    tds = [td_square() for _ in range(n)]
    # h: the second square's left edge is s's right edge; v: the first square's top is s's bottom
    tds_h = [(s, transform.TDSquare(act, s.right()[0], H(), after(s.f)), "h") for s in tds]
    tds_v = [(transform.TDSquare(act, G(), H(), s.bottom()), s, "v") for s in tds]
    fs = [rng.randrange(cat.n_morphisms) for _ in range(n)]

    def both_orders(grid):
        return quintet.evaluate_grid(grid, "rows"), quintet.evaluate_grid(grid, "columns")

    return {
        "xmod.pair_mul_ns": per_call_ns(xm.pair_mul, [((G(), H()), (G(), H())) for _ in range(n)]),
        "transform.compose_squares_h_ns": per_call_ns(transform.compose_squares, tds_h),
        "transform.compose_squares_v_ns": per_call_ns(transform.compose_squares, tds_v),
        "quintet.square_from_edges_ns": per_call_ns(
            quintet.square_from_edges, [(xm, G(), G(), G(), H()) for _ in range(n)]),
        "quintet.compose_h_ns": per_call_ns(quintet.compose_h, hs),
        "quintet.compose_v_ns": per_call_ns(quintet.compose_v, vs),
        "quintet.evaluate_grid_2x2_ns": per_call_ns(
            both_orders, [(quintet.random_grid(xm, 2, 2, rng),) for _ in range(n)]),
        "catgroup.tensor_ns": per_call_ns(catgroup.tensor, [(m, mor()) for m in ms]),
        "catgroup.compose_ns": per_call_ns(
            catgroup.compose,
            [(catgroup.Mor2G(xm, catgroup.boundary(m)[1], H()), m) for m in ms]),
        "groups.prod_ns": per_call_ns(g.prod, [(G(), G(), G(), G()) for _ in range(n)]),
        "fincat.compose_ns": per_call_ns(cat.compose, [(after(f), f) for f in fs]),
    }
