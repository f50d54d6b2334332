"""Violation reports returned by every validator, and the law driver.

A validator checks each instance of each law it owns and records failures as
(law, witness) pairs. Reports count every violation and checked instance per
law, and keep witnesses up to a per-law cap (default 100) instead of stopping
at the first, so a broken fixture shows its full damage in one run and a
flood of failures in one law can never hide another law's witnesses.

`run_laws` alone decides whether a law is enumerated or sampled; a sampled
law checks distinct instances in enumeration order, picked by its own
stream, so they never depend on another law. A law may also carry a proof:
a predicate on its inputs that, when true, guarantees that the walk would
find nothing, so `run_laws` counts the instances it would have checked and
walks none of them. When the proof fails, the law is walked as without it,
so its violations, witnesses and counts never depend on the proof.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_CAP = 100
# verify's budget: a law of more than DEFAULT_MAX_EXHAUSTIVE instances is sampled
DEFAULT_SAMPLES = 100_000
DEFAULT_MAX_EXHAUSTIVE = 10_000_000


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.law} at {self.witness}{tail}"


@dataclass
class Report:
    violations: list[Violation] = field(default_factory=list)
    capped: bool = False
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        self.instances: dict[str, int] = {}  # law -> instances checked
        self._found: dict[str, int] = {}  # law -> violations, past the cap too
        for v in self.violations:
            self._found[v.law] = self._found.get(v.law, 0) + 1

    @property
    def ok(self) -> bool:
        """No violation found, whether or not the cap kept its witness."""
        return not self._found

    @property
    def checked(self) -> int:
        return sum(self.instances.values())

    def count(self, law: str | None = None) -> int:
        """Violations found (of one law), including those past the cap."""
        if law is None:
            return sum(self._found.values())
        return self._found.get(law, 0)

    def add(self, law: str, witness: tuple, detail: str = "") -> None:
        """Record one violation; its witness is kept while under the cap."""
        n = self._found.get(law, 0)
        self._found[law] = n + 1
        if n >= self.cap:
            self.capped = True
            return
        self.violations.append(Violation(law, witness, detail))

    def tick(self, law: str, n: int = 1) -> None:
        if n:  # a law with no instances checked gets no entry
            self.instances[law] = self.instances.get(law, 0) + n

    def __str__(self) -> str:
        if self.ok:
            return f"ok ({self.checked} checks)"
        head = f"{self.count()} violation(s) in {self.checked} checks"
        if self.capped:
            head += " (capped)"
        lines = [head] + [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class Law:
    """One law: `at(i)` is its i-th instance, 0 <= i < `size`, in a fixed
    order; `walk()`, if given, yields them all in that order faster; and
    `check(instances, fail)` loops over what it is handed, calling
    `fail(witness, detail="")` once per violation.

    `proved()`, if given, returns True only when `check`, handed any of the
    law's instances, finds no violation and raises nothing: a sufficient
    condition, decided once for the whole law, whose proof its maker writes
    down. False says nothing, and the law is walked as if it had none, so
    `check` stays the only place where witnesses are made."""

    name: str
    size: int
    at: Callable[[int], tuple]
    check: Callable[[Iterable, Callable], None]
    walk: Callable[[], Iterable] | None = None
    proved: Callable[[], bool] | None = None

    def instances(self) -> Iterable:
        return self.walk() if self.walk else map(self.at, range(self.size))


def product_law(name: str, check, *coords: Sequence) -> Law:
    """A law over the tuples of product(*coords), the last coordinate
    fastest; no coords: the one tuple ()."""
    digits = [(c, math.prod(map(len, coords[k + 1:])), len(c)) for k, c in enumerate(coords)]
    return Law(
        name,
        math.prod(map(len, coords)),
        lambda i: tuple([c[i // stride % radix] for c, stride, radix in digits]),
        check,
        lambda: product(*coords),
    )


def holds(pred: Callable[..., bool]) -> Callable[[Iterable, Callable], None]:
    """The check that fails each instance t, its own witness, where pred(*t)
    is false."""

    def check(insts, fail) -> None:
        for t in insts:
            if not pred(*t):
                fail(t)

    return check


def list_law(name: str, check, insts: Sequence[tuple]) -> Law:
    """A law over the given tuples, in their order."""
    return Law(name, len(insts), insts.__getitem__, check)


def ragged(sizes: Iterable[int]):
    """(total, locate) for parts of the given sizes laid end to end:
    locate(i) is (j, r) when i is the r-th index of part j, never empty."""
    starts = list(accumulate(sizes, initial=0))

    def locate(i: int) -> tuple[int, int]:
        j = bisect_right(starts, i) - 1
        return j, i - starts[j]

    return starts[-1], locate


def spread(rng: random.Random, size: int, samples: int) -> Iterator[int]:
    """One index drawn from each of `samples` consecutive, nearly equal
    blocks of range(size): distinct, increasing, and never stored."""
    for j in range(samples):
        lo = size * j // samples
        yield lo + rng.randrange(size * (j + 1) // samples - lo)


def run_laws(
    rep: Report,
    suite: str,
    laws: Iterable[Law],
    samples: int = 0,
    seed: int = 0,
    max_exhaustive: float = math.inf,
) -> Report:
    """Enumerate each law whose size is at most max(max_exhaustive, samples),
    else check it on the `samples` distinct instances that spread picks with
    the stream seeded "<seed>/<suite>/<law>", in enumeration order; count
    per law. A law with instances to check whose proof holds is counted as
    checked on them and walked not at all: its report is the one its walk
    would give."""
    for law in laws:
        n = law.size if law.size <= max_exhaustive else min(law.size, samples)
        fail = partial(rep.add, law.name)
        if n and law.proved is not None and law.proved():
            pass  # its walk would find nothing
        elif n < law.size:
            law.check(map(law.at, spread(random.Random(f"{seed}/{suite}/{law.name}"), law.size, n)), fail)
        else:
            law.check(law.instances(), fail)
        rep.tick(law.name, n)
    return rep
