"""Violation reports returned by every validator, and the law driver.

A validator checks each instance of each law it owns and records failures as
(law, witness) pairs. Reports count every violation and checked instance per
law, and keep witnesses up to a per-law cap (default 100) instead of stopping
at the first, so a broken fixture shows its full damage in one run and a
flood of failures in one law can never hide another law's witnesses.

`run_laws` alone decides whether a law is enumerated or sampled; a sampled
law draws from its own stream, so its draws never depend on another law.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, groupby, product
from typing import Callable, Iterable, Sequence

DEFAULT_CAP = 100


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
    """One law: `instances()` walks its space in a fixed order and yields
    exactly `size` instances, `draw(rng)` returns one at random, and
    `check(instances, fail)` loops over what it is handed, calling
    `fail(witness, detail="")` once per violation."""

    name: str
    size: int
    instances: Callable[[], Iterable]
    draw: Callable[[random.Random], object]
    check: Callable[[Iterable, Callable], None]


def product_law(name: str, check, *coords) -> Law:
    """A law over the tuples of product(*coords); no coords: the one tuple ()."""
    return Law(
        name,
        math.prod(len(c) for c in coords),
        lambda: product(*coords),
        lambda rng: tuple(map(rng.choice, coords)),
        check,
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
    return Law(name, len(insts), lambda: iter(insts), lambda rng: rng.choice(insts), check)


def indexed_laws(prefix: str, keys: Iterable[tuple], laws_of) -> list[Law]:
    """The laws of a family of structures, one per law of laws_of(*key): law
    `name` becomes prefix + name over the instances key + i, for each key in
    turn and i an instance of that key's law, and a witness w becomes key + w.
    Every laws_of(*key) must declare the same laws in the same order."""
    members = [(key, laws_of(*key)) for key in keys]
    if not members:
        return []
    width = len(members[0][0])

    def law(k: int) -> Law:
        family = [(key, laws[k]) for key, laws in members]
        by_key = dict(family)
        cum = list(accumulate(m.size for _, m in family))

        def instances():
            return (key + i for key, m in family for i in m.instances())

        def draw(rng):  # uniform over the union: a key weighted by its size
            key, m = rng.choices(family, cum_weights=cum)[0]
            return key + m.draw(rng)

        def check(insts, fail) -> None:
            for key, group in groupby(insts, lambda i: i[:width]):
                by_key[key].check(
                    (i[width:] for i in group),
                    lambda w, detail="": fail(key + w, detail),
                )

        return Law(prefix + family[0][1].name, cum[-1], instances, draw, check)

    return [law(k) for k in range(len(members[0][1]))]


def run_laws(
    rep: Report,
    suite: str,
    laws: Iterable[Law],
    samples: int = 0,
    seed: int = 0,
    max_exhaustive: float = math.inf,
) -> Report:
    """Enumerate each law whose size is at most max_exhaustive, else check it
    on `samples` draws seeded by "<seed>/<suite>/<law>"; count per law. A
    law no larger than `samples` is enumerated too: its draws, taken with
    replacement, would repeat instances and count each repeat."""
    for law in laws:
        fail = partial(rep.add, law.name)
        if law.size <= max(max_exhaustive, samples):
            law.check(law.instances(), fail)
            rep.tick(law.name, law.size)
        else:
            rng = random.Random(f"{seed}/{suite}/{law.name}")
            law.check((law.draw(rng) for _ in range(samples)), fail)
            rep.tick(law.name, samples)
    return rep
