"""Speed probe: how fast the core under the benchmark runs right now.

On a shared host the speed of a core changes by up to 2x within seconds,
as other tenants load the physical core and its caches.  ``run.py`` pins
itself and its children to one core and, while a child runs, calls
``probe()`` every ``GAP`` seconds.  ``scaled()`` turns the child's CPU
seconds into CPU seconds at the reference speed, the speed at which one
probe takes ``REF_S``.

The probe is the benchmark's own fixed code, never the package's, so a
change to the package cannot move it.  It does the kind of work the
package's hot loops do: frozen-dataclass trees as dict keys, an
``lru_cache``d recursive grafting product with ``Fraction`` weights, and a
float multiply-accumulate over the result, as in ``group._numeric_star``.
A tight loop over a small dict tracked the package's speed less well.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# CPU seconds of one probe on the machine the README's seed-commit numbers
# were measured on; GAP is the pause between probes while a child runs.
REF_S = 0.0035
GAP = 0.05


@dataclass(frozen=True)
class Tree:
    label: int
    children: tuple

    def degree(self) -> int:
        return 1 + sum(c.degree() for c in self.children)


def _trees(depth: int) -> list[Tree]:
    if depth == 0:
        return [Tree(i, ()) for i in range(3)]
    small = _trees(depth - 1)
    return (small + [Tree(i, (a,)) for i in range(2) for a in small[:6]]
            + [Tree(0, (a, b)) for a in small[:3] for b in small[:3]])


TREES = _trees(2)[:15]


@lru_cache(maxsize=None)
def _graft(a: Tree, b: Tree) -> dict[Tree, Fraction]:
    """Every way of grafting ``b`` onto a vertex of ``a``."""
    out = {Tree(a.label, a.children + (b,)): Fraction(1, 1 + b.label)}
    for i, c in enumerate(a.children):
        for g, k in _graft(c, b).items():
            t = Tree(a.label, a.children[:i] + (g,) + a.children[i + 1:])
            out[t] = out.get(t, 0) + k
    return out


def probe() -> float:
    """CPU seconds this thread takes for the fixed kernel."""
    start = time.thread_time()
    _graft.cache_clear()
    out: dict[Tree, float] = {}
    for a in TREES:
        da = a.degree()
        for b in TREES:
            if da + b.degree() > 5:
                continue
            w = 0.5 * da
            for g, c in _graft(a, b).items():
                out[g] = out.get(g, 0.0) + w * float(c)
    return time.thread_time() - start


def scaled(cpu: float, probes: list[float]) -> float:
    """A child's CPU seconds at the reference speed, from the probes taken
    while it ran."""
    return cpu * REF_S / statistics.fmean(probes)
