"""Truncated character group over the forest algebra.

A rough-path increment is stored as a :class:`GroupElement`: one read-only
float vector ``coords`` over the populated multi-indices of degree ≤ N (in
ascending degree), extended to forests by multiplicativity.  ``values`` is a
read-only mapping view of it that lists the keys given to the checked
constructor, explicit zeros included, the nonzero keys of a computed
element, or, for a row of a grid, every key up to the grid's stored degree.
All numeric products go through one table per (d, N), built on first use
from the exact Grossman–Larson structure constants of :mod:`mirpath.algebra`
and cached.  Over the indexed forest basis an element
is the vector φ(u) = Π X(components of u), 1 on ∅, and the truncated product
is (φ⋆ψ)(w) = Σ C·φ(u)·ψ(v) over the table rows (u, v, w), where
C = c·S(w)/(S(u)·S(v)) folds the symmetry factors into the exact constant c.
Chen composition reads the single-component slots of that product.

:class:`LieElement` holds the logarithm: a primitive element, nonzero only on
single multi-indices.  ``exp_element``/``log_element`` are truncated power
series in the same product.  :class:`RoughPathGrid` stores the increments
along a time grid as one read-only ``(n, K)`` array over the same slots, with
``depth``, the highest degree its rows store values for; wider increments
follow by composition on demand.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    Forest,
    Grading,
    MultiIndex,
    _populated_tuple,
    _star_basis,
    forest_basis,
)

__all__ = [
    "GroupElement",
    "LieElement",
    "RoughPathGrid",
    "GradingMismatchError",
    "InvalidKeyError",
    "PrimitivityError",
    "char_eval",
    "chen_compose",
    "exp_element",
    "log_element",
    "identity_character",
    "random_character",
    "rp_norm",
]


class GradingMismatchError(ValueError):
    """Operands carry different truncation levels or Hölder indices."""


class InvalidKeyError(ValueError):
    """A value was requested or supplied outside the populated truncated basis."""


class PrimitivityError(ValueError):
    """log_element produced non-negligible mass on a forest of cardinality ≥ 2,
    meaning the input was not a character of the group."""


@lru_cache(maxsize=8)
def _key_index(d: int, n: int) -> dict[MultiIndex, int]:
    """The populated multi-indices of degree ≤ n over letters 0..d, each
    mapped to its slot in ``coords``: ascending degree, then entries, which
    is also the order of the single-component forests of ``forest_basis``.
    So the keys of degree ≤ m come first, in ``len(_populated_tuple(d, m))``
    slots."""
    keys = sorted(_populated_tuple(d, n), key=lambda mi: (mi.degree(), mi.entries))
    return {mi: p for p, mi in enumerate(keys)}


def _slot(key: MultiIndex, d: int, grading: Grading) -> int | None:
    """The slot of ``key`` in ``coords``.  A key outside the populated basis
    of degree ≤ N over letters 0..d raises :class:`InvalidKeyError`; a key
    over a wider alphabet whose letters fit passes and has no slot (None)."""
    if (p := _key_index(d, grading.max_norm).get(key)) is not None:
        return p
    if not key.is_populated():
        raise InvalidKeyError(f"key {key!r} is not populated")
    if key.degree() > grading.max_norm:
        raise InvalidKeyError(
            f"key {key!r} has degree {key.degree()} above truncation {grading.max_norm}"
        )
    if any(i > d for (i, _), _ in key.entries):
        raise InvalidKeyError(f"key {key!r} uses a letter above d={d}")
    return None


class _Element:
    """Values on populated multi-indices of degree ≤ N; missing keys read as 0."""

    def __init__(self, d: int, grading: Grading, values: Mapping = MappingProxyType({})):
        """The checked constructor; ``values`` keeps exactly the given keys.
        A key over a wider alphabet whose letters fit passes the checks and
        is read back by :meth:`value`, but has no slot in ``coords``."""
        coords = np.zeros(len(_key_index(d, grading.max_norm)))
        for key, v in values.items():
            if (p := _slot(key, d, grading)) is not None:
                coords[p] = v
        coords.flags.writeable = False
        view = MappingProxyType(dict(values))
        vars(self).update(d=d, grading=grading, coords=coords, values=view)

    @classmethod
    def _of(cls, d: int, grading: Grading, coords: np.ndarray, listed: int | None = None):
        """Unchecked: a computed element, whose ``values`` lists its nonzero
        keys, or its first ``listed`` keys, zeros included."""
        out = cls.__new__(cls)
        coords.flags.writeable = False
        vars(out).update(d=d, grading=grading, coords=coords, _listed=listed)
        return out

    @cached_property
    def values(self) -> Mapping[MultiIndex, float]:
        """Read-only view: the keys the element was built from, the nonzero
        coordinates of a computed element, or the listed ones of a grid row."""
        pairs = zip(_key_index(self.d, self.grading.max_norm), self.coords.tolist())
        if self._listed is not None:
            return MappingProxyType(dict(itertools.islice(pairs, self._listed)))
        return MappingProxyType({key: x for key, x in pairs if x != 0.0})

    def value(self, key: MultiIndex) -> float:
        if (p := _key_index(self.d, self.grading.max_norm).get(key)) is not None:
            return float(self.coords[p])
        if not key.is_populated() or key.degree() > self.grading.max_norm:
            raise InvalidKeyError(
                f"{key!r} outside the populated basis of degree ≤ {self.grading.max_norm}"
            )
        return self.values.get(key, 0.0)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        same = (self.d, self.grading) == (other.d, other.grading)
        return same and np.array_equal(self.coords, other.coords)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # the view does not pickle; rebuild from its items
        return type(self), (self.d, self.grading, dict(self.values))

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(d={self.d}, {self.grading}, values={dict(self.values)})"


class GroupElement(_Element):
    """A character of the truncated group: values on populated multi-indices.

    The value on the empty forest is implicitly 1; forest values follow by
    multiplicativity via :func:`char_eval`.
    """


class LieElement(_Element):
    """A primitive element: log-coordinates on populated multi-indices.

    Its formal-sum image carries single-component forests only, so
    evaluation against any forest of cardinality ≥ 2 is zero by definition.
    """


def identity_character(d: int, grading: Grading) -> GroupElement:
    return GroupElement(d=d, grading=grading, values={})


def char_eval(x: GroupElement, f: Forest | MultiIndex) -> float:
    """Evaluate a character on a forest by multiplicativity (1 on ∅)."""
    if isinstance(f, MultiIndex):
        return x.value(f)
    if f.degree() > x.grading.max_norm:
        raise InvalidKeyError(
            f"forest degree {f.degree()} above truncation {x.grading.max_norm}"
        )
    out = 1.0
    for c in f.components:
        out *= x.value(c)
    return out


# ---------------------------------------------------------------------------
# The product table over the indexed forest basis
# ---------------------------------------------------------------------------


class _Table:
    """``forest_basis(d, N)`` indexed by slot (∅ is slot 0), with the
    truncated product as rows ``(i, j, k, coeff)`` in (i, j) basis order:
    slot i times slot j adds ``coeff`` to slot k."""

    def __init__(self, d: int, n: int):
        self.basis = basis = forest_basis(d, n)
        slot = {u: s for s, u in enumerate(basis)}
        degree = [u.degree() for u in basis]
        sym = [u.symmetry_factor() for u in basis]
        # the single-component slots, in the order of an element's coords
        self.single = np.array([s for s, u in enumerate(basis) if u.cardinality() == 1])
        self.multi = np.array(
            [s for s, u in enumerate(basis) if u.cardinality() >= 2], dtype=int
        )
        self.symmetry = np.array(sym, dtype=float)
        # per slot, the coords positions of its components; len(position) pads
        position = _key_index(d, n)
        self.components = np.full((len(basis), n), len(position))
        for s, u in enumerate(basis):
            self.components[s, : u.cardinality()] = [position[c] for c in u.components]
        rows = [
            (a, b, slot[w], float(c * sym[slot[w]] / (sym[a] * sym[b])))
            for a, u in enumerate(basis)
            for b, v in enumerate(basis)
            if degree[a] + degree[b] <= n
            for w, c in _star_basis(u, v).items()
        ]
        self.i, self.j, self.k, self.coeff = (np.array(col) for col in zip(*rows))

    def character(self, coords: np.ndarray) -> np.ndarray:
        """φ(u) = Π X(components of u), 1 on ∅."""
        return np.append(coords, 1.0)[self.components].prod(axis=1)

    def star(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        weights = a[self.i] * b[self.j] * self.coeff
        return np.bincount(self.k, weights=weights, minlength=len(self.basis))


@lru_cache(maxsize=8)
def _table(d: int, n: int) -> _Table:
    return _Table(d, n)


def chen_compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law on increments: (s,u) followed by (u,t).

    Both factors must share grading and dimension.  The composition is read
    off the truncated product of the two characters' forest values.
    """
    if (a.d, a.grading) != (b.d, b.grading):
        raise GradingMismatchError(
            f"cannot compose d={a.d},{a.grading} with d={b.d},{b.grading}"
        )
    t = _table(a.d, a.grading.max_norm)
    prod = t.star(t.character(a.coords), t.character(b.coords))
    return GroupElement._of(a.d, a.grading, prod[t.single])


def exp_element(x: LieElement) -> GroupElement:
    """Truncated exponential Σ_{n≤N} x^⋆ⁿ/n! of a primitive element."""
    n_max = x.grading.max_norm
    t = _table(x.d, n_max)
    base = np.zeros(len(t.basis))
    base[t.single] = x.coords
    acc = power = t.character(np.zeros(len(x.coords)))
    fact = 1.0
    for n in range(1, n_max + 1):
        power = t.star(power, base)
        fact *= n
        acc = acc + power / fact
    return GroupElement._of(x.d, x.grading, acc[t.single])


def log_element(x: GroupElement, defect_tolerance: float = 1e-9) -> LieElement:
    """Truncated logarithm Σ_{n≤N} (−1)^{n+1}(x−∅)^⋆ⁿ/n of a character.

    The result must be primitive: a formal-sum coefficient φ(u)/S(u) left on
    a forest u of cardinality ≥ 2 beyond ``defect_tolerance`` (relative to the
    largest coefficient) raises :class:`PrimitivityError` rather than being
    dropped silently.
    """
    n_max = x.grading.max_norm
    t = _table(x.d, n_max)
    y = t.character(x.coords)
    y[0] = 0.0
    acc = np.zeros_like(y)
    power = y
    for n in range(1, n_max + 1):
        sign = 1.0 if n % 2 == 1 else -1.0
        acc = acc + sign * power / n
        if n < n_max:
            power = t.star(power, y)
    coeff = acc / t.symmetry
    scale = max(1.0, float(np.abs(coeff).max()))
    defects = t.multi[np.abs(coeff[t.multi]) > defect_tolerance * scale]
    if defects.size:
        s = defects[0]
        raise PrimitivityError(
            f"logarithm left coefficient {coeff[s]:.3e} on {t.basis[s]!r}; "
            "input is not a character"
        )
    return LieElement._of(x.d, x.grading, acc[t.single])


def random_character(d: int, grading: Grading, rng: np.random.Generator) -> GroupElement:
    """Uniform(−1,1) values on every populated multi-index of degree ≤ N."""
    values = {
        mi: float(rng.uniform(-1.0, 1.0))
        for mi in _populated_tuple(d, grading.max_norm)
    }
    return GroupElement(d=d, grading=grading, values=values)


# ---------------------------------------------------------------------------
# Grids of increments
# ---------------------------------------------------------------------------


class OffGridTimeError(ValueError):
    """A query time is not a grid point (no interpolation is defined)."""


def _time_index(times: Sequence[float], t: float) -> int | None:
    """Index of the point of the increasing ``times`` that equals ``t`` up to
    rel 1e-12 / abs 1e-14, the lower one if two do; None if none does."""
    j = bisect.bisect_left(times, t)
    for k in (j - 1, j):
        if 0 <= k < len(times) and math.isclose(times[k], t, rel_tol=1e-12, abs_tol=1e-14):
            return k
    return None


class RoughPathGrid:
    """Consecutive increments X_{t_j,t_{j+1}} over a strictly increasing grid.

    Row m of the read-only ``(n, K)`` array ``coords`` holds X_{t_m,t_{m+1}}
    over the slots of ``_key_index(d, N)``; ``depth`` is the highest degree
    the rows store values for, and every slot above it is 0.  Increments
    over non-adjacent grid pairs are produced by Chen composition on demand;
    off-grid times are rejected, never interpolated.
    """

    def __init__(
        self, d: int, grading: Grading, times: Sequence[float], increments: Sequence[GroupElement]
    ):
        """The checked constructor: one increment per consecutive pair of
        ``times``, each over ``d`` and ``grading``; every degree is stored."""
        if any((inc.d, inc.grading) != (d, grading) for inc in increments):
            raise GradingMismatchError("increment grading differs from grid grading")
        width = len(_key_index(d, grading.max_norm))
        coords = np.array([inc.coords for inc in increments]).reshape(-1, width)
        self._fill(d, grading, tuple(times), coords, grading.max_norm)

    @classmethod
    def _of(cls, d: int, grading: Grading, times, coords: np.ndarray, depth: int):
        """A grid over rows filled by slot, which store degrees ≤ ``depth``."""
        out = cls.__new__(cls)
        out._fill(d, grading, tuple(times), coords, depth)
        return out

    def _fill(self, d, grading, times, coords, depth) -> None:
        if len(times) < 2:
            raise ValueError("a grid needs at least two time points")
        if len(coords) != len(times) - 1:
            raise ValueError(
                f"{len(times)} times require {len(times) - 1} increments, "
                f"got {len(coords)}"
            )
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"times not strictly increasing at {a} .. {b}")
        coords.flags.writeable = False
        vars(self).update(d=d, grading=grading, times=times, coords=coords, depth=depth)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def increments(self) -> tuple[GroupElement, ...]:
        """The rows of ``coords`` as elements, each listing in ``values``
        its keys of degree ≤ ``depth``."""
        listed = len(_populated_tuple(self.d, self.depth))
        return tuple(GroupElement._of(self.d, self.grading, row, listed) for row in self.coords)

    def index_of(self, t: float) -> int:
        j = _time_index(self.times, t)
        if j is None:
            raise OffGridTimeError(f"time {t} is not a grid point")
        return j

    def increment_by_index(self, i: int, j: int) -> GroupElement:
        """X_{t_i,t_j}: the stored increments from i to j composed left to right."""
        if not 0 <= i <= j < len(self.times):
            raise ValueError(f"index pair ({i},{j}) out of range")
        if i == j:
            return identity_character(self.d, self.grading)
        return reduce(chen_compose, self.increments[i:j])

    def increment_between(self, s: float, t: float) -> GroupElement:
        return self.increment_by_index(self.index_of(s), self.index_of(t))


def rp_norm(path: RoughPathGrid) -> float:
    """Grid Hölder norm: max over basis forests u of
    sup_{s<t} (|X_{s,t}(u)| / (t−s)^{|u|_γ})^{1/deg u}."""
    t = _table(path.d, path.grading.max_norm)
    forests = t.basis[1:]
    gdeg = np.array([float(u.gamma_degree(path.grading.gamma)) for u in forests])
    inv_deg = np.array([1.0 / u.degree() for u in forests])
    best = 0.0
    n = len(path.times)
    for i in range(n - 1):
        running = identity_character(path.d, path.grading)
        for j in range(i + 1, n):
            running = chen_compose(running, path.increments[j - 1])
            dt = path.times[j] - path.times[i]
            v = np.abs(t.character(running.coords)[1:])
            best = max(best, float(((v / dt**gdeg) ** inv_deg).max()))
    return best
