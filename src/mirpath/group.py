"""Truncated character group over the forest algebra.

A rough-path increment is stored as a :class:`GroupElement`: one tuple of
floats ``coords`` over the populated multi-indices of degree ≤ N (in
ascending degree), extended to forests by multiplicativity.  ``values`` is
the read-only map of its nonzero coordinates by key, however the element
was built.  All numeric products go through one table per (d, N), built on
first use from the exact simultaneous grafts of :mod:`mirpath.algebra`,
compiled into two straight-line functions and cached.  Over the indexed
forest basis an element is the vector φ(u) = Π X(components of u), 1 on
∅, and the truncated product is (φ⋆ψ)(w) = Σ C·φ(u)·ψ(v) over the rows
(u, v, w), where C = c·S(w)/(S(u)·S(v)) folds the symmetry factors into
the exact constant c.
A character is fixed by its values on single multi-indices, so the table
keeps only the rows with w a single multi-index; in each, v is ∅ or a
single multi-index too, and the rows are those of u ⋆ ∅ = u and of the
simultaneous graft of u into a single v.  Chen composition is that product.

:class:`LieElement` holds the logarithm: a primitive element, nonzero only on
single multi-indices.  ``exp_element``/``log_element`` are truncated power
series in the same product, taken as left powers: the single-multi-index
part of x^⋆ⁿ is x ⋆ (that part of x^⋆⁽ⁿ⁻¹⁾).  :class:`RoughPathGrid` stores
the increments along a grid of finite times as one tuple of row tuples of
finite values over the same slots, with ``depth``, the highest
degree its rows store values for; wider increments follow by composition
on demand.  ``grid_payload`` and ``grid_from_json`` write and read a grid's
JSON document, the package's one on-disk form of a rough path, which lists
every key up to the grid's depth.
"""

from __future__ import annotations

import bisect
import math
import random
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import _EXPORTS
from .algebra import (
    Grading,
    MultiIndex,
    _populated_tuple,
    forest_basis,
    graft_simultaneous,
)
from .grammar import _MISSING, _json_int, _json_value, format_multi_index, parse_multi_index

__all__ = list(_EXPORTS["group"])


class GradingMismatchError(ValueError):
    """Operands carry different truncation levels or Hölder indices."""


class InvalidKeyError(ValueError):
    """A value was requested or supplied outside the populated truncated basis."""


@lru_cache(maxsize=8)
def _key_index(d: int, n: int) -> dict[MultiIndex, int]:
    """The populated multi-indices of degree ≤ n over letters 0..d, each
    mapped to its slot in ``coords``: ascending degree, then entries, which
    is also the order of the single-component forests of ``forest_basis``.
    So the keys of degree ≤ m come first, in ``len(_populated_tuple(d, m))``
    slots."""
    keys = sorted(_populated_tuple(d, n), key=lambda mi: (mi.degree(), mi.entries))
    return {mi: p for p, mi in enumerate(keys)}


def _slot(key: MultiIndex, d: int, grading: Grading) -> int:
    """The slot of ``key`` in ``coords``.  A key outside the populated basis
    of degree ≤ N over letters 0..d raises :class:`InvalidKeyError`, also
    one over another alphabet whose letters fit."""
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
    raise InvalidKeyError(
        f"key {key!r} is over letters 0..{key.letters - 1}, not over 0..{d}"
    )


class _Element:
    """Values on populated multi-indices of degree ≤ N; missing keys read as 0."""

    def __init__(self, d: int, grading: Grading, values: Mapping = MappingProxyType({})):
        """The checked constructor: every key of ``values`` must lie in the
        populated basis of degree ≤ N over letters 0..d."""
        coords = [0.0] * len(_key_index(d, grading.max_norm))
        for key, v in values.items():
            coords[_slot(key, d, grading)] = float(v)
        vars(self).update(d=d, grading=grading, coords=tuple(coords))

    @classmethod
    def _of(cls, d: int, grading: Grading, coords: tuple[float, ...]):
        """Unchecked: the element over the computed tuple ``coords``."""
        out = cls.__new__(cls)
        vars(out).update(d=d, grading=grading, coords=coords)
        return out

    @cached_property
    def values(self) -> Mapping[MultiIndex, float]:
        """Read-only map of the nonzero coordinates by key, in slot order."""
        pairs = zip(_key_index(self.d, self.grading.max_norm), self.coords)
        return MappingProxyType({key: x for key, x in pairs if x != 0.0})

    def value(self, key: MultiIndex) -> float:
        return self.coords[_slot(key, self.d, self.grading)]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        same = (self.d, self.grading) == (other.d, other.grading)
        # element by element, so that a NaN equals nothing, itself included
        return same and all(x == y for x, y in zip(self.coords, other.coords))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # the view does not pickle; rebuild from its items
        return type(self), (self.d, self.grading, dict(self.values))

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(d={self.d}, {self.grading}, values={dict(self.values)})"


class GroupElement(_Element):
    """A character of the truncated group: values on populated multi-indices.

    The value on the empty forest is implicitly 1; a forest's value is the
    product of its components' values, φ(u) = Π X(components of u), which
    the product table evaluates for every forest at once.
    """


class LieElement(_Element):
    """A primitive element: log-coordinates on populated multi-indices.

    Its formal-sum image carries single-component forests only, so
    evaluation against any forest of cardinality ≥ 2 is zero by definition.
    """


def identity_character(d: int, grading: Grading) -> GroupElement:
    return GroupElement(d=d, grading=grading, values={})


# ---------------------------------------------------------------------------
# The product rows that land on a single multi-index
# ---------------------------------------------------------------------------


class _Table:
    """``forest_basis(d, N)`` indexed by slot (∅ is slot 0), with the rows
    ``(i, j, k, coeff)`` of the truncated product whose output is a single
    multi-index, in (i, j) order: forest slot i times coords position j adds
    ``coeff`` to coords position k.  The right factor of such a row is ∅ or
    a single multi-index, so j indexes ``coords`` with ∅ at ``len(coords)``.

    The rows are compiled into two straight-line functions:
    ``character(a)``, the tuple φ(u) = Π a[components of u] over the basis,
    taken in component order, 1.0 on ∅; and ``star(phi, b, u)``, φ ⋆ ψ on
    the single multi-indices for ψ given by the tuple ``b`` and its value
    ``u`` on ∅, each output slot k summed as 0.0 + Σ phi[i]·b[j]·coeff over
    its rows in order (a factor 1.0 is left out, which changes no bit)."""

    def __init__(self, d: int, n: int):
        self.basis = basis = forest_basis(d, n)
        degree = [u.degree() for u in basis]
        sym = [u.symmetry_factor() for u in basis]
        # the single-component slots, in the order of an element's coords
        self.single = tuple(s for s, u in enumerate(basis) if u.cardinality() == 1)
        position = _key_index(d, n)
        unit = len(position)  # the j of ∅
        # u ⋆ ∅ = u, and where v is single the part of u ⋆ v on a single
        # multi-index is u with every component grafted into v
        right = [(b, basis[b]) for b in (0, *self.single)]
        self.rows = tuple(
            (a, position[v.components[0]] if v.components else unit,
             position[w.components[0]], float(c * w.symmetry_factor() / (sym[a] * sym[b])))
            for a, u in enumerate(basis)
            for b, v in right
            if degree[a] + degree[b] <= n
            for w, c in graft_simultaneous(u, v).items()
            if w.cardinality() == 1
        )
        products = ["*".join(f"a{position[c]}" for c in u.components) or "1.0" for u in basis]
        terms: list[list[str]] = [[] for _ in range(unit)]
        for i, j, k, coeff in self.rows:
            factor = "u" if j == unit else f"b{j}"
            terms[k].append(f" + p{i}*{factor}" + ("" if coeff == 1.0 else f"*{coeff!r}"))
        label = f"product table d={d} N={n}"
        self.character = _straight_line(label, [("a", unit)], products)
        self.star = _straight_line(
            label, [("p", len(basis)), ("b", unit), ("u", None)],
            ["0.0" + "".join(t) for t in terms],
        )


def _straight_line(label: str, params: Sequence[tuple[str, int | None]],
                   outputs: Sequence[str], lines: Sequence[str] = (),
                   names: Mapping[str, object] = MappingProxyType({})) -> Callable[..., tuple]:
    """Compile the function of ``params`` that runs the assignment
    statements ``lines``, then returns the tuple of the Python expressions
    ``outputs``.  A parameter (p, n) is unpacked into the locals p0 …
    p(n−1) the code reads; (p, None) is a scalar.  ``names`` are the
    globals the code may read.  The code is straight-line, so each
    statement runs, each expression evaluates, and each sum adds its terms,
    exactly in the written order."""
    unpack = "".join(  # an empty unpacking (n = 0) would not compile
        f"    {''.join(f'{p}{m}, ' for m in range(n))}= {p}\n" for p, n in params if n
    )
    body = "".join(f"    {line}\n" for line in lines)
    source = (
        f"def f({', '.join(p for p, _ in params)}):\n{unpack}{body}"
        f"    return ({''.join(f'{x}, ' for x in outputs)})\n"
    )
    namespace = dict(names)
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace["f"]


@lru_cache(maxsize=8)
def _table(d: int, n: int) -> _Table:
    return _Table(d, n)


def chen_compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law on increments: (s,u) followed by (u,t).

    Both factors must share grading and dimension.  The composition is the
    truncated product of the forest values of ``a`` with ``b``.
    """
    if (a.d, a.grading) != (b.d, b.grading):
        raise GradingMismatchError(
            f"cannot compose d={a.d},{a.grading} with d={b.d},{b.grading}"
        )
    t = _table(a.d, a.grading.max_norm)
    return GroupElement._of(a.d, a.grading, t.star(t.character(a.coords), b.coords, 1.0))


def _power_series(t: _Table, left: Sequence[float], first: tuple, divisors) -> tuple[float, ...]:
    """Σ_n left^⋆n / divisors[n−1] on the single multi-indices, for ``left``
    over the forest basis, 0 on ∅, with ``first`` its own values there: that
    part of left^⋆n is left ⋆ (that part of left^⋆(n−1))."""
    acc = [0.0] * len(first)
    power = first
    for n, divisor in enumerate(divisors):
        if n:
            power = t.star(left, power, 0.0)
        acc = [a + x / divisor for a, x in zip(acc, power)]
    return tuple(acc)


def exp_element(x: LieElement) -> GroupElement:
    """Truncated exponential Σ_{n≤N} x^⋆ⁿ/n! of a primitive element."""
    n_max = x.grading.max_norm
    t = _table(x.d, n_max)
    left = [0.0] * len(t.basis)
    for s, v in zip(t.single, x.coords):
        left[s] = v
    divisors = [float(math.factorial(n)) for n in range(1, n_max + 1)]
    return GroupElement._of(x.d, x.grading, _power_series(t, left, x.coords, divisors))


def log_element(x: GroupElement) -> LieElement:
    """Truncated logarithm Σ_{n≤N} (−1)^{n+1}(x−∅)^⋆ⁿ/n of a character,
    which is primitive: its values on single multi-indices are all of it."""
    n_max = x.grading.max_norm
    t = _table(x.d, n_max)
    left = (0.0, *t.character(x.coords)[1:])
    divisors = [float(n if n % 2 else -n) for n in range(1, n_max + 1)]
    return LieElement._of(x.d, x.grading, _power_series(t, left, x.coords, divisors))


def random_character(d: int, grading: Grading, rng: random.Random) -> GroupElement:
    """Values ``rng.uniform(−1, 1)`` on every populated multi-index of degree
    ≤ N, drawn in basis order; a numpy ``Generator`` serves as well."""
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
    rel 1e-12 / abs 1e-14, the nearer one if two do (the lower on a tie);
    None if none does."""
    j = bisect.bisect_left(times, t)  # times[j - 1] < t <= times[j]
    nearer_first = 0 < j < len(times) and times[j] - t < t - times[j - 1]
    for k in (j, j - 1) if nearer_first else (j - 1, j):
        if 0 <= k < len(times) and math.isclose(times[k], t, rel_tol=1e-12, abs_tol=1e-14):
            return k
    return None


class RoughPathGrid:
    """Finite increments X_{t_j,t_{j+1}} over a strictly increasing finite grid.

    Row m of the tuple of row tuples ``coords`` holds X_{t_m,t_{m+1}}
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
        coords = tuple(inc.coords for inc in increments)
        self._fill(d, grading, tuple(times), coords, grading.max_norm)

    @classmethod
    def _of(cls, d: int, grading: Grading, times, coords: tuple[tuple[float, ...], ...],
            depth: int):
        """A grid over row tuples filled by slot, which store degrees ≤ ``depth``."""
        out = cls.__new__(cls)
        out._fill(d, grading, tuple(times), coords, depth)
        return out

    def _fill(self, d, grading, times, coords, depth) -> None:
        """The one check of every grid, however it is made."""
        if len(times) < 2:
            raise ValueError("a grid needs at least two time points")
        if len(coords) != len(times) - 1:
            raise ValueError(
                f"{len(times)} times require {len(times) - 1} increments, "
                f"got {len(coords)}"
            )
        for m, t in enumerate(times):
            if not math.isfinite(t):
                raise ValueError(f"grid times must be finite numbers, but time {m} is {t!r}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"times not strictly increasing at {a} .. {b}")
        for m, row in enumerate(coords):
            # a sum is finite only if every term is; one that overflows is
            # checked term by term
            if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                raise ValueError(
                    f"grid value on segment {m} (t = {times[m]} .. {times[m + 1]}) is not finite"
                )
        vars(self).update(d=d, grading=grading, times=times, coords=coords, depth=depth)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def increments(self) -> tuple[GroupElement, ...]:
        """The rows of ``coords`` as elements, each sharing its row tuple."""
        return tuple(GroupElement._of(self.d, self.grading, row) for row in self.coords)

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


# ---------------------------------------------------------------------------
# Grid serialization
# ---------------------------------------------------------------------------


def grid_payload(path: RoughPathGrid) -> dict:
    """The JSON document of a grid, as a dict: each increment lists every
    key of degree ≤ ``path.depth``, sorted by entries, zeros included."""
    index = _key_index(path.d, path.grading.max_norm)
    keys = tuple(index)[: len(_populated_tuple(path.d, path.depth))]
    order = sorted(range(len(keys)), key=lambda p: keys[p].entries)
    names = [format_multi_index(keys[p]) for p in order]
    return {
        "d": path.d,
        "gamma": f"{path.grading.gamma.numerator}/{path.grading.gamma.denominator}",
        "max_norm": path.grading.max_norm,
        "times": list(path.times),
        "increments": [dict(zip(names, [row[p] for p in order])) for row in path.coords],
    }


def grid_from_json(doc: str | Mapping) -> RoughPathGrid:
    """Read a grid from its JSON text or from the already-parsed document.
    Each distinct key string is looked up once: a canonical spelling in the
    map of the grid's keys, any other by the parser.  A document that
    spells one key two ways is refused; the grid stores the degrees up to
    the highest key degree in the document."""
    payload = _json_value(doc, "document", "a grid")
    d = _json_int(payload, "d")
    grading = Grading(
        max_norm=_json_int(payload, "max_norm"),
        gamma=_json_value(payload.get("gamma", _MISSING), "rational", "gamma"),
    )
    # a grid holds thousands of values, so each is named only if refused
    times = _json_value(payload.get("times", _MISSING), "list", "times")
    times = tuple(_json_value(t, "number", lambda: f"time {m}") for m, t in enumerate(times))
    index = tuple(_key_index(d, grading.max_norm))
    canonical = {format_multi_index(key): p for p, key in enumerate(index)}
    increments = _json_value(payload.get("increments", _MISSING), "list", "increments")
    slots: dict[str, int] = {}  # each key spelling read so far -> its slot
    taken: set[int] = set()
    coords = []
    for m, entry in enumerate(increments):
        _json_value(entry, "object", f"increment {m}")
        row = [0.0] * len(index)
        for key, v in entry.items():
            if (p := slots.get(key)) is None:
                if (p := canonical.get(key)) is None:
                    p = _slot(parse_multi_index(key, d=d), d, grading)
                if p in taken:
                    raise ValueError(f"{key!r} repeats the key {format_multi_index(index[p])}")
                slots[key] = p
                taken.add(p)
            if type(v) is not float:  # a float is stored as it is
                v = _json_value(v, "number", lambda: f"increment {m} at {key!r}")
            row[p] = v
        coords.append(tuple(row))
    depth = max((index[p].degree() for p in taken), default=0)
    return RoughPathGrid._of(d, grading, times, tuple(coords), depth)
