"""Exact combinatorial kernel: multi-indices, forests, and their products.

A *multi-index* is a sparse monomial in abstract variables ``z(i,k)`` where
the letter ``i`` tags a driving signal (``0`` is reserved for time) and the
arity ``k`` counts how many derivatives of the corresponding vector field the
variable stands for.  A *forest* is an unordered multiset of multi-indices.
Everything in this module is exact: coefficients are ``int`` or
:class:`fractions.Fraction` (an integer stays an ``int`` until a division
promotes it), identities hold as rational equalities, and no floating point
ever enters.

The products implemented here are the raising derivation ``D``, the pre-Lie
graft ``a ▷ b = a · D b``, the simultaneous graft (many components raised at
once), the deshuffle coproduct, and the associative Grossman–Larson product
built from the last two.  Truncation by total degree is optional and applied
termwise, never during expansion.

Multi-indices and forests are hash-consed: every construction returns the
one canonical object for its value, kept in a bounded intern table that is
cleared when full, so equal keys usually meet by identity in dict lookups.
Equality and hashing stay structural, so an object built before a clear
still equals, hashes like and finds the entries of a new one, and pickling
or copying rebuilds through the constructor.  Every cache in this module has
a stated bound: Dⁿ of a monomial and ``prelie_graft`` keep 8 192 results,
``deshuffle`` 2 048 and the Grossman–Larson product of two basis forests
16 384; :func:`clear_caches` empties them all, as ``verify`` does after
each suite.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import attrgetter
from typing import Callable, Iterable, Iterator

__all__ = [
    "MultiIndex",
    "Forest",
    "FormalSum",
    "Grading",
    "mi_product",
    "degree",
    "gamma_degree",
    "is_populated",
    "symmetry_factor",
    "pairing",
    "derivation_d",
    "prelie_graft",
    "graft_simultaneous",
    "deshuffle",
    "gl_product",
    "enumerate_populated",
    "forest_basis",
    "EMPTY_FOREST",
]


class AlphabetMismatchError(ValueError):
    """Two multi-indices over different alphabets were combined."""


Entry = tuple[tuple[int, int], int]

# Hash-consing tables: the canonical MultiIndex per (letters, entries) and the
# canonical Forest per components tuple.  Each is cleared when it reaches its
# bound.  ``verify --d 2 --max-norm 3`` fills them to about 6 000 and 12 000,
# and the exact acceptance suite (criterion 01) to about 20 000 and 2 000.
_MULTI_INDEX_BOUND = 1 << 15
_FOREST_BOUND = 1 << 15
_MULTI_INDICES: dict[tuple[int, tuple[Entry, ...]], "MultiIndex"] = {}
_FORESTS: dict[tuple["MultiIndex", ...], "Forest"] = {}
# How many times the monomial table has been cleared; a forest made before
# the last clear holds superseded components and is rebuilt on its next lookup.
_EPOCH = 0


def _clear_interned(table: dict) -> None:
    """Empty a full intern table and every package cache, so that no cached
    basis keeps a superseded key."""
    global _EPOCH
    if table is _MULTI_INDICES:
        _EPOCH += 1
    table.clear()
    clear_caches()


def clear_caches() -> None:
    """Empty every module-level ``functools`` cache of the loaded
    ``mirpath`` modules (the intern tables stay)."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__package__}."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class MultiIndex:
    """Sparse monomial ``Π z(i,k)^m`` with positive frequencies only.

    ``letters`` is the alphabet size ``d+1`` (letters run over ``0..d``).
    Equality and hashing look at the alphabet size and the entry map, so the
    same monomial over two alphabet sizes compares unequal; combining them
    raises.  Arities
    are unbounded — the sparse map needs no ceiling, raising an arity simply
    creates a new key.

    Instances are immutable and hash-consed: every construction returns the
    one canonical object for ``(letters, entries)`` held in a bounded intern
    table, so equal keys meet by identity in dict and set lookups.  The table
    is cleared when full; an object built before that stays valid, because
    equality and hashing remain structural.  Pickling and copying rebuild
    through the constructor and so land on the canonical object.
    """

    __slots__ = ("entries", "letters", "_hash", "_degree")

    def __new__(cls, entries: Iterable[Entry] | dict[tuple[int, int], int], letters: int):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = list(entries)
        cleaned = []
        degree = 0
        for (i, k), m in items:
            if m == 0:
                continue
            if m < 0:
                raise ValueError(f"negative frequency {m} for z({i},{k})")
            if i < 0 or k < 0:
                raise ValueError(f"negative letter or arity in z({i},{k})")
            if i >= letters:
                raise ValueError(f"letter {i} outside alphabet of size {letters}")
            cleaned.append(((i, k), m))
            degree += m
        cleaned.sort()
        return cls._trusted(tuple(cleaned), letters, degree)

    @classmethod
    def _trusted(
        cls, entries: tuple[Entry, ...], letters: int, degree: int
    ) -> "MultiIndex":
        """The canonical object for already-checked entries: sorted by
        variable, every frequency positive, every letter inside the alphabet,
        and ``degree`` the sum of the frequencies."""
        key = (letters, entries)
        self = _MULTI_INDICES.get(key)
        if self is None:
            if len(_MULTI_INDICES) >= _MULTI_INDEX_BOUND:
                _clear_interned(_MULTI_INDICES)
            self = object.__new__(cls)
            self.entries = entries
            self.letters = letters
            self._hash = hash(key)
            self._degree = degree
            _MULTI_INDICES[key] = self
        return self

    def __reduce__(self):
        return MultiIndex, (self.entries, self.letters)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, MultiIndex)
            and self.letters == other.letters
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "MultiIndex") -> bool:
        # Canonical total order: lexicographic on the sorted entry triples.
        return self.entries < other.entries

    def __le__(self, other: "MultiIndex") -> bool:
        return self.entries <= other.entries

    def __repr__(self) -> str:
        from .grammar import format_multi_index

        return f"MultiIndex({format_multi_index(self)!r}, d={self.letters - 1})"

    # -- structure ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def frequency(self, i: int, k: int) -> int:
        for (a, b), m in self.entries:
            if (a, b) == (i, k):
                return m
        return 0

    def degree(self) -> int:
        return self._degree

    def arity_weight(self) -> int:
        """Σ k·β(i,k) — the total arity carried by the monomial."""
        return sum(k * m for (_, k), m in self.entries)

    def population_count(self) -> int:
        """|β| − Σ k·β(i,k); populated means this equals 1."""
        return self.degree() - self.arity_weight()

    def is_populated(self) -> bool:
        return self.population_count() == 1

    def letter_count(self, letter: int) -> int:
        """Number of variables (with multiplicity) carrying ``letter``."""
        return sum(m for (i, _), m in self.entries if i == letter)

    def gamma_degree(self, gamma: Fraction) -> Fraction:
        total = Fraction(0)
        inv = 1 / Fraction(gamma)
        for (i, _), m in self.entries:
            total += m * inv if i == 0 else Fraction(m)
        return total

    def symmetry_factor(self) -> int:
        s = 1
        for (_, k), m in self.entries:
            s *= _factorial(k) ** m
        return s

    # -- arithmetic on the monomial ----------------------------------------

    def mul(self, other: "MultiIndex") -> "MultiIndex":
        if self.letters != other.letters:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {self.letters} vs {other.letters}"
            )
        a, b = self.entries, other.entries
        if not b:
            return self
        if not a:
            return other
        # merge the two sorted entry tuples, adding the frequencies of a
        # variable present in both
        merged = []
        p = q = 0
        while p < len(a) and q < len(b):
            (ka, ma), (kb, mb) = a[p], b[q]
            if ka < kb:
                merged.append(a[p])
                p += 1
            elif kb < ka:
                merged.append(b[q])
                q += 1
            else:
                merged.append((ka, ma + mb))
                p += 1
                q += 1
        entries = (*merged, *a[p:], *b[q:])
        return MultiIndex._trusted(entries, self.letters, self._degree + other._degree)

    def with_bumped(self, i: int, k: int) -> "MultiIndex":
        """Replace one copy of z(i,k) by z(i,k+1)."""
        merged = dict(self.entries)
        merged[(i, k)] -= 1
        if merged[(i, k)] == 0:
            del merged[(i, k)]
        merged[(i, k + 1)] = merged.get((i, k + 1), 0) + 1
        return MultiIndex._trusted(tuple(sorted(merged.items())), self.letters, self._degree)

    def without(self, i: int, k: int, count: int = 1) -> "MultiIndex":
        """Remove ``count`` copies of z(i,k); raises if not present."""
        merged = dict(self.entries)
        have = merged.get((i, k), 0)
        if have < count:
            raise ValueError(f"cannot remove z({i},{k})^{count}: only {have} present")
        if have == count:
            del merged[(i, k)]
        else:
            merged[(i, k)] = have - count
        return MultiIndex._trusted(
            tuple(sorted(merged.items())), self.letters, self._degree - count
        )

    def minus(self, other: "MultiIndex") -> "MultiIndex":
        """Multiset difference; raises if ``other`` is not contained in self."""
        out = self
        for (i, k), m in other.entries:
            out = out.without(i, k, m)
        return out

    def contains(self, other: "MultiIndex") -> bool:
        return all(self.frequency(i, k) >= m for (i, k), m in other.entries)

    def sub_multi_indices(self) -> Iterator["MultiIndex"]:
        """All divisors of the monomial (including the empty one and itself)."""
        keys = [key for key, _ in self.entries]
        ranges = [range(m + 1) for _, m in self.entries]
        for choice in itertools.product(*ranges):
            yield MultiIndex(
                [(key, c) for key, c in zip(keys, choice) if c > 0], self.letters
            )


@lru_cache(maxsize=256)
def _factorial(n: int) -> int:
    out = 1
    for j in range(2, n + 1):
        out *= j
    return out


def empty_multi_index(d: int) -> MultiIndex:
    """The unit of the multi-index product (not populated)."""
    return MultiIndex((), d + 1)


def single(i: int, k: int, d: int, m: int = 1) -> MultiIndex:
    """The monomial z(i,k)^m over letters 0..d."""
    return MultiIndex([((i, k), m)], d + 1)


_by_entries = attrgetter("entries")


class Forest:
    """Unordered multiset of multi-indices, stored sorted (canonical form).

    The empty forest is the unit of the forest product and of the
    Grossman–Larson product.

    Like :class:`MultiIndex`, forests are immutable and hash-consed: every
    construction returns the canonical object for its sorted components
    tuple, kept in a bounded intern table that is cleared when full.
    Equality and hashing stay structural, and pickling and copying rebuild
    through the constructor.
    """

    __slots__ = ("components", "_hash", "_degree", "_epoch")

    def __new__(cls, components: Iterable[MultiIndex] = ()):
        comps = [c for c in components]
        for c in comps:
            if not c.entries:
                raise ValueError("a forest component must be a nonempty multi-index")
        comps.sort(key=_by_entries)
        key = tuple(comps)
        self = _FORESTS.get(key)
        if self is None or self._epoch != _EPOCH:
            if self is not None:
                del _FORESTS[key]  # so that the new entry keeps the new key
            elif len(_FORESTS) >= _FOREST_BOUND:
                _clear_interned(_FORESTS)
            self = object.__new__(cls)
            self.components = key
            self._hash = hash(key)
            self._degree = sum(c._degree for c in key)
            self._epoch = _EPOCH
            _FORESTS[key] = self
        return self

    def __reduce__(self):
        return Forest, (self.components,)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Forest) and self.components == other.components
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Forest") -> bool:
        return tuple(c.entries for c in self.components) < tuple(
            c.entries for c in other.components
        )

    def __repr__(self) -> str:
        from .grammar import format_forest

        return f"Forest({format_forest(self)!r})"

    @property
    def is_empty(self) -> bool:
        return not self.components

    def cardinality(self) -> int:
        return len(self.components)

    def degree(self) -> int:
        return self._degree

    def gamma_degree(self, gamma: Fraction) -> Fraction:
        return sum((c.gamma_degree(gamma) for c in self.components), Fraction(0))

    def symmetry_factor(self) -> int:
        s = 1
        for mi, r in self.multiplicities():
            s *= _factorial(r) * mi.symmetry_factor() ** r
        return s

    def multiplicities(self) -> list[tuple[MultiIndex, int]]:
        """Distinct components with their repetition counts."""
        out: list[tuple[MultiIndex, int]] = []
        for c in self.components:
            if out and out[-1][0] == c:
                out[-1] = (c, out[-1][1] + 1)
            else:
                out.append((c, 1))
        return out

    def merge(self, other: "Forest") -> "Forest":
        """Forest product: disjoint union of the multisets."""
        if not other.components:
            return self
        if not self.components:
            return other
        return Forest(self.components + other.components)

    def all_populated(self) -> bool:
        return all(c.is_populated() for c in self.components)


EMPTY_FOREST = Forest()


def _exact(c) -> int | Fraction:
    """``c`` itself when it is an ``int`` or a ``Fraction``, else ``Fraction(c)``.

    A ``float`` (or ``bool``) raises :class:`TypeError`: its binary value
    would silently become a rational nobody wrote (0.1 ↦ 3602879701896397/2⁵⁵).
    """
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, (float, bool)):
        name = type(c).__name__
        raise TypeError(f"an exact coefficient cannot be a {name}, got {c!r}")
    return Fraction(c)


class FormalSum:
    """Finite linear combination of hashable basis elements over ℚ.

    Coefficients are ``int`` or ``Fraction``: an integer stays an ``int``
    until a division promotes it, any other exact number (a numpy integer, a
    ``Decimal``, a ``"p/q"`` string) is converted to a ``Fraction``, and a
    ``float`` or ``bool`` raises :class:`TypeError`.  The two types compare
    and hash equal, so the choice never shows in equality, hashing or
    formatting.  Zero coefficients are dropped
    eagerly, addition and scalar multiplication are exact, and the term map
    is never mutated after construction.  The basis may hold
    :class:`MultiIndex`, :class:`Forest`, or tuples of those (for
    tensor-square targets).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for b, c in terms.items():
                c = _exact(c)
                if c:
                    clean[b] = c
        self.terms: dict = clean

    @classmethod
    def _of(cls, terms: dict) -> "FormalSum":
        """Trusted constructor for a dict whose coefficients are already
        ``int`` or ``Fraction``: drops the zeros and checks nothing else."""
        self = object.__new__(cls)
        self.terms = {b: c for b, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def of(cls, basis_element, coefficient=1) -> "FormalSum":
        return cls({basis_element: coefficient})

    @classmethod
    def linear(cls, pairs: Iterable[tuple["FormalSum", int | Fraction]]) -> "FormalSum":
        """Σ c·s over ``(s, c)`` pairs, accumulated in one dict."""
        out: dict = {}
        get = out.get
        for s, c in pairs:
            c = _exact(c)
            for b, cb in s.terms.items():
                out[b] = get(b, 0) + cb * c
        return cls._of(out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for b, c in other.terms.items():
            out[b] = out.get(b, 0) + c
        return FormalSum._of(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, scalar) -> "FormalSum":
        s = _exact(scalar)
        if s == 0:
            return FormalSum()
        return FormalSum._of({b: c * s for b, c in self.terms.items()})

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def coefficient(self, basis_element) -> int | Fraction:
        return self.terms.get(basis_element, 0)

    def items(self):
        return self.terms.items()

    def map_terms(self, fn: Callable) -> "FormalSum":
        """Apply ``fn: basis -> FormalSum`` linearly."""
        return FormalSum.linear((fn(b), c) for b, c in self.terms.items())

    def filter_terms(self, keep: Callable) -> "FormalSum":
        return FormalSum._of({b: c for b, c in self.terms.items() if keep(b)})

    def __repr__(self) -> str:
        from .grammar import format_formal_sum

        return f"FormalSum({format_formal_sum(self)!r})"


@dataclass(frozen=True)
class Grading:
    """Degree truncation ``max_norm`` together with an exact Hölder index.

    ``n_gamma`` (= ⌊1/γ⌋) is always recomputed from γ so the two can never
    drift apart.  γ being rational makes every degree-filter comparison exact,
    in particular at the boundary |z^β|_γ = n_gamma.
    """

    max_norm: int
    gamma: Fraction

    def __post_init__(self):
        g = Fraction(self.gamma)
        object.__setattr__(self, "gamma", g)
        if not (0 < g < 1):
            raise ValueError(f"gamma must lie in (0,1), got {g}")
        if self.max_norm < 1:
            raise ValueError(f"max_norm must be >= 1, got {self.max_norm}")

    @property
    def n_gamma(self) -> int:
        return int(1 / self.gamma)  # floor of the exact reciprocal


# ---------------------------------------------------------------------------
# Free-standing operations (the module's public algebra surface)
# ---------------------------------------------------------------------------


def mi_product(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Entrywise sum of frequency maps (commutative, degree-additive)."""
    return a.mul(b)


def degree(u: Forest | MultiIndex) -> int:
    return u.degree()


def gamma_degree(u: Forest | MultiIndex, grading: Grading) -> Fraction:
    return u.gamma_degree(grading.gamma)


def is_populated(a: MultiIndex) -> bool:
    return a.is_populated()


def symmetry_factor(u: Forest | MultiIndex) -> int:
    return u.symmetry_factor()


def pairing(u: FormalSum, v: FormalSum) -> int | Fraction:
    """⟨·,·⟩ with basis forests orthogonal and ⟨F,F⟩ = S(F)."""
    total = 0
    small, large = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
    for b, c in small.terms.items():
        other = large.terms.get(b)
        if other is not None:
            total += c * other * b.symmetry_factor()
    return total


@lru_cache(maxsize=1 << 13)
def _derivative_terms(a: MultiIndex, order: int) -> FormalSum:
    """Dⁿ on a single multi-index, n = ``order``: each D raises each
    variable's arity once, with the frequency as coefficient.  Memoized;
    the shared result is never mutated."""
    if order == 0:
        return FormalSum._of({a: 1})
    out: dict[MultiIndex, int] = {}
    for mi, c in _derivative_terms(a, order - 1).items():
        for (i, k), m in mi.entries:
            term = mi.with_bumped(i, k)
            out[term] = out.get(term, 0) + c * m
    return FormalSum._of(out)


def derivation_d(u: FormalSum | Forest | MultiIndex) -> FormalSum:
    """The raising derivation, with the Leibniz rule over forest components.

    Accepts a bare multi-index, a bare forest, or a formal sum of forests;
    a multi-index input yields a sum of multi-indices, forest inputs yield
    sums of forests.  ``D ∅ = 0``.
    """
    if isinstance(u, MultiIndex):
        return _derivative_terms(u, 1)
    if isinstance(u, Forest):
        out: dict[Forest, int] = {}
        comps = u.components
        for j, c in enumerate(comps):
            rest = comps[:j] + comps[j + 1 :]
            for mi, coeff in _derivative_terms(c, 1).items():
                key = Forest(rest + (mi,))
                out[key] = out.get(key, 0) + coeff
        return FormalSum._of(out)
    return u.map_terms(lambda f: derivation_d(f))


@lru_cache(maxsize=1 << 13)
def prelie_graft(a: MultiIndex, b: MultiIndex) -> FormalSum:
    """a ▷ b = a · (D b), a sum of multi-indices of degree |a|+|b|."""
    # multiplying by a fixed monomial is injective, so no terms collide
    return FormalSum._of({a.mul(m): c for m, c in _derivative_terms(b, 1).items()})


def graft_simultaneous(left: Forest, right: Forest) -> FormalSum:
    """Simultaneous grafting of each component of ``left`` onto ``right``.

    Every component of ``left`` is assigned to one component of ``right``
    (all assignments summed); a component receiving n parts is replaced by
    (Π parts)·Dⁿ of itself.  The empty forest is a two-sided identity.
    Returns a sum of forests.
    """
    if left.is_empty:
        return FormalSum.of(right)
    if right.is_empty:
        return FormalSum.of(left)
    n = left.cardinality()
    m = right.cardinality()
    total: dict[Forest, int | Fraction] = {}
    slots: dict[tuple[tuple[MultiIndex, ...], MultiIndex], list] = {}
    for assignment in itertools.product(range(m), repeat=n):
        buckets: list[list[MultiIndex]] = [[] for _ in range(m)]
        for part_idx, slot in enumerate(assignment):
            buckets[slot].append(left.components[part_idx])
        slot_sums = []
        for bucket, comp in zip(buckets, right.components):
            # (Π bucket)·Dⁿ comp recurs across assignments: build it once
            key = (tuple(bucket), comp)
            if (s := slots.get(key)) is None:
                prefix = reduce(MultiIndex.mul, bucket, MultiIndex((), comp.letters))
                s = slots[key] = [
                    (prefix.mul(mi), c)
                    for mi, c in _derivative_terms(comp, len(bucket)).items()
                ]
            slot_sums.append(s)
        # the Cartesian product of the slot sums, as forests
        for combo in itertools.product(*slot_sums):
            coeff = 1
            for _mi, c in combo:
                coeff *= c
            forest = Forest([mi for mi, _c in combo])
            total[forest] = total.get(forest, 0) + coeff
    return FormalSum._of(total)


@lru_cache(maxsize=1 << 11)
def deshuffle(u: Forest) -> FormalSum:
    """Δ on a forest: all splits of the multiset of components into an
    ordered pair (left, right), as a sum over ``(Forest, Forest)`` keys.

    On a single multi-index this is primitive; on products it is
    multiplicative, so a forest with r copies of a component contributes
    binomial weights C(r, j).
    """
    out: dict[tuple[Forest, Forest], int] = {}
    mults = u.multiplicities()
    choices = [range(r + 1) for _, r in mults]
    for pick in itertools.product(*choices):
        coeff = 1
        left: list[MultiIndex] = []
        right: list[MultiIndex] = []
        for (mi, r), j in zip(mults, pick):
            coeff *= _binomial(r, j)
            left.extend([mi] * j)
            right.extend([mi] * (r - j))
        key = (Forest(left), Forest(right))
        out[key] = out.get(key, 0) + coeff
    return FormalSum._of(out)


@lru_cache(maxsize=1024)
def _binomial(n: int, k: int) -> int:
    return _factorial(n) // (_factorial(k) * _factorial(n - k))


@lru_cache(maxsize=1 << 14)
def _star_basis(u: Forest, v: Forest) -> FormalSum:
    """Grossman–Larson product of two basis forests, untruncated.

    μ(id ⊗ (· ⋆₂ v)) Δ u: one part of the deshuffle of u stays aside as a
    forest factor, the other is grafted simultaneously onto v.  Every output
    term has degree exactly deg(u)+deg(v).
    """
    if u.is_empty:
        return FormalSum.of(v)
    if v.is_empty:
        return FormalSum.of(u)
    out: dict[Forest, int | Fraction] = {}
    for (kept, grafted), split_coeff in deshuffle(u).items():
        for forest, c in graft_simultaneous(grafted, v).items():
            key = kept.merge(forest)
            out[key] = out.get(key, 0) + c * split_coeff
    return FormalSum._of(out)


def gl_product(
    u: FormalSum | Forest, v: FormalSum | Forest, trunc: int | None = None
) -> FormalSum:
    """Associative product on formal sums of forests, unit ∅.

    With ``trunc=N`` every output term of degree > N is dropped (termwise,
    after expansion — the graded quotient, not a different product).
    """
    if isinstance(u, Forest):
        u = FormalSum.of(u)
    if isinstance(v, Forest):
        v = FormalSum.of(v)
    out: dict[Forest, int | Fraction] = {}
    for fu, cu in u.items():
        for fv, cv in v.items():
            if trunc is not None and fu.degree() + fv.degree() > trunc:
                continue
            cuv = cu * cv
            for w, c in _star_basis(fu, fv).items():
                out[w] = out.get(w, 0) + cuv * c
    s = FormalSum._of(out)
    if trunc is not None:
        s = s.filter_terms(lambda f: f.degree() <= trunc)
    return s


# ---------------------------------------------------------------------------
# Graded bases
# ---------------------------------------------------------------------------


def enumerate_populated(d: int, max_degree: int) -> list[MultiIndex]:
    """All populated multi-indices of degree ≤ max_degree over letters 0..d,
    each exactly once, in the canonical total order.

    A populated monomial of degree n carries total arity n−1, so arities never
    exceed max_degree−1 and the search space is finite.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    found: list[MultiIndex] = []
    variables = sorted(
        (i, k) for k in range(max(0, max_degree)) for i in range(d + 1)
    )

    def extend(pos: int, picked: list[Entry], deg: int, arity: int) -> None:
        if pos == len(variables):
            if deg >= 1 and deg - arity == 1:
                found.append(MultiIndex(list(picked), d + 1))
            return
        i, k = variables[pos]
        extend(pos + 1, picked, deg, arity)  # frequency 0
        for m in range(1, max_degree - deg + 1):
            new_arity = arity + k * m
            if new_arity > max_degree - 1:
                break  # a populated monomial of degree n has total arity n−1
            picked.append(((i, k), m))
            extend(pos + 1, picked, deg + m, new_arity)
            picked.pop()

    extend(0, [], 0, 0)
    found.sort(key=lambda mi: mi.entries)
    return found


@lru_cache(maxsize=32)
def _populated_tuple(d: int, max_degree: int) -> tuple[MultiIndex, ...]:
    return tuple(enumerate_populated(d, max_degree))


@lru_cache(maxsize=32)
def forest_basis(d: int, max_degree: int) -> tuple[Forest, ...]:
    """All forests of populated multi-indices of total degree ≤ max_degree,
    the empty forest first, then sorted by (degree, canonical order)."""
    mis = _populated_tuple(d, max_degree)
    forests: list[Forest] = [Forest()]
    # build multisets by walking the multi-index list in order, never
    # choosing an earlier index than the last one picked
    def extend(start: int, picked: list[MultiIndex], deg: int) -> None:
        for idx in range(start, len(mis)):
            mi = mis[idx]
            nd = deg + mi.degree()
            if nd > max_degree:
                continue
            picked.append(mi)
            forests.append(Forest(list(picked)))
            extend(idx, picked, nd)
            picked.pop()

    extend(0, [], 0)
    forests.sort(key=lambda f: (f.degree(), tuple(c.entries for c in f.components)))
    return tuple(forests)
