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
built from the last two.  None of them truncates.

Two private kernels carry the expansions of the exact layer.
``_distribute`` sums over every assignment of the components of one forest
to the components of another, or to a kept slot; the simultaneous graft, the
Grossman–Larson product (in one pass) and the forest insertion in
:mod:`mirpath.translation` use it.  It reads the weighted assignments of
equal components to the slots from a plan built once per shape, and builds
its output forests without re-checking their components.  ``_multiply_out``
multiplies an ordered list of sums out onto a starting key; the insertion into
a monomial and the translation of monomials and forests use it, and only the
dual table of the translation passes it a truncation.  It, ``gl_product`` and
``FormalSum.linear`` add ``int`` numerators over one common denominator and
divide once per term.  A result is handed out, not copied: ``FormalSum._of``
keeps the dict its caller built when no coefficient needs dividing or
dropping, and ``gl_product`` of two basis forests returns the cached
``_star_basis`` sum itself.

Multi-indices and forests are hash-consed: every construction returns the
one canonical object for its value, kept in a bounded intern table that is
cleared when full, so equal keys usually meet by identity in dict lookups.
A monomial is keyed by its exponent word, so a product is one addition.
A clear of the monomial table empties the forest table too, so no forest
outlives the monomials it was built from.  Equality and hashing stay
structural, so an object built before a clear still equals, hashes like and
finds the entries of a new one, and pickling or copying rebuilds through the
constructor.  Every cache in this module is bounded; the README's cache
table, which a test checks against the code, gives each bound.
:func:`clear_caches` empties them all, and ``verify`` empties them and both
intern tables after each suite.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import attrgetter
from typing import Callable, Iterable

from . import _EXPORTS

__all__ = list(_EXPORTS["algebra"])


class AlphabetMismatchError(ValueError):
    """Two multi-indices over different alphabets were combined."""


Entry = tuple[tuple[int, int], int]

# Hash-consing tables, each cleared at its bound: the canonical MultiIndex per
# (letters, word), or (letters, entries) without a word, and the canonical
# Forest per components tuple.  One suite of ``verify --d 2 --max-norm 3``
# fills them to at most about 4 400 and 6 800 (``star-associative``), and the
# exact acceptance suite (criterion 01) to about 20 000 and 2 000.
_MULTI_INDEX_BOUND = 1 << 15
_FOREST_BOUND = 1 << 15
_MULTI_INDICES: dict[tuple[int, int | tuple[Entry, ...]], "MultiIndex"] = {}
# A word holds β(i,k) in its 16-bit field k·letters + i.  A monomial has one
# only if its degree is below 2¹⁶, so no field carries, and each field is < 64.
_FIELD_BITS, _WORD_FIELDS = 16, 64
_FORESTS: dict[tuple["MultiIndex", ...], "Forest"] = {}


def _clear_interned(table: dict) -> None:
    """Empty an intern table and every package cache, so that no cached
    basis keeps a superseded key.  Emptying the monomial table empties the
    forest table too, so that no forest outlives the monomials it was built
    from."""
    if table is _MULTI_INDICES:
        _FORESTS.clear()
    table.clear()
    clear_caches()


def clear_caches() -> None:
    """Empty every module-level ``functools`` cache of the loaded
    ``mirpath`` modules (the intern tables stay), also one behind a
    ``functools.wraps`` wrapper such as a profiler's."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__package__}."):
            for value in vars(module).values():
                while hasattr(value, "__wrapped__") and not hasattr(value, "cache_clear"):
                    value = value.__wrapped__
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
    one canonical object for its value, held in a bounded intern table under
    ``(letters, word)``, the word being Σ β(i,k)·2^(16·(k·letters + i)), or
    under ``(letters, entries)`` if it has none.  The table is cleared when
    full; an object built before that stays valid, because equality and
    hashing remain structural.  Pickling and copying rebuild through the
    constructor and so land on the canonical object.
    """

    __slots__ = ("entries", "letters", "_hash", "_degree", "_word")

    def __new__(cls, entries: Iterable[Entry] | dict[tuple[int, int], int], letters: int):
        items = entries.items() if isinstance(entries, dict) else entries
        # a variable listed twice carries the sum of its frequencies
        merged: dict[tuple[int, int], int] = {}
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
            merged[(i, k)] = merged.get((i, k), 0) + m
            degree += m
        return cls._trusted(tuple(sorted(merged.items())), letters, degree)

    @classmethod
    def _trusted(
        cls, entries: tuple[Entry, ...], letters: int, degree: int, word: int | None = None
    ) -> "MultiIndex":
        """The canonical object for already-checked entries (sorted by variable,
        every frequency positive, every letter inside the alphabet), given
        their degree and, if known, their exponent word."""
        if word is None and not degree >> _FIELD_BITS:
            word = 0
            for (i, k), m in entries:
                if k * letters + i >= _WORD_FIELDS:
                    word = None
                    break
                word += m << _FIELD_BITS * (k * letters + i)
        key = (letters, entries if word is None else word)
        self = _MULTI_INDICES.get(key)
        if self is None:
            if len(_MULTI_INDICES) >= _MULTI_INDEX_BOUND:
                _clear_interned(_MULTI_INDICES)
            self = object.__new__(cls)
            self.entries = entries
            self.letters = letters
            self._hash = hash((letters, entries))
            self._degree = degree
            self._word = word
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

    def __repr__(self) -> str:
        from .grammar import format_multi_index

        return f"MultiIndex({format_multi_index(self)!r}, d={self.letters - 1})"

    # -- structure ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.entries

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
            s *= math.factorial(k) ** m
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
        degree = self._degree + other._degree
        word = None
        # below degree 2¹⁶ no field of the sum carries into its neighbour
        if self._word is not None and other._word is not None and not degree >> _FIELD_BITS:
            word = self._word + other._word
            found = _MULTI_INDICES.get((self.letters, word))
            if found is not None:
                return found
        # a new monomial: merge the two sorted entry tuples, adding the
        # frequencies of a variable present in both
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
        return MultiIndex._trusted(entries, self.letters, degree, word)

    def with_bumped(self, i: int, k: int) -> "MultiIndex":
        """Replace one copy of z(i,k) by z(i,k+1)."""
        return self._moved(i, k, 1)

    def without(self, i: int, k: int) -> "MultiIndex":
        """Remove one copy of z(i,k); raises if not present."""
        return self._moved(i, k, 0)

    def _moved(self, i: int, k: int, up: int) -> "MultiIndex":
        """This monomial with one z(i,k) raised to z(i,k+1) (up = 1) or removed."""
        word, letters = self._word, self.letters
        field = k * letters + i
        if word is None or not 0 <= i < letters or k < 0 or field + up * letters >= _WORD_FIELDS:
            word = None  # the result has no word, or z(i,k) is absent
        elif word >> _FIELD_BITS * field & (1 << _FIELD_BITS) - 1:  # never borrow when absent
            word += (up << _FIELD_BITS * (field + letters)) - (1 << _FIELD_BITS * field)
            found = _MULTI_INDICES.get((letters, word))
            if found is not None:
                return found
        merged = dict(self.entries)
        have = merged.pop((i, k)) if up else merged.pop((i, k), 0)  # KeyError if up
        if not have:
            raise ValueError(f"cannot remove z({i},{k})^1: only 0 present")
        if have > 1:
            merged[(i, k)] = have - 1
        if up:
            merged[(i, k + 1)] = merged.get((i, k + 1), 0) + 1
        return MultiIndex._trusted(
            tuple(sorted(merged.items())), letters, self._degree - 1 + up, word
        )


def empty_multi_index(d: int) -> MultiIndex:
    """The unit of the multi-index product (not populated)."""
    return MultiIndex((), d + 1)


def single(i: int, k: int, d: int, m: int = 1) -> MultiIndex:
    """The monomial z(i,k)^m over letters 0..d."""
    return MultiIndex([((i, k), m)], d + 1)


_by_entries = attrgetter("entries")
_denominator = attrgetter("denominator")


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

    __slots__ = ("components", "_hash", "_degree")

    def __new__(cls, components: Iterable[MultiIndex] = ()):
        comps = tuple(components)
        for c in comps:
            if not c.entries:
                raise ValueError("a forest component must be a nonempty multi-index")
        return cls._trusted(comps)

    @classmethod
    def _trusted(cls, components: Iterable[MultiIndex]) -> "Forest":
        """The canonical object for already-checked components, in any
        order, every one a nonempty multi-index."""
        key = tuple(sorted(components, key=_by_entries))
        self = _FORESTS.get(key)
        if self is None:
            if len(_FORESTS) >= _FOREST_BOUND:
                _clear_interned(_FORESTS)
            self = object.__new__(cls)
            self.components = key
            self._hash = hash(key)
            self._degree = sum(c._degree for c in key)
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
            s *= math.factorial(r) * mi.symmetry_factor() ** r
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
        return Forest._trusted(self.components + other.components)


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


#: The bit length of 10^4000 − 1.  A longer numerator or denominator has
#: more than 4000 decimal digits, near the 4300 beyond which Python will not
#: print an int, so ``_rational`` refuses it before any work uses it.
_RATIONAL_BITS = 13288


def _rational(value) -> Fraction:
    """An outside value as an exact rational: an int, a float read by its
    decimal text (so 0.3 is 3/10), or a string such as ``"p/q"`` or
    ``"1.5"``.  Any other value, a NaN, an infinity, a decimal exponent of
    more than four digits (``Fraction`` would build its power of ten) and a
    numerator or denominator of more than 4000 decimal digits raise
    ValueError, and a zero denominator ZeroDivisionError.  The CLI's
    rational flags and the JSON readers' ``"rational"`` kind both read by
    this rule."""
    if type(value) not in (int, float, str):
        raise ValueError(f"not a rational: {value!r}")
    if type(value) is str:
        exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if len(exponent.lstrip("0")) > 4:
            raise ValueError(f"the exponent of {value!r} has more than four digits")
    q = Fraction(repr(value) if type(value) is float else value)
    if max(q.numerator.bit_length(), q.denominator.bit_length()) > _RATIONAL_BITS:
        raise ValueError("a numerator or denominator has more than 4000 digits")
    return q


def _numerators(s: "FormalSum") -> tuple[Iterable, int]:
    """The terms of ``s`` as ``(basis, int numerator)`` pairs over the least
    common denominator of its coefficients, and that denominator."""
    den = math.lcm(*map(_denominator, s.terms.values()))
    if den == 1:
        return s.terms.items(), 1
    return [(b, c.numerator * (den // c.denominator)) for b, c in s.terms.items()], den


@lru_cache(maxsize=1 << 12)
def _quotient(n: int, den: int) -> Fraction:
    """``Fraction(n, den)``, built once per ``(n, den)`` while cached: a few
    coefficients recur in many sums, which share them, being immutable."""
    return Fraction(n, den)


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
    def _of(cls, terms: dict, den: int = 1) -> "FormalSum":
        """Trusted constructor for ``int`` or ``Fraction`` coefficients, or
        ``int`` numerators over the common denominator ``den``: drops the
        zeros, divides the others by ``den`` once, and checks nothing else.

        With ``den == 1`` and no zero coefficient the sum keeps ``terms``
        itself, so a caller passes a dict it built and returns the result at
        once, never touching the dict again (a test checks that every call
        sits in a ``return``)."""
        self = object.__new__(cls)
        if den == 1:
            self.terms = terms if all(terms.values()) else {b: c for b, c in terms.items() if c}
        else:
            self.terms = {b: _quotient(n, den) for b, n in terms.items() if n}
        return self

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def of(cls, basis_element, coefficient=1) -> "FormalSum":
        return cls({basis_element: coefficient})

    @classmethod
    def linear(cls, pairs: Iterable[tuple["FormalSum", int | Fraction]]) -> "FormalSum":
        """Σ c·s over ``(s, c)`` pairs, accumulated as ``int`` numerators
        over a common denominator that grows only when a term needs it."""
        out: dict = {}
        get = out.get
        den = 1
        for s, c in pairs:
            c = _exact(c)
            cn, cd = c.numerator, c.denominator
            for b, cb in s.terms.items():
                if type(cb) is int and cd == 1 == den:  # nothing to scale
                    out[b] = get(b, 0) + cb * cn
                    continue
                d = cb.denominator * cd
                if den % d:  # grow the common denominator to a multiple of d
                    grown = math.lcm(den, d)
                    out = {k: n * (grown // den) for k, n in out.items()}
                    get = out.get
                    den = grown
                out[b] = get(b, 0) + cb.numerator * cn * (den // d)
        return cls._of(out, den)

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
        return FormalSum._of({b: c * s for b, c in self.terms.items()})

    def coefficient(self, basis_element) -> int | Fraction:
        return self.terms.get(basis_element, 0)

    def items(self):
        return self.terms.items()

    def map_terms(self, fn: Callable) -> "FormalSum":
        """Apply ``fn: basis -> FormalSum`` linearly."""
        return FormalSum.linear((fn(b), c) for b, c in self.terms.items())

    def __repr__(self) -> str:
        from .grammar import format_formal_sum

        return f"FormalSum({format_formal_sum(self)!r})"


class _Record:
    """Base of the package's frozen records, in place of
    ``dataclass(frozen=True)``, whose import brings ``inspect`` with it.

    A subclass's annotated fields are the parameters of its constructor, in
    order, by position or keyword; a class attribute named like a field is
    its default, and ``__post_init__``, if defined, runs last.  A record
    compares, hashes and prints field by field, refuses assignment, and
    pickles by its instance dictionary."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(vars(cls).get("__annotations__", {}))
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in vars(cls) else f for f in fields)
        body = f"vars(self).update({', '.join(f'{f}={f}' for f in fields)})"
        if hasattr(cls, "__post_init__"):
            body += "; self.__post_init__()"
        namespace = {"_defaults": vars(cls)}
        exec(f"def __init__(self, {params}):\n    {body}\n", namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Grading(_Record):
    """Degree truncation ``max_norm`` together with an exact Hölder index.

    γ is stored as a ``Fraction``, so every comparison of a γ-degree
    |z^β|_γ against a level is exact, also at the boundary.
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


# ---------------------------------------------------------------------------
# Free-standing operations (the module's public algebra surface)
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=1 << 8)
def _spreads(r: int, slots: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every way to send r equal parts to ``slots`` slots, as (pick, weight)
    pairs: ``pick`` is the nondecreasing r-tuple of the slots the parts go
    to, ``weight`` the number of assignments of r distinguishable parts that
    make it, the multinomial r!/Π(copies per slot)!."""
    return tuple(
        (pick, math.factorial(r) // math.prod(map(math.factorial, Counter(pick).values())))
        for pick in itertools.combinations_with_replacement(range(slots), r)
    )


@lru_cache(maxsize=1 << 8)
def _plan(rs: tuple[int, ...], targets: int, keep: bool) -> tuple:
    """The assignments :func:`_distribute` sums for distinct parts of the
    multiplicities ``rs``: one pick from :func:`_spreads` per part, in the
    order of their product, as (count, fixed, filled) indexing the parts and
    then the targets: the number of assignments that make it, the kept parts
    and the targets receiving none, and (target, its parts) for the others."""
    plan = []
    for choice in itertools.product(*[_spreads(r, targets + keep) for r in rs]):
        buckets = [[g for g, (pick, _) in enumerate(choice) for slot in pick if slot == s]
                   for s in range(targets + keep)]
        kept = buckets.pop() if keep else []
        plan.append((math.prod(ways for _pick, ways in choice),
                     (*kept, *(len(rs) + t for t, b in enumerate(buckets) if not b)),
                     tuple((len(rs) + t, tuple(b)) for t, b in enumerate(buckets) if b)))
    return tuple(plan)


def _distribute(left: Forest, right: Forest, slot_sum: Callable, keep=False) -> FormalSum:
    """The sum of forests over every assignment of each component of ``left``
    to one component of ``right`` or, with ``keep``, to a kept slot: a
    component receiving the parts ``bucket`` is replaced by the (monomial,
    coefficient) pairs of ``slot_sum(bucket, component)``, one receiving
    none and the kept parts stay, and each assignment adds the forests of
    their Cartesian product.

    Equal parts are interchangeable, so the assignments are read from the
    :func:`_plan` of the shape of ``left``, each weighted by the number of
    assignments that make it; one filling a single slot skips the Cartesian
    product.  ``slot_sum`` must yield nonempty monomials: the output forests
    are built without re-checking them."""
    groups = left.multiplicities()
    pool = [*(part for part, _r in groups), *right.components]
    trusted = Forest._trusted
    total: dict[Forest, int] = {}
    get = total.get
    for count, fixed, filled in _plan(tuple(r for _, r in groups), len(right.components), keep):
        fixed = [pool[i] for i in fixed]
        slot_sums = [slot_sum(tuple([pool[g] for g in b]), pool[t]) for t, b in filled]
        if len(slot_sums) == 1:
            for mi, c in slot_sums[0]:
                forest = trusted([*fixed, mi])
                total[forest] = get(forest, 0) + count * c
            continue
        for combo in itertools.product(*slot_sums):
            coeff = count
            comps = fixed.copy()
            for mi, c in combo:
                coeff *= c
                comps.append(mi)
            forest = trusted(comps)
            total[forest] = get(forest, 0) + coeff
    return FormalSum._of(total)


def _multiply_out(
    start, factors: Iterable[FormalSum], join: Callable, trunc: int | None = None
) -> FormalSum:
    """``start`` times each sum of ``factors`` in turn, a product of two keys
    being ``join(left, right)``.  A term of degree above ``trunc`` is dropped
    as soon as it appears: degrees only grow under further factors, so this
    loses nothing."""
    acc: dict = {start: 1}
    den = 1
    for factor in factors:
        terms, d = _numerators(factor)
        den *= d
        nxt: dict = {}
        for left, cl in acc.items():
            for right, cr in terms:
                key = join(left, right)
                if trunc is not None and key.degree() > trunc:
                    continue
                nxt[key] = nxt.get(key, 0) + cl * cr
        acc = nxt
        if not acc:
            break
    return FormalSum._of(acc, den)


@lru_cache(maxsize=1 << 10)
def _graft_slot(bucket: tuple[MultiIndex, ...], comp: MultiIndex) -> tuple:
    """(Π bucket)·Dⁿ comp, n = len(bucket), as (monomial, coefficient) pairs;
    memoized, since one (bucket, component) pair recurs across products."""
    prefix = reduce(MultiIndex.mul, bucket)  # a bucket is never empty
    return tuple(
        (prefix.mul(mi), c) for mi, c in _derivative_terms(comp, len(bucket)).items()
    )


def graft_simultaneous(left: Forest, right: Forest) -> FormalSum:
    """Simultaneous grafting of each component of ``left`` onto ``right``.

    Every component of ``left`` is assigned to one component of ``right``
    (all assignments summed); a component receiving n parts is replaced by
    (Π parts)·Dⁿ of itself.  The empty forest is a two-sided identity.
    Returns a sum of forests.
    """
    if right.is_empty:
        return FormalSum.of(left)
    return _distribute(left, right, _graft_slot)


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
            coeff *= math.comb(r, j)
            left.extend([mi] * j)
            right.extend([mi] * (r - j))
        key = (Forest(left), Forest(right))
        out[key] = out.get(key, 0) + coeff
    return FormalSum._of(out)


@lru_cache(maxsize=1 << 14)
def _star_basis(u: Forest, v: Forest) -> FormalSum:
    """Grossman–Larson product of two basis forests, untruncated.

    μ(id ⊗ (· ⋆₂ v)) Δ u in one pass: each component of u either stays
    aside as a forest factor or is grafted onto one component of v, summed
    over every such assignment (the binomials of Δ u count the ways to keep
    equal components).  Every output term has degree exactly deg(u)+deg(v).
    """
    return _distribute(u, v, _graft_slot, keep=True)


def gl_product(u: FormalSum | Forest, v: FormalSum | Forest) -> FormalSum:
    """Associative product on formal sums of forests, unit ∅, untruncated.

    Two basis forests give the cached :func:`_star_basis` sum itself, shared
    between callers like every memoized result."""
    if isinstance(u, Forest) and isinstance(v, Forest):
        return _star_basis(u, v)
    if isinstance(u, Forest):
        u = FormalSum.of(u)
    if isinstance(v, Forest):
        v = FormalSum.of(v)
    (u_terms, du), (v_terms, dv) = _numerators(u), _numerators(v)
    out: dict[Forest, int] = {}
    for fu, nu in u_terms:
        for fv, nv in v_terms:
            nuv = nu * nv
            for w, c in _star_basis(fu, fv).terms.items():
                out[w] = out.get(w, 0) + nuv * c
    return FormalSum._of(out, du * dv)


# ---------------------------------------------------------------------------
# Graded bases
# ---------------------------------------------------------------------------


def enumerate_populated(d: int, max_degree: int) -> list[MultiIndex]:
    """All populated multi-indices of degree ≤ max_degree over letters 0..d,
    each exactly once, in the canonical total order.

    A populated monomial of degree n carries total arity n−1, so arities never
    exceed max_degree−1 and the search space is finite.  The search picks
    the variables of arity ≥ 1, then completes each pick with every
    multiset of arity-0 variables that brings the degree to arity + 1.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    found: list[MultiIndex] = []
    letters = range(d + 1)
    raised = [(i, k) for i in letters for k in range(1, max_degree)]

    def extend(start: int, picked: list[Entry], deg: int, arity: int) -> None:
        for leaves in itertools.combinations_with_replacement(letters, arity + 1 - deg):
            entries = picked + [((i, 0), len(list(g))) for i, g in itertools.groupby(leaves)]
            found.append(MultiIndex._trusted(tuple(sorted(entries)), d + 1, arity + 1))
        for pos in range(start, len(raised)):
            i, k = raised[pos]
            for m in range(1, (max_degree - 1 - arity) // k + 1):
                picked.append(((i, k), m))
                extend(pos + 1, picked, deg + m, arity + k * m)
                picked.pop()

    if max_degree >= 1:
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
