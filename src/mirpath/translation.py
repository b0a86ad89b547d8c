"""Insertion products, the extraction–contraction coproduct, and translation.

A *grafting character* assigns an exact rational weight to finitely many
populated monomials in one fixed direction.  A full translation is a list of
such characters, one per letter, acting on generators by

    z(i,k)  ↦  Σ_β  ℓ_i(z^β)/S(z^β) · D^k z^β

and extended multiplicatively.  The translation is exact over ℚ; two
functions apply it to floating-point data: :func:`translate_roughpath`
(exact dual coefficients against stored binary64 increments) and
:func:`translated_field` (∂^k f_i^ℓ = Υ_f[T_ℓ z(i,k)] on a vector field).

The insertion products and the translation are expansions built on the two
kernels of :mod:`mirpath.algebra`: ``_distribute`` spreads the components
of an inserted forest over the components of the target forest, and
``_multiply_out`` multiplies out the factors of one monomial's insertion or
translation, and the component images of a forest's translation.  Only the
dual table that :func:`m_ell` and :func:`translate_roughpath` read truncates:
it translates each populated monomial of degree ≤ n once, without the terms
above n.

The dual of the translation is computed twice, on purpose, by two routes:
once by transposing the insertion product against the graded basis with the
symmetrised pairing, and once by a direct extraction procedure (pull a
sub-monomial out, differentiate, leave a time variable behind).  The two
share only ``_derivative_terms`` (Dⁿ of one monomial) and the basic types
with their symmetry factors; the direct route calls neither kernel nor the
insertion products.  The test-suite demands the two agree
coefficient-by-coefficient; they are kept separate so that neither can
silently drift.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    Grading,
    MultiIndex,
    _derivative_terms,
    _distribute,
    _exact,
    _multiply_out,
    _populated_tuple,
    empty_multi_index,
    forest_basis,
    single,
)
from .fields import (
    DerivativeOrderError,
    VectorField,
    _poly_add,
    _poly_monomial_upsilon,
    upsilon_sum,
)
from .grammar import _json_int, _json_value, format_multi_index, parse_multi_index
from .group import RoughPathGrid, _key_index

__all__ = [
    "Character",
    "TruncationShortfallError",
    "character_from_json",
    "character_to_json",
    "coproduct_minus",
    "identity_characters",
    "insert_prelie",
    "insert_simultaneous",
    "ito_strat_character",
    "m_ell",
    "translate",
    "translate_roughpath",
    "translated_field",
    "translation_order",
]


class TruncationShortfallError(ValueError):
    """A translation needs basis values beyond the stored truncation;
    ``missing_degree`` is the lowest degree it needs and the grid lacks."""

    def __init__(self, message: str, missing_degree: int):
        super().__init__(message)
        self.missing_degree = missing_degree


# ---------------------------------------------------------------------------
# characters


class Character:
    """Finitely supported rational weights on populated monomials, with a
    direction.

    The forest extension is multiplicative and never stored; the weight of the
    empty monomial is 1.  Characters compare by direction and support, so two
    independently built copies of the same translation datum are equal and
    share cache entries.
    """

    __slots__ = ("direction", "d", "terms", "_hash")

    def __init__(
        self,
        direction: int,
        terms: Mapping[MultiIndex, Fraction | int] | Iterable[tuple[MultiIndex, Fraction | int]],
        d: int,
    ):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if not 0 <= direction <= d:
            raise ValueError(f"direction {direction} outside letters 0..{d}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[MultiIndex, int | Fraction] = {}
        for key, value in items:
            coeff = _exact(value)
            if coeff == 0:
                continue
            if not key.is_populated():
                raise ValueError(f"character key {key!r} is not populated")
            if any(i > d for (i, _k), _m in key.entries):
                raise ValueError(f"character key {key!r} uses a letter above {d}")
            cleaned[MultiIndex(key.entries, d + 1)] = coeff
        self.direction = direction
        self.d = d
        self.terms = cleaned
        self._hash = hash((direction, d, frozenset(cleaned.items())))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Character)
            and self.direction == other.direction
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"{format_multi_index(k)}: {v}" for k, v in sorted(self.terms.items())
        )
        return f"Character(direction={self.direction}, {{{body}}}, d={self.d})"

    def value(self, key: MultiIndex) -> int | Fraction:
        return self.terms.get(key, 0)

    def on_forest(self, forest: Forest) -> int | Fraction:
        """Multiplicative extension; the empty forest evaluates to 1."""
        out = 1
        for component in forest.components:
            out *= self.terms.get(component, 0)
            if out == 0:
                return out
        return out

    def support_degree(self) -> int:
        return max((key.degree() for key in self.terms), default=0)

    @classmethod
    def identity(cls, direction: int, d: int) -> "Character":
        """The do-nothing translation in one direction: z(i,0) keeps weight 1."""
        return cls(direction, {single(direction, 0, d): 1}, d)


def identity_characters(d: int) -> list[Character]:
    return [Character.identity(i, d) for i in range(d + 1)]


def ito_strat_character(d: int) -> Character:
    """Direction-0 character converting an Itô Brownian lift to Stratonovich.

    Keeps the drift generator (weight 1 on z(0,0)) and adds half of each
    diagonal second-order monomial z(j,0)z(j,1).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    terms: dict[MultiIndex, int | Fraction] = {single(0, 0, d): 1}
    for j in range(1, d + 1):
        key = single(j, 0, d).mul(single(j, 1, d))
        terms[key] = Fraction(1, 2)
    return Character(0, terms, d)


def _ito_strat_characters(d: int) -> list[Character]:
    """The Itô→Stratonovich list: :func:`ito_strat_character` in the drift
    slot, the identity in every other direction."""
    ells = identity_characters(d)
    ells[0] = ito_strat_character(d)
    return ells


def translation_order(ells: Sequence[Character], gamma: Fraction) -> Fraction:
    """Regularity cost of a translation: the output path is γ/N-Hölder.

    Each support key is measured in the γ-grading and compared against the
    γ-size of the generator it replaces (1/γ for the time letter, 1 for the
    others); the order is the worst ratio, floored at 1 so that translations
    which only redistribute mass at or below generator size are free.  The
    identity translation has order 1 in every dimension, and the
    Itô–Stratonovich character has order max(1, 2γ) — free exactly when
    γ ≤ 1/2.
    """
    gamma = Fraction(gamma)
    worst = Fraction(1)
    for ell in ells:
        generator_size = Fraction(1) / gamma if ell.direction == 0 else Fraction(1)
        for key in ell.terms:
            ratio = key.gamma_degree(gamma) / generator_size
            if ratio > worst:
                worst = ratio
    return worst


# ---------------------------------------------------------------------------
# JSON surface


def character_to_json(ell: Character) -> dict:
    return {
        "direction": ell.direction,
        "terms": {
            format_multi_index(key): str(value)
            for key, value in sorted(ell.terms.items())
        },
    }


def character_from_json(payload: dict, d: int | None = None) -> Character:
    direction = _json_int(_json_value(payload, "object", "a character"), "direction")
    raw = _json_value(payload.get("terms", {}), "object", "terms")
    parsed: list[tuple[MultiIndex, Fraction]] = []
    spelled: dict[tuple, str] = {}
    widest = max(direction, 1)
    for text, value in raw.items():
        key = parse_multi_index(text)
        if (first := spelled.setdefault(key.entries, text)) != text:
            raise ValueError(f"{text!r} repeats the term {first!r}")
        parsed.append((key, _json_value(value, "rational", f"the weight of {text!r}")))
        widest = max(widest, *(i for (i, _k), _m in key.entries), 0)
    if d is None:
        d = widest
    return Character(direction, {MultiIndex(k.entries, d + 1): v for k, v in parsed}, d)


# ---------------------------------------------------------------------------
# insertion products


@lru_cache(maxsize=1 << 12)
def insert_prelie(a: MultiIndex, b: MultiIndex) -> FormalSum:
    """Insert ``a`` into ``b``: Σ_k (D^k a) · ∂b/∂z(0,k).

    Each time variable of arity k in ``b`` absorbs a copy of ``a``
    differentiated k times; the partial derivative carries the frequency of
    the consumed variable.  Zero when ``b`` has no time variable at all.
    Population counts pass through: the result has the same defect as ``b``.
    """
    if not a.is_populated():
        raise ValueError("the inserted monomial must be populated")
    total: dict[MultiIndex, int] = {}
    for (i, k), m in b.entries:
        if i != 0:
            continue
        reduced = b.without(0, k)
        for term, coeff in _derivative_terms(a, k).items():
            key = term.mul(reduced)
            total[key] = total.get(key, 0) + coeff * m
    return FormalSum._of(total)


def _letter0_arities(a: MultiIndex) -> tuple[int, ...]:
    return tuple(
        k for (i, k), m in a.entries if i == 0 for _ in range(m)
    )


def _strip_letter0(a: MultiIndex) -> MultiIndex:
    return MultiIndex(
        [((i, k), m) for (i, k), m in a.entries if i != 0], a.letters
    )


@lru_cache(maxsize=1 << 11)
def _insert_into_mi(left: Forest, a: MultiIndex) -> FormalSum:
    if left.is_empty:
        return FormalSum.of(a)
    arities = _letter0_arities(a)
    if len(arities) != left.cardinality():
        return FormalSum.zero()
    # Iterated partial derivatives: removing all copies of z(0,k) one at a
    # time contributes the falling product m·(m−1)···1 per distinct arity.
    partial_coeff = 1
    for _k, count in itertools.groupby(sorted(arities)):
        partial_coeff *= math.factorial(len(tuple(count)))
    rest = _strip_letter0(a)
    total: dict[MultiIndex, int] = {}
    for assignment in set(itertools.permutations(arities)):
        factors = map(_derivative_terms, left.components, assignment)
        for key, coeff in _multiply_out(rest, factors, MultiIndex.mul).items():
            total[key] = total.get(key, 0) + coeff * partial_coeff
    return FormalSum._of(total)


def insert_simultaneous(left: Forest, right: MultiIndex | Forest) -> FormalSum:
    """Simultaneous insertion of every component of ``left`` into ``right``.

    The empty forest acts as the identity.  A non-empty forest of n components
    inserts only into monomials carrying exactly n time variables (counted
    with multiplicity): each component is differentiated to the arity of the
    time variable it replaces, summed over all matchings.  A count mismatch
    yields zero rather than an error, so the product is defined on the whole
    basis.  On a forest the Leibniz extension distributes the inserted
    components over the right-hand factors in every possible way.
    """
    if isinstance(right, MultiIndex):
        return _insert_into_mi(left, right)
    if right.is_empty:
        return FormalSum.of(EMPTY_FOREST) if left.is_empty else FormalSum.zero()
    return _distribute(
        left, right, lambda bucket, target: _insert_into_mi(Forest(bucket), target).items()
    )


# ---------------------------------------------------------------------------
# translation of formal sums


@lru_cache(maxsize=256)
def _generator_image(ell: Character, k: int) -> FormalSum:
    """Image of z(direction, k): Σ_β ℓ(z^β)/S(z^β) · D^k z^β."""
    return FormalSum.linear(
        (_derivative_terms(key, k), _over_symmetry(weight, key))
        for key, weight in ell.terms.items()
    )


def _over_symmetry(weight: int | Fraction, key: MultiIndex) -> int | Fraction:
    """weight / S(key); an ``int`` weight stays an ``int`` when S(key) = 1."""
    s = key.symmetry_factor()
    return weight if s == 1 else Fraction(weight, s)


def _check_characters(ells: Sequence[Character], letters: int) -> None:
    if len(ells) != letters:
        raise ValueError(
            f"need one character per letter 0..{letters - 1}, got {len(ells)}"
        )
    for i, ell in enumerate(ells):
        if ell.direction != i:
            raise ValueError(
                f"character at position {i} has direction {ell.direction}"
            )


def _generator_images(ells: tuple[Character, ...], mi: MultiIndex) -> Iterable[FormalSum]:
    """The image of each variable of ``mi``, repeated by its frequency."""
    return (_generator_image(ells[i], k) for (i, k), m in mi.entries for _ in range(m))


@lru_cache(maxsize=4096)
def _translate_mi(ells: tuple[Character, ...], mi: MultiIndex) -> FormalSum:
    """Translate one monomial; callers share the memoized result and must not mutate it."""
    return _multiply_out(
        empty_multi_index(mi.letters - 1), _generator_images(ells, mi), MultiIndex.mul
    )


@lru_cache(maxsize=1 << 11)
def _translate_forest(ells: tuple[Character, ...], forest: Forest) -> FormalSum:
    factors = (_translate_mi(ells, c) for c in forest.components)
    return _multiply_out(
        EMPTY_FOREST, factors, lambda f, mi: Forest._trusted((*f.components, mi))
    )


def translate(ells: Sequence[Character], u: FormalSum | Forest | MultiIndex) -> FormalSum:
    """Apply the translation determined by one character per letter.

    Generators map to their character images, products to products, with
    no truncation.  Monomial input yields a sum of monomials, forest input a
    sum of forests, and formal sums are handled term by term.
    """
    ells = tuple(ells)
    if isinstance(u, MultiIndex):
        _check_characters(ells, u.letters)
        return _translate_mi(ells, u)
    if isinstance(u, Forest):
        if not u.is_empty:
            _check_characters(ells, u.components[0].letters)
        return _translate_forest(ells, u)
    return FormalSum.linear((translate(ells, term), coeff) for term, coeff in u.items())


# ---------------------------------------------------------------------------
# extraction–contraction coproduct, two independent routes


def _coproduct_transpose(b: MultiIndex) -> FormalSum:
    """Route A: transpose the simultaneous insertion against the basis.

    The coefficient of F ⊗ z^α is ⟨F ⋆₁ z^α, z^β⟩ / (S(F)·S(z^α)).  Letter
    bookkeeping prunes the double enumeration: insertion and D keep the
    letter of every variable, and F only inserts into an α with one time
    variable per component of F, replacing all of them.  So z^β has the time
    letters of F, and per other letter those of F and α together; each
    forest looks up the one bucket of α with the letter counts that are
    left, which also fixes deg α = deg β − (deg F − |F|).
    """
    d = b.letters - 1
    bound = b.degree()
    s_b = b.symmetry_factor()
    out: dict[tuple[Forest, MultiIndex], int | Fraction] = {(EMPTY_FOREST, b): 1}
    buckets: dict[tuple[int, ...], list[MultiIndex]] = {}
    for alpha in _populated_tuple(d, bound):
        buckets.setdefault(_letter_counts((alpha,), b.letters), []).append(alpha)
    time_b, *space_b = _letter_counts((b,), b.letters)
    for forest in forest_basis(d, bound):
        if forest.is_empty:
            continue
        time_f, *space_f = _letter_counts(forest.components, b.letters)
        if time_f != time_b:
            continue
        key = (forest.cardinality(), *(x - y for x, y in zip(space_b, space_f)))
        for alpha in buckets.get(key, ()):
            coeff = _insert_into_mi(forest, alpha).coefficient(b)
            if coeff:
                out[(forest, alpha)] = Fraction(
                    coeff * s_b, forest.symmetry_factor() * alpha.symmetry_factor()
                )
    return FormalSum._of(out)


def _letter_counts(monomials: Iterable[MultiIndex], letters: int) -> tuple[int, ...]:
    """Number of variables per letter 0..letters−1, over all ``monomials``."""
    counts = [0] * letters
    for mi in monomials:
        for (i, _k), m in mi.entries:
            counts[i] += m
    return tuple(counts)


def _set_partitions(items: tuple[int, ...]) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Partitions of distinct labels into unordered non-empty blocks, each
    partition exactly once (the block holding the first label is free)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, r):
            block = (first,) + chosen
            remainder = tuple(x for x in rest if x not in chosen)
            for tail in _set_partitions(remainder):
                yield (block,) + tail


def _frequency_factor(mi: MultiIndex) -> int:
    """Product of the factorials of the variable frequencies."""
    out = 1
    for _var, m in mi.entries:
        out *= math.factorial(m)
    return out


@lru_cache(maxsize=1024)
def _raise_candidates(block: MultiIndex, steps: int) -> tuple[tuple[MultiIndex, Fraction], ...]:
    """Monomials γ whose ``steps``-fold derivative contains ``block``, with
    the coefficient of ``block`` in D^steps z^γ."""
    candidates = {block}
    for _ in range(steps):
        lowered: set[MultiIndex] = set()
        for mi in candidates:
            for (i, k), _m in mi.entries:
                if k >= 1:
                    lowered.add(mi.without(i, k).mul(single(i, k - 1, mi.letters - 1)))
        candidates = lowered
    out = []
    for gamma in sorted(candidates):
        coeff = _derivative_terms(gamma, steps).coefficient(block)
        if coeff:
            out.append((gamma, coeff))
    return tuple(out)


def _coproduct_direct(b: MultiIndex) -> FormalSum:
    """Route B: the extraction–contraction procedure itself.

    Working over the individual variable slots of the target, split off a
    slot set E carrying every time variable, partition E into blocks, lift
    each block through the derivation the number of steps its population
    count falls short of one, and leave a time variable of that arity
    behind.  Enumerating labelled slots visits every extraction through a
    number of configurations given by frequency multinomials; the weight
    below divides those back out against the symmetry factors of target,
    leftover and extracted components.  The transpose route serves as the
    independent check of this bookkeeping.
    """
    d = b.letters - 1
    s_b = b.symmetry_factor()
    freq_b = _frequency_factor(b)
    out: dict[tuple[Forest, MultiIndex], int | Fraction] = {(EMPTY_FOREST, b): 1}
    variables = tuple((i, k) for (i, k), m in b.entries for _ in range(m))
    time_slots = tuple(p for p, (i, _k) in enumerate(variables) if i == 0)
    space_slots = tuple(p for p, (i, _k) in enumerate(variables) if i != 0)
    for r in range(len(space_slots) + 1):
        for picked in itertools.combinations(space_slots, r):
            slots = tuple(sorted(time_slots + picked))
            if not slots:
                continue
            leftover = MultiIndex(
                [(variables[p], 1) for p in space_slots if p not in picked], b.letters
            )
            base = Fraction(
                s_b * _frequency_factor(leftover),
                leftover.symmetry_factor() * freq_b,
            )
            for blocks in _set_partitions(slots):
                block_mis = [
                    MultiIndex([(variables[p], 1) for p in block], b.letters)
                    for block in blocks
                ]
                steps = [1 - mi.population_count() for mi in block_mis]
                if any(s < 0 for s in steps):
                    continue
                contracted = leftover
                for s in steps:
                    contracted = contracted.mul(single(0, s, d))
                arity_multiplicities: dict[int, int] = {}
                for s in steps:
                    arity_multiplicities[s] = arity_multiplicities.get(s, 0) + 1
                prefactor = base
                for s, m in arity_multiplicities.items():
                    prefactor *= Fraction(math.factorial(m), math.factorial(s) ** m)
                for mi in block_mis:
                    prefactor *= _frequency_factor(mi)
                option_lists = [
                    _raise_candidates(mi, s) for mi, s in zip(block_mis, steps)
                ]
                for chosen in itertools.product(*option_lists):
                    gammas = [gamma for gamma, _c in chosen]
                    coeff = prefactor
                    for _gamma, c in chosen:
                        coeff *= c
                    forest = Forest(gammas)
                    for gamma, group in itertools.groupby(sorted(gammas)):
                        repeat = len(tuple(group))
                        coeff /= Fraction(gamma.symmetry_factor()) ** repeat
                    key = (forest, contracted)
                    out[key] = out.get(key, 0) + coeff
    return FormalSum._of(out)


def coproduct_minus(b: MultiIndex, *, route: str = "direct") -> FormalSum:
    """Extraction–contraction coproduct of a populated monomial.

    Keys of the result are (extracted forest, contracted monomial) pairs; the
    term ∅ ⊗ z^β is always present.  The expansion is never truncated.
    ``route``, passed by keyword, selects between the direct procedure
    (``"direct"``) and the transpose of the insertion product
    (``"transpose"``); the two must agree exactly and are both exercised by
    the test-suite.
    """
    if not b.is_populated():
        raise ValueError(f"coproduct target {b!r} must be populated")
    if route == "direct":
        return _coproduct_direct(b)
    if route == "transpose":
        return _coproduct_transpose(b)
    raise ValueError(f"unknown route {route!r}; expected 'direct' or 'transpose'")


# ---------------------------------------------------------------------------
# dual translation and rough-path translation


@lru_cache(maxsize=8)
def _dual_table(ells: tuple[Character, ...], d: int, n: int) -> dict[MultiIndex, FormalSum]:
    """The dual of the translation on the populated basis of degree ≤ ``n``,
    as one transpose: each β, in basis order, is translated once without its
    terms above ``n``, and each term z^b is filed under row b with
    coefficient ⟨T z^β, z^b⟩·S(z^b)/S(z^β).  Translation never lowers degree
    and keeps monomials populated, so row b is the whole dual image of z^b.
    Memoized, so callers share the rows and must not mutate them."""
    rows: dict[MultiIndex, dict[MultiIndex, Fraction]] = {}
    for beta in _populated_tuple(d, n):
        image = _multiply_out(
            empty_multi_index(d), _generator_images(ells, beta), MultiIndex.mul, n
        )
        s_beta = beta.symmetry_factor()
        for b, coeff in image.items():
            rows.setdefault(b, {})[beta] = Fraction(coeff * b.symmetry_factor(), s_beta)
    return {b: FormalSum._of(row) for b, row in rows.items()}


def m_ell(ells: Sequence[Character], b: MultiIndex) -> FormalSum:
    """Dual of :func:`translate` on one basis monomial.

    The coefficient of z^β is ⟨T z^β, z^b⟩·S(z^b)/S(z^β), read off row b of
    the dual table at degree deg b (translation never lowers degree).  For a
    direction-0 character this must reproduce contracting the
    extraction–contraction coproduct against the character, which the tests
    check term by term.
    """
    _check_characters(ells, b.letters)
    if not b.is_populated():
        raise ValueError(f"dual translation target {b!r} must be populated")
    return _dual_table(tuple(ells), b.letters - 1, b.degree()).get(b, FormalSum.zero())


def _missing_degree(ells: tuple[Character, ...], d: int, stored: int, n: int) -> int | None:
    """The lowest degree above ``stored`` of a monomial z^β that the dual
    table at degree ``n`` reads, that is, whose image T z^β has a term of
    degree ≤ ``n``; None if there is none.

    A product of nonzero polynomials is nonzero, so the lowest degree of
    T z^β is the sum of the lowest degrees of its generator images, and no
    image is multiplied out.
    """
    lowest = {
        (ell.direction, k): min(
            (t.degree() for t in _generator_image(ell, k).terms), default=math.inf
        )
        for ell in ells
        for k in range(n)  # a populated monomial of degree ≤ n has arities < n
    }
    for m in range(stored + 1, n + 1):
        if any(
            beta.degree() == m and sum(lowest[var] * c for var, c in beta.entries) <= n
            for beta in _populated_tuple(d, m)
        ):
            return m
    return None


def contract_character(ell: Character, split: FormalSum) -> FormalSum:
    """Evaluate a character on the forest leg of a coproduct expansion."""
    out: dict[MultiIndex, int | Fraction] = {}
    for (forest, mi), coeff in split.items():
        weight = ell.on_forest(forest)
        if weight:
            out[mi] = out.get(mi, 0) + coeff * weight
    return FormalSum._of(out)


def translate_roughpath(ells: Sequence[Character], path: RoughPathGrid) -> RoughPathGrid:
    """Push a stored rough path through a translation.

    Each output value is the stored increment evaluated on the exact dual
    image of the requested monomial.  The output grading is fixed by the
    regularity cost of the translation: an order-1 translation keeps the
    input grading unchanged (so the identity is bit-identical at any stored
    level), while order N > 1 moves to Hölder exponent γ/N with truncation
    ⌊N/γ⌋, N being :func:`translation_order`.  The input truncation must
    cover every monomial the dual images touch; if not, the lowest missing
    degree is reported, before any dual image is built, rather than silently
    truncated.  An output value that overflows the float range is refused
    with a ``ValueError`` naming its segment.
    """
    _check_characters(ells, path.d + 1)
    gamma = path.grading.gamma
    order = translation_order(ells, gamma)
    if order == 1:
        out_grading = path.grading
    else:
        out_grading = Grading(max_norm=math.floor(order / gamma), gamma=gamma / order)
    ells = tuple(ells)
    stored = path.grading.max_norm
    missing = _missing_degree(ells, path.d, stored, out_grading.max_norm)
    if missing is not None:
        raise TruncationShortfallError(
            f"translation needs stored values of degree {missing}, "
            f"but the grid is truncated at {stored}",
            missing_degree=missing,
        )
    duals = _dual_table(ells, path.d, out_grading.max_norm)
    out_index = _key_index(path.d, out_grading.max_norm)
    index = _key_index(path.d, stored)
    coords = np.zeros((len(path.coords), len(out_index)))
    with np.errstate(all="ignore"):  # the grid refuses an overflow
        for beta, p in out_index.items():
            column = coords[:, p]
            for gamma_mi, coeff in duals.get(beta, FormalSum.zero()).items():
                column += float(coeff) * path.coords[:, index[gamma_mi]]
    return RoughPathGrid._of(
        path.d, out_grading, path.times, coords, out_grading.max_norm
    )


def translated_field(f: VectorField, ells: Sequence[Character]) -> VectorField:
    """The field f^ℓ whose derivatives are ∂^k f_i^ℓ = Υ_f[T_ℓ z(i,k)].

    T_ℓ z(i,k) = Σ_β ℓ_i(z^β)/S(z^β) · D^k z^β is :func:`translate` of the
    generator, so no derivative is taken numerically, and characters of any
    support degree are accepted.  A polynomial field gives a polynomial
    field with exact rows, which serializes and differentiates to any order.
    Any other field keeps its providers and pays one derivative order per
    character degree above 1.
    """
    ells = tuple(ells)
    _check_characters(ells, f.d + 1)
    if f.poly_coeffs is not None:
        rows = []
        for i in range(f.d + 1):
            row: tuple[Fraction, ...] = (Fraction(0),)
            for beta, c in translate(ells, single(i, 0, f.d)).items():
                term = _poly_monomial_upsilon(beta, f.poly_coeffs)
                row = _poly_add(row, tuple(c * x for x in term))
            rows.append(row)
        return VectorField.polynomial(rows)

    max_order = None
    if f.max_order is not None:
        support_degree = max(1, max(ell.support_degree() for ell in ells))
        max_order = f.max_order - (support_degree - 1)
        if max_order < 0:
            raise DerivativeOrderError(
                f"translating a field with {f.max_order} derivative orders by "
                f"characters of degree {support_degree} leaves no usable orders"
            )

    def provider(i: int, k: int, y: float) -> float:
        return upsilon_sum(translate(ells, single(i, k, f.d)), f, y)

    return VectorField(d=f.d, provider=provider, max_order=max_order)
