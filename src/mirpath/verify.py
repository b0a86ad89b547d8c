"""Identity-verification suites behind the ``verify`` subcommand.

Each suite re-checks one family of identities of the multi-index calculus
over a reproducible budget: the exact suites compare rational formal sums
for equality, the floating-point suites carry an explicit tolerance that is
recorded in the result.  A failing check names the offending basis elements
in the grammar notation (``z(1,0)z(1,1)``, ``z(1,0)*z(2,0)``) so a report
points at the algebra, not just at a count.

:func:`run_all_suites` also takes a test-only fault hook, ``fault_suite``,
which flips the verdict of the first check of a named suite.  The CLI wires
it to a hidden flag so the failure-reporting path itself can be exercised
end to end without shipping a broken identity.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    Grading,
    MultiIndex,
    clear_caches,
    derivation_d,
    deshuffle,
    enumerate_populated,
    forest_basis,
    gl_product,
    prelie_graft,
    symmetry_factor,
)
from .fields import SmoothTest, VectorField, upsilon
from .grammar import format_forest, format_multi_index
from .group import chen_compose, exp_element, log_element, random_character
from .lifts import lift_piecewise_linear
from .translation import (
    coproduct_minus,
    identity_characters,
    insert_prelie,
    insert_simultaneous,
    ito_strat_character,
    m_ell,
    translate,
)

__all__ = [
    "SuiteResult",
    "available_suites",
    "run_all_suites",
]


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

_MAX_REPORTED_FAILURES = 5


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    checked: int
    failed: int
    tolerance: float | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checked": self.checked,
            "failed": self.failed,
            "tolerance": self.tolerance,
            "failures": list(self.failures),
        }


class _Recorder:
    """Accumulates check verdicts for one suite; with ``fault`` set, the
    first verdict is inverted and tagged ``[injected fault]``."""

    def __init__(self, name: str, tolerance: float | None, fault: bool):
        self.name = name
        self.tolerance = tolerance
        self.checked = 0
        self.failed = 0
        self.failures: list[str] = []
        self._fault_pending = fault

    def check(self, ok: bool, describe: str | Callable[[], str]) -> None:
        self.checked += 1
        tag = ""
        if self._fault_pending:
            self._fault_pending = False
            ok = not ok
            tag = " [injected fault]"
        if ok:
            return
        self.failed += 1
        if len(self.failures) < _MAX_REPORTED_FAILURES:
            text = describe() if callable(describe) else describe
            self.failures.append(text + tag)

    def result(self) -> SuiteResult:
        return SuiteResult(
            name=self.name,
            checked=self.checked,
            failed=self.failed,
            tolerance=self.tolerance,
            failures=tuple(self.failures),
        )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _graft_compose(p: FormalSum, q) -> FormalSum:
    """Bilinear extension of the grafting product."""
    if isinstance(q, MultiIndex):
        q = FormalSum.of(q)
    return FormalSum.linear(
        (prelie_graft(x, y), cx * cy) for x, cx in p.items() for y, cy in q.items()
    )


def _graft_defect(a: MultiIndex, b: MultiIndex, c: MultiIndex) -> FormalSum:
    # associator (a▷b)▷c − a▷(b▷c)
    return _graft_compose(prelie_graft(a, b), c) - _graft_compose(
        FormalSum.of(a), prelie_graft(b, c)
    )


def _insert_left(u: FormalSum, c: MultiIndex) -> FormalSum:
    """Extend the single insertion linearly in its first argument."""
    return FormalSum.linear((insert_prelie(term, c), coeff) for term, coeff in u.items())


def _insert_right(a: MultiIndex, u: FormalSum) -> FormalSum:
    """Extend the single insertion linearly in its second argument."""
    return FormalSum.linear((insert_prelie(a, term), coeff) for term, coeff in u.items())


def _insert_defect(a: MultiIndex, b: MultiIndex, c: MultiIndex) -> FormalSum:
    # associator (a▶b)▶c − a▶(b▶c)
    return _insert_left(insert_prelie(a, b), c) - _insert_right(
        a, insert_prelie(b, c)
    )


def _add_term(acc: dict, key, coeff) -> None:
    acc[key] = acc.get(key, 0) + coeff


def _triple_text(kind: str, a, b, c) -> str:
    fmt = format_forest if isinstance(a, Forest) else format_multi_index
    return f"{kind} triple ({fmt(a)}, {fmt(b)}, {fmt(c)})"


def _is_characters(d: int):
    """Character list: raising correction in the drift slot, identity elsewhere."""
    ells = identity_characters(d)
    ells[0] = ito_strat_character(d)
    return ells


def _poly_rows(d: int) -> tuple[tuple[Fraction, ...], ...]:
    base = (
        (Fraction(1), Fraction(1, 3)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(-1), Fraction(0), Fraction(1, 5)),
        (Fraction(1, 2), Fraction(1), Fraction(-1, 4)),
    )
    return tuple(base[i % len(base)] for i in range(d + 1))


_SAMPLE_POINTS = (-0.6, 0.3, 1.1)


# ---------------------------------------------------------------------------
# exact suites: grafting, forest product, deshuffle, bialgebra
# ---------------------------------------------------------------------------


def _check_symmetric_triples(defect, label, d, max_norm, seed, rec):
    """defect(a, b, c) == defect(b, a, c) on every triple of degree ≤ 2,
    then on 40 seeded random triples of degree ≤ 3."""
    low = enumerate_populated(d, min(max_norm, 2))
    rng = random.Random(seed)
    deep = enumerate_populated(d, min(max_norm, 3))
    drawn = [tuple(rng.choice(deep) for _ in range(3)) for _ in range(40)]
    # a triple is also its swap's partner: evaluate each defect once
    seen: dict[tuple[MultiIndex, ...], FormalSum] = {}

    def value(*triple):
        if (got := seen.get(triple)) is None:
            got = seen[triple] = defect(*triple)
        return got

    for a, b, c in [*itertools.product(low, repeat=3), *drawn]:
        rec.check(
            value(a, b, c) == value(b, a, c),
            lambda a=a, b=b, c=c: _triple_text(label, a, b, c),
        )


def _suite_graft_prelie(d, max_norm, seed, gamma, rec):
    """Associator of ▷ symmetric in its first two slots."""
    _check_symmetric_triples(_graft_defect, "graft pre-Lie", d, max_norm, seed, rec)


def _suite_graft_nap(d, max_norm, seed, gamma, rec):
    """Grafting twice into the same target commutes in the grafted pair."""

    def nap_side(a, b, c):
        return _graft_compose(prelie_graft(b, c), a) - _graft_compose(
            FormalSum.of(b), prelie_graft(a, c)
        )

    _check_symmetric_triples(nap_side, "graft NAP", d, max_norm, seed, rec)


def _suite_star_associative(d, max_norm, seed, gamma, rec):
    """Forest product: two-sided unit and associativity."""
    basis = forest_basis(d, min(max_norm, 3))
    for f in basis:
        rec.check(
            gl_product(EMPTY_FOREST, f) == FormalSum.of(f)
            and gl_product(f, EMPTY_FOREST) == FormalSum.of(f),
            lambda f=f: f"unit defect at {format_forest(f)}",
        )
    pool = [f for f in basis if not f.is_empty]
    rng = random.Random(seed)
    for _ in range(60):
        u, v, w = (rng.choice(pool) for _ in range(3))
        rec.check(
            gl_product(gl_product(u, v), w) == gl_product(u, gl_product(v, w)),
            lambda u=u, v=v, w=w: _triple_text("forest product", u, v, w),
        )


def _suite_deshuffle(d, max_norm, seed, gamma, rec):
    """Splitting coproduct: coassociative and cocommutative."""
    for f in forest_basis(d, min(max_norm, 3)):
        delta = deshuffle(f)
        left: dict = {}
        right: dict = {}
        flipped: dict = {}
        for (x, y), c in delta.items():
            for (x1, x2), c1 in deshuffle(x).items():
                _add_term(left, (x1, x2, y), c * c1)
            for (y1, y2), c2 in deshuffle(y).items():
                _add_term(right, (x, y1, y2), c * c2)
            _add_term(flipped, (y, x), c)
        rec.check(
            FormalSum(left) == FormalSum(right),
            lambda f=f: f"coassociativity defect at {format_forest(f)}",
        )
        rec.check(
            FormalSum(flipped) == delta,
            lambda f=f: f"cocommutativity defect at {format_forest(f)}",
        )


def _suite_bialgebra(d, max_norm, seed, gamma, rec):
    """Deshuffle intertwines the forest product leg by leg."""
    pool = [f for f in forest_basis(d, min(max_norm, 3)) if not f.is_empty]
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
    pairs += [(u, v) for u in pool[:6] for v in pool[:6]]
    for u, v in pairs:
        if u.degree() + v.degree() > 4:
            continue
        lhs = gl_product(u, v).map_terms(deshuffle)
        rhs: dict = {}
        for (u1, u2), cu in deshuffle(u).items():
            for (v1, v2), cv in deshuffle(v).items():
                for a, ca in gl_product(u1, v1).items():
                    for b, cb in gl_product(u2, v2).items():
                        _add_term(rhs, (a, b), cu * cv * ca * cb)
        rec.check(
            lhs == FormalSum(rhs),
            lambda u=u, v=v: (
                f"bialgebra defect at ({format_forest(u)}, {format_forest(v)})"
            ),
        )


# ---------------------------------------------------------------------------
# exact suites: insertion calculus and translation
# ---------------------------------------------------------------------------


def _suite_insertion_prelie(d, max_norm, seed, gamma, rec):
    """Associator of ▶ symmetric in its first two slots."""
    _check_symmetric_triples(_insert_defect, "insertion pre-Lie", d, max_norm, seed, rec)


def _suite_coproduct_routes(d, max_norm, seed, gamma, rec):
    """Direct extraction–contraction equals the transpose construction."""
    for b in enumerate_populated(d, min(max_norm, 3)):
        rec.check(
            coproduct_minus(b, route="direct")
            == coproduct_minus(b, route="transpose"),
            lambda b=b: f"route disagreement at {format_multi_index(b)}",
        )


def _suite_adjointness(d, max_norm, seed, gamma, rec):
    """<F *₁ a, b> = <F ⊗ a, Δ⁻b> under the symmetry-factor pairing."""
    low_bound = min(max_norm, 2)
    forests = forest_basis(d, low_bound)
    monomials = enumerate_populated(d, low_bound)

    def tensor_text(forest, a, b):
        return (
            f"pair {format_forest(forest)} (x) {format_multi_index(a)} "
            f"against {format_multi_index(b)}"
        )

    # dense grid of both present and absent tensor pairs at low degree
    for b in monomials:
        split = dict(coproduct_minus(b, route="direct").items())
        s_b = symmetry_factor(b)
        for forest in forests:
            for a in monomials:
                lhs = insert_simultaneous(forest, a).coefficient(b) * s_b
                rhs = (
                    symmetry_factor(forest)
                    * symmetry_factor(a)
                    * split.get((forest, a), Fraction(0))
                )
                rec.check(
                    lhs == rhs,
                    lambda forest=forest, a=a, b=b: tensor_text(forest, a, b),
                )
    # every extracted term of the deeper targets pairs back correctly
    for b in enumerate_populated(d, min(max_norm, 3)):
        s_b = symmetry_factor(b)
        for (forest, a), coeff in coproduct_minus(b, route="direct").items():
            lhs = insert_simultaneous(forest, a).coefficient(b) * s_b
            rec.check(
                lhs == symmetry_factor(forest) * symmetry_factor(a) * coeff,
                lambda forest=forest, a=a, b=b: tensor_text(forest, a, b),
            )


def _suite_translate_identity(d, max_norm, seed, gamma, rec):
    """The identity character list fixes every basis element."""
    ells = identity_characters(d)
    for b in enumerate_populated(d, min(max_norm, 3)):
        rec.check(
            translate(ells, b) == FormalSum.of(b),
            lambda b=b: f"identity translation moved {format_multi_index(b)}",
        )
    for f in forest_basis(d, min(max_norm, 2)):
        rec.check(
            translate(ells, f) == FormalSum.of(f),
            lambda f=f: f"identity translation moved {format_forest(f)}",
        )


def _suite_translate_morphism(d, max_norm, seed, gamma, rec):
    """Translation respects the forest product and the raising derivation."""
    ells = _is_characters(d)
    mis = enumerate_populated(d, 2)
    forests = [EMPTY_FOREST]
    forests += [Forest([m]) for m in mis]
    forests += [
        Forest([a, b])
        for a, b in itertools.combinations_with_replacement(mis, 2)
        if a.degree() + b.degree() <= 3
    ]
    images = {f: translate(ells, f) for f in forests}
    for u in forests:
        for v in forests:
            if u.degree() + v.degree() > 4:
                continue
            rec.check(
                translate(ells, gl_product(u, v))
                == gl_product(images[u], images[v]),
                lambda u=u, v=v: (
                    f"product morphism defect at "
                    f"({format_forest(u)}, {format_forest(v)})"
                ),
            )
    for b in enumerate_populated(d, min(max_norm, 3)):
        rec.check(
            translate(ells, derivation_d(b)) == derivation_d(translate(ells, b)),
            lambda b=b: f"derivation defect at {format_multi_index(b)}",
        )


def _suite_translate_population(d, max_norm, seed, gamma, rec):
    """Images of translation, its dual, and insertion stay populated."""
    ells = _is_characters(d)
    for b in enumerate_populated(d, min(max_norm, 3)):
        rec.check(
            all(t.is_populated() for t, _ in translate(ells, b).items()),
            lambda b=b: f"unpopulated translation term from {format_multi_index(b)}",
        )
        rec.check(
            all(t.is_populated() for t, _ in m_ell(ells, b).items()),
            lambda b=b: f"unpopulated dual term from {format_multi_index(b)}",
        )
    low = enumerate_populated(d, min(max_norm, 2))
    for forest in forest_basis(d, min(max_norm, 2)):
        for a in low:
            rec.check(
                all(
                    t.is_populated()
                    for t, _ in insert_simultaneous(forest, a).items()
                ),
                lambda forest=forest, a=a: (
                    f"unpopulated insertion term from "
                    f"{format_forest(forest)} into {format_multi_index(a)}"
                ),
            )


# ---------------------------------------------------------------------------
# floating-point suites: group layer, lifts, elementary differentials
# ---------------------------------------------------------------------------


def _suite_exp_log(d, max_norm, seed, gamma, rec):
    """exp after log returns every random character to itself."""
    grading = Grading(max_norm=min(max_norm, 3), gamma=gamma)
    rng = np.random.default_rng(seed)
    for idx in range(100):
        x = random_character(d, grading, rng)
        y = exp_element(log_element(x))
        worst_key, worst = None, 0.0
        for key, val in x.values.items():
            err = abs(y.values.get(key, 0.0) - val) / max(1.0, abs(val))
            if err > worst:
                worst_key, worst = key, err
        rec.check(
            worst <= rec.tolerance,
            lambda idx=idx, worst=worst, worst_key=worst_key: (
                f"character #{idx}: round-trip defect {worst:.3e}"
                + (f" at {format_multi_index(worst_key)}" if worst_key else "")
            ),
        )


def _suite_chen(d, max_norm, seed, gamma, rec):
    """Stored increments compose consistently across every split point."""
    n = 12
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.standard_normal((n + 1, d)) * 0.7, axis=0)
    samples = [(j / n, *map(float, walk[j])) for j in range(n + 1)]
    grading = Grading(max_norm=min(max_norm, 3), gamma=gamma)
    grid = lift_piecewise_linear(samples, grading)
    spans = {}
    for i in range(n):
        spans[(i, i + 1)] = grid.increments[i]
        for j in range(i + 2, n + 1):
            spans[(i, j)] = chen_compose(spans[(i, j - 1)], grid.increments[j - 1])
    for i, j, k in itertools.combinations(range(n + 1), 3):
        composed = chen_compose(spans[(i, j)], spans[(j, k)])
        whole = spans[(i, k)]
        worst_key, worst = None, 0.0
        for key in set(whole.values) | set(composed.values):
            a = whole.values.get(key, 0.0)
            b = composed.values.get(key, 0.0)
            err = abs(a - b) / max(1.0, abs(a))
            if err > worst:
                worst_key, worst = key, err
        rec.check(
            worst <= rec.tolerance,
            lambda i=i, j=j, k=k, worst=worst, worst_key=worst_key: (
                f"composition defect {worst:.3e} over indices ({i},{j},{k})"
                + (f" at {format_multi_index(worst_key)}" if worst_key else "")
            ),
        )


def _replace_component(forest: Forest, index: int, replacement: MultiIndex) -> Forest:
    comps = list(forest.components)
    comps[index] = replacement
    return Forest(comps)


def _differentiate_rep(rep):
    """One derivative of Σ c·Υ[F]·ψ^(s): product rule over the components of
    F through the raising derivation, plus the chain-rule shift of ψ."""
    out: dict[tuple[Forest, int], Fraction] = {}
    for (forest, shift), coeff in rep.items():
        for idx, comp in enumerate(forest.components):
            for term, c in derivation_d(FormalSum.of(comp)).items():
                key = (_replace_component(forest, idx, term), shift)
                out[key] = out.get(key, Fraction(0)) + coeff * c
        key = (forest, shift + 1)
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def _suite_upsilon_morphism(d, max_norm, seed, gamma, rec):
    """The forest-product image acts as the composition of the two operators."""
    f = VectorField.polynomial(_poly_rows(d))
    psi = SmoothTest.polynomial((0, 3, 1))
    pool = [u for u in forest_basis(d, 2) if not u.is_empty]
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 30:
        u, v = rng.choice(pool), rng.choice(pool)
        if u.degree() + v.degree() <= 4:
            pairs.append((u, v))
    for u, v in pairs:
        rep = {(v, v.cardinality()): Fraction(1)}
        for _ in range(u.cardinality()):
            rep = _differentiate_rep(rep)
        composed = {
            (u.merge(inner), shift): coeff for (inner, shift), coeff in rep.items()
        }
        product = gl_product(u, v)
        for y in _SAMPLE_POINTS:
            lhs = sum(
                float(c) * upsilon(t, f, y) * psi.derivative(t.cardinality(), y)
                for t, c in product.items()
            )
            rhs = sum(
                float(c) * upsilon(t, f, y) * psi.derivative(shift, y)
                for (t, shift), c in composed.items()
            )
            rec.check(
                abs(lhs - rhs) <= rec.tolerance * (1.0 + abs(lhs)),
                lambda u=u, v=v, y=y: (
                    f"operator composition defect at "
                    f"({format_forest(u)}, {format_forest(v)}), y={y}"
                ),
            )


def _suite_upsilon_leibniz(d, max_norm, seed, gamma, rec):
    """Splitting a forest against a product of test functions."""
    f = VectorField.polynomial(_poly_rows(d))
    phi_coeffs = (Fraction(1), Fraction(-2), Fraction(0), Fraction(0), Fraction(1))
    psi_coeffs = (Fraction(0), Fraction(3), Fraction(1))
    conv = [Fraction(0)] * (len(phi_coeffs) + len(psi_coeffs) - 1)
    for a, ca in enumerate(phi_coeffs):
        for b, cb in enumerate(psi_coeffs):
            conv[a + b] += ca * cb
    phi = SmoothTest.polynomial(phi_coeffs)
    psi = SmoothTest.polynomial(psi_coeffs)
    product_test = SmoothTest.polynomial(tuple(conv))
    for u in forest_basis(d, min(max_norm, 3)):
        for y in _SAMPLE_POINTS:
            lhs = 0.0
            for (u1, u2), coeff in deshuffle(u).items():
                lhs += (
                    float(coeff)
                    * upsilon(u1, f, y)
                    * phi.derivative(u1.cardinality(), y)
                    * upsilon(u2, f, y)
                    * psi.derivative(u2.cardinality(), y)
                )
            rhs = upsilon(u, f, y) * product_test.derivative(u.cardinality(), y)
            rec.check(
                abs(lhs - rhs) <= rec.tolerance * (1.0 + abs(rhs)),
                lambda u=u, y=y: (
                    f"product-splitting defect at {format_forest(u)}, y={y}"
                ),
            )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITES: tuple[tuple[str, Callable, float | None], ...] = (
    ("graft-prelie", _suite_graft_prelie, None),
    ("graft-nap", _suite_graft_nap, None),
    ("star-associative", _suite_star_associative, None),
    ("deshuffle-coalgebra", _suite_deshuffle, None),
    ("bialgebra", _suite_bialgebra, None),
    ("insertion-prelie", _suite_insertion_prelie, None),
    ("coproduct-routes", _suite_coproduct_routes, None),
    ("adjointness", _suite_adjointness, None),
    ("translate-identity", _suite_translate_identity, None),
    ("translate-morphism", _suite_translate_morphism, None),
    ("translate-population", _suite_translate_population, None),
    ("exp-log", _suite_exp_log, 1e-12),
    ("chen", _suite_chen, 1e-9),
    ("upsilon-morphism", _suite_upsilon_morphism, 1e-9),
    ("upsilon-leibniz", _suite_upsilon_leibniz, 1e-9),
)


def available_suites() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _SUITES)


def run_all_suites(
    d: int = 2,
    max_norm: int = 3,
    seed: int = 0,
    gamma: Fraction = Fraction(1, 2),
    suites: Sequence[str] | None = None,
    fault_suite: str | None = None,
) -> list[SuiteResult]:
    """Run the verification suites and return one result record per suite.

    ``suites`` restricts the run to the named subset (order preserved from
    the registry).  Each suite draws its own randomness from ``seed``, so a
    subset run reproduces the same checks as the full run.  ``fault_suite``
    is a test-only hook: the first check of the suite of that name has its
    verdict inverted and its description tagged ``[injected fault]``, so the
    failure-reporting path can be exercised against a healthy build.
    The package caches are emptied after each suite, so the peak memory is
    that of the largest suite, not the sum of all of them.
    """
    if d < 1:
        raise ValueError(f"need at least one driving letter, got d={d}")
    if max_norm < 1:
        raise ValueError(f"truncation must be at least 1, got {max_norm}")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    selected = set(available_suites() if suites is None else suites)
    unknown = selected - set(available_suites())
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    results = []
    for name, fn, tolerance in _SUITES:
        if name not in selected:
            continue
        rec = _Recorder(name, tolerance, name == fault_suite)
        fn(d, max_norm, seed, gamma, rec)
        clear_caches()
        results.append(rec.result())
    return results
