"""Acceptance gate: one test per shipped guarantee, run by ``pytest -v``.

Each test prints a one-line measurement summary so the verbose run doubles
as a report.  Exact-identity criteria use rational arithmetic end to end;
numeric criteria state their tolerance inline.  Wall-clock budgets are
asserted with a monotonic timer.

The heavy exact suites accumulate coefficients in plain dictionaries of
rationals instead of building formal-sum objects per step; that is an
evaluation strategy only — every product and coproduct value still comes
from the library under test, and every comparison is exact equality.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mirpath.algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    Grading,
    MultiIndex,
    derivation_d,
    deshuffle,
    enumerate_populated,
    forest_basis,
    gl_product,
    prelie_graft,
    single,
)
from mirpath.fields import VectorField, upsilon
from mirpath.group import chen_compose, exp_element, log_element, random_character
from mirpath.lifts import (
    brownian_pair_statistics,
    lift_brownian,
    lift_piecewise_linear,
)
from mirpath.solver import (
    davie_residual_report,
    dyadic_pairs,
    solve_flow,
)
from mirpath.translation import (
    Character,
    coproduct_minus,
    identity_characters,
    insert_simultaneous,
    ito_strat_character,
    m_ell,
    translate_roughpath,
    translated_field,
)
from test_solver import reference_ode_solve

F = Fraction
HALF = F(1, 2)


def mi2(*pairs: tuple[int, int]) -> MultiIndex:
    counts: dict[tuple[int, int], int] = {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    return MultiIndex(counts, 3)


def _clean(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


def _report(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] {detail}")


# ---------------------------------------------------------------------------
# 1. exact algebra suite
# ---------------------------------------------------------------------------


def test_criterion_01_exact_algebra_suite():
    """Pre-Lie and NAP for the graft; unit and associativity of the
    composition product; deshuffle coassociativity/cocommutativity;
    bialgebra compatibility — exact, d=2, within 60 s."""
    t0 = time.monotonic()

    # -- pre-Lie and NAP, every populated triple of degree <= 3 -------------
    basis3 = enumerate_populated(2, 3)
    graft_cache: dict[tuple[MultiIndex, MultiIndex], tuple] = {}

    def graft(x: MultiIndex, y: MultiIndex):
        key = (x, y)
        got = graft_cache.get(key)
        if got is None:
            got = graft_cache[key] = tuple(prelie_graft(x, y).items())
        return got

    def associator(a, b, c):
        # (a |> b) |> c  -  a |> (b |> c)
        acc: dict[MultiIndex, Fraction] = {}
        for t, ct in graft(a, b):
            for u, cu in graft(t, c):
                acc[u] = acc.get(u, 0) + ct * cu
        for t, ct in graft(b, c):
            for u, cu in graft(a, t):
                acc[u] = acc.get(u, 0) - ct * cu
        return _clean(acc)

    def nap_side(a, b, c):
        # (b |> c) |> a  -  b |> (a |> c)
        acc: dict[MultiIndex, Fraction] = {}
        for t, ct in graft(b, c):
            for u, cu in graft(t, a):
                acc[u] = acc.get(u, 0) + ct * cu
        for t, ct in graft(a, c):
            for u, cu in graft(b, t):
                acc[u] = acc.get(u, 0) - ct * cu
        return _clean(acc)

    graft_triples = 0
    for ia, a in enumerate(basis3):
        for b in basis3[ia:]:
            for c in basis3:
                assert associator(a, b, c) == associator(b, a, c), (a, b, c)
                assert nap_side(a, b, c) == nap_side(b, a, c), (a, b, c)
                graft_triples += 1

    # -- composition product: unit and associativity ------------------------
    basis_forests = forest_basis(2, 5)
    for f in basis_forests:
        assert gl_product(EMPTY_FOREST, f) == FormalSum.of(f)
        assert gl_product(f, EMPTY_FOREST) == FormalSum.of(f)

    star_cache: dict[tuple[Forest, Forest], tuple] = {}

    def star(u: Forest, v: Forest):
        key = (u, v)
        got = star_cache.get(key)
        if got is None:
            got = star_cache[key] = tuple(gl_product(u, v).items())
        return got

    nonempty3 = [f for f in forest_basis(2, 3) if not f.is_empty]
    star_triples = 0
    for u, v, w in itertools.product(nonempty3, repeat=3):
        if u.degree() + v.degree() + w.degree() > 5:
            continue
        acc: dict[Forest, Fraction] = {}
        for f, cf in star(u, v):
            for g, cg in star(f, w):
                acc[g] = acc.get(g, 0) + cf * cg
        for f, cf in star(v, w):
            for g, cg in star(u, f):
                acc[g] = acc.get(g, 0) - cf * cg
        assert not _clean(acc), (u, v, w)
        star_triples += 1

    # -- deshuffle: coassociative and cocommutative -------------------------
    deshuffle_cache: dict[Forest, tuple] = {}

    def split(f: Forest):
        got = deshuffle_cache.get(f)
        if got is None:
            got = deshuffle_cache[f] = tuple(deshuffle(f).items())
        return got

    for f in basis_forests:
        delta = split(f)
        left: dict = {}
        right: dict = {}
        flipped: dict = {}
        for (x, y), c in delta:
            for (x1, x2), c1 in split(x):
                k = (x1, x2, y)
                left[k] = left.get(k, 0) + c * c1
            for (y1, y2), c2 in split(y):
                k = (x, y1, y2)
                right[k] = right.get(k, 0) + c * c2
            flipped[(y, x)] = flipped.get((y, x), 0) + c
        assert _clean(left) == _clean(right), f
        assert _clean(flipped) == dict(delta), f

    # -- bialgebra compatibility, total degree <= 4 --------------------------
    bialgebra_pairs = 0
    for u, v in itertools.product(nonempty3, repeat=2):
        if u.degree() + v.degree() > 4:
            continue
        lhs: dict = {}
        for f, cf in star(u, v):
            for (x, y), c in split(f):
                k = (x, y)
                lhs[k] = lhs.get(k, 0) + cf * c
        rhs: dict = {}
        for (u1, u2), cu in split(u):
            for (v1, v2), cv in split(v):
                for a, ca in star(u1, v1):
                    for b, cb in star(u2, v2):
                        k = (a, b)
                        rhs[k] = rhs.get(k, 0) + cu * cv * ca * cb
        assert _clean(lhs) == _clean(rhs), (u, v)
        bialgebra_pairs += 1

    elapsed = time.monotonic() - t0
    _report(
        1,
        f"pre-Lie+NAP {graft_triples} unordered triples, star unit "
        f"{len(basis_forests)} forests, star associativity {star_triples} "
        f"triples, deshuffle {len(basis_forests)} forests, bialgebra "
        f"{bialgebra_pairs} pairs — all exact; {elapsed:.1f}s (budget 60s)",
    )
    assert elapsed <= 60.0, f"exact algebra suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. adjointness of insertion and extraction
# ---------------------------------------------------------------------------


def test_criterion_02_insertion_extraction_adjoint():
    """<F *1 a, b> = <F (x) a, coproduct_minus(b)> exactly, with the two
    extraction routes agreeing term by term; within 60 s."""
    t0 = time.monotonic()
    targets = enumerate_populated(2, 4)

    splits: dict[MultiIndex, dict] = {}
    for b in targets:
        direct = coproduct_minus(b, route="direct")
        transpose = coproduct_minus(b, route="transpose")
        assert direct == transpose, b  # term-by-term: same keys, same weights
        splits[b] = dict(direct.items())

    s_target = {b: b.symmetry_factor() for b in targets}
    pairs = 0
    checks = 0
    for forest in forest_basis(2, 3):
        deg_f = forest.degree()
        s_f = forest.symmetry_factor()
        for a in enumerate_populated(2, 4 - deg_f):
            ins = dict(insert_simultaneous(forest, a).items())
            s_a = a.symmetry_factor()
            pairs += 1
            for b in targets:
                lhs = ins.get(b, 0) * s_target[b]
                rhs = s_f * s_a * splits[b].get((forest, a), 0)
                assert lhs == rhs, (forest, a, b)
                checks += 1

    elapsed = time.monotonic() - t0
    _report(
        2,
        f"route agreement on {len(targets)} targets, adjointness "
        f"{checks} triples over {pairs} (forest, target) pairs — exact; "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert elapsed <= 60.0, f"adjointness suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. dual-translation fixtures
# ---------------------------------------------------------------------------


def test_criterion_03_dual_translation_fixtures():
    """The dual of the Itô–Stratonovich translation on level-2 and level-3
    monomials matches the hand-computed expansions exactly."""
    ells = [ito_strat_character(2)] + identity_characters(2)[1:]
    fixtures = 0

    for i, j in itertools.product((1, 2), repeat=2):
        b = mi2((i, 0), (j, 1))
        want = FormalSum.of(b)
        if i == j:
            want = want + FormalSum.of(single(0, 0, 2), HALF)
        assert m_ell(ells, b) == want, (i, j)
        fixtures += 1

    # level 3: every way of extracting a diagonal pair contributes half a
    # time variable; coincident letters merge channels, never double weight
    for i, j, k in itertools.product((1, 2), repeat=3):
        b = mi2((i, 0), (j, 1), (k, 1))
        want = FormalSum.of(b)
        if j == k:
            if i == j:
                want = want + FormalSum.of(mi2((0, 0), (j, 1)), HALF)
            want = want + FormalSum.of(mi2((i, 0), (0, 1)), HALF)
        else:
            if i == j:
                want = want + FormalSum.of(mi2((0, 0), (k, 1)), HALF)
            if i == k:
                want = want + FormalSum.of(mi2((0, 0), (j, 1)), HALF)
        assert m_ell(ells, b) == want, (i, j, k)
        fixtures += 1

    _report(3, f"{fixtures} level-2/level-3 dual-translation fixtures exact")


# ---------------------------------------------------------------------------
# 4. exp/log round trip
# ---------------------------------------------------------------------------


def test_criterion_04_exp_log_round_trip():
    """exp(log(g)) returns g entrywise within 1e-12 relative error for 100
    random characters at d=2, degree <= 3."""
    grading = Grading(max_norm=3, gamma=HALF)
    rng = np.random.default_rng(20240404)
    worst = 0.0
    for _ in range(100):
        g = random_character(2, grading, rng)
        back = exp_element(log_element(g))
        for key in set(g.values) | set(back.values):
            a = g.values.get(key, 0.0)
            b = back.values.get(key, 0.0)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    _report(4, f"100 characters, worst entrywise error {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 5. Chen relation for the piecewise-linear lift
# ---------------------------------------------------------------------------


def test_criterion_05_chen_relation():
    """Composing stored increments over any split point reproduces the span
    increment: d=2, exponent 1/3, degree <= 3, 16 segments, 1e-9."""
    n = 16
    rng = np.random.default_rng(77)
    walk = np.vstack(
        [np.zeros((1, 2)), np.cumsum(rng.standard_normal((n, 2)) * 0.7, axis=0)]
    )
    samples = [(idx / n, float(walk[idx, 0]), float(walk[idx, 1])) for idx in range(n + 1)]
    grid = lift_piecewise_linear(samples, Grading(max_norm=3, gamma=F(1, 3)))

    spans = {}
    for i in range(n):
        spans[(i, i + 1)] = grid.increments[i]
        for j in range(i + 2, n + 1):
            spans[(i, j)] = chen_compose(spans[(i, j - 1)], grid.increments[j - 1])

    worst = 0.0
    triples = 0
    for i, j, k in itertools.combinations(range(n + 1), 3):
        composed = chen_compose(spans[(i, j)], spans[(j, k)])
        whole = spans[(i, k)]
        for key in set(whole.values) | set(composed.values):
            a = whole.values.get(key, 0.0)
            b = composed.values.get(key, 0.0)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        triples += 1
    _report(5, f"{triples} split triples, max relative violation {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 6. morphism and Leibniz properties of the elementary differentials
# ---------------------------------------------------------------------------

POLY_ROWS = (
    (F(1), F(1, 3)),
    (F(0), F(0), F(1)),
    (F(2), F(-1), F(0), F(1, 5)),
)
SAMPLE_POINTS = (-1.7, -1.1, -0.6, -0.2, 0.1, 0.45, 0.8, 1.3, 1.9, 2.4)


def _replace_component(forest: Forest, index: int, replacement: MultiIndex) -> Forest:
    comps = list(forest.components)
    comps[index] = replacement
    return Forest(comps)


def _differentiate_rep(rep: dict) -> dict:
    """One derivative of a sum of (coefficient * forest-value * test-derivative)
    terms: product rule over the components through the raising derivation,
    plus the chain-rule shift of the test function."""
    out: dict = {}
    for (forest, shift), coeff in rep.items():
        for idx, comp in enumerate(forest.components):
            for term, c in derivation_d(FormalSum.of(comp)).items():
                key = (_replace_component(forest, idx, term), shift)
                out[key] = out.get(key, F(0)) + coeff * c
        key = (forest, shift + 1)
        out[key] = out.get(key, F(0)) + coeff
    return out


def _apply_operator(forest: Forest, rep: dict) -> dict:
    for _ in range(forest.cardinality()):
        rep = _differentiate_rep(rep)
    return {
        (forest.merge(inner), shift): coeff for (inner, shift), coeff in rep.items()
    }


def test_criterion_06_elementary_differential_laws():
    """The forest functional is a product morphism (checked against direct
    operator composition) and satisfies the deshuffle Leibniz rule, within
    1e-9 relative on dense sampling."""
    field = VectorField.polynomial(POLY_ROWS)
    psi = VectorField.polynomial([(F(0), F(3), F(1))])
    phi = VectorField.polynomial([(F(1), F(-2), F(0), F(0), F(1))])

    def forest_op_value(s: FormalSum, test: VectorField, y: float) -> float:
        total = 0.0
        for forest, coeff in s.items():
            total += (
                float(coeff)
                * upsilon(forest, field, y)
                * test.derivative(0, forest.cardinality(), y)
            )
        return total

    def eval_rep(rep: dict, test: VectorField, y: float) -> float:
        total = 0.0
        for (forest, shift), coeff in rep.items():
            total += float(coeff) * upsilon(forest, field, y) * test.derivative(0, shift, y)
        return total

    basis = forest_basis(2, 4)
    morphism_pairs = 0
    worst_morphism = 0.0
    for u in basis:
        for v in basis:
            if u.degree() + v.degree() > 4:
                continue
            product = gl_product(u, v)
            composed = _apply_operator(u, {(v, v.cardinality()): F(1)})
            for y in SAMPLE_POINTS:
                lhs = forest_op_value(product, psi, y)
                rhs = eval_rep(composed, psi, y)
                err = abs(lhs - rhs) / (1.0 + abs(lhs))
                worst_morphism = max(worst_morphism, err)
                assert err <= 1e-9, (u, v, y)
            morphism_pairs += 1
    assert morphism_pairs > 1000

    conv = [F(0)] * (5 + 3 - 1)
    for a, ca in enumerate((F(1), F(-2), F(0), F(0), F(1))):
        for b, cb in enumerate((F(0), F(3), F(1))):
            conv[a + b] += ca * cb
    product_test = VectorField.polynomial([conv])
    leibniz_forests = 0
    worst_leibniz = 0.0
    for u in basis:
        for y in SAMPLE_POINTS:
            lhs = 0.0
            for (u1, u2), coeff in deshuffle(u).items():
                lhs += (
                    float(coeff)
                    * upsilon(u1, field, y)
                    * phi.derivative(0, u1.cardinality(), y)
                    * upsilon(u2, field, y)
                    * psi.derivative(0, u2.cardinality(), y)
                )
            rhs = upsilon(u, field, y) * product_test.derivative(0, u.cardinality(), y)
            err = abs(lhs - rhs) / (1.0 + abs(rhs))
            worst_leibniz = max(worst_leibniz, err)
            assert err <= 1e-9, (u, y)
        leibniz_forests += 1

    _report(
        6,
        f"morphism {morphism_pairs} pairs x {len(SAMPLE_POINTS)} points "
        f"(worst {worst_morphism:.2e}), Leibniz {leibniz_forests} forests "
        f"(worst {worst_leibniz:.2e}); tol 1e-9",
    )


# ---------------------------------------------------------------------------
# shared smooth-driver fixtures for the solver criteria
# ---------------------------------------------------------------------------

GRADING2 = Grading(max_norm=2, gamma=HALF)
COS7 = (F(1), F(0), F(-1, 2), F(0), F(1, 24), F(0), F(-1, 720), F(0))


def _cos_field() -> VectorField:
    return VectorField.polynomial([(0,), COS7])


def _sine_path(n_steps: int, grading: Grading = GRADING2):
    samples = [(i / n_steps, math.sin(i / n_steps)) for i in range(n_steps + 1)]
    return lift_piecewise_linear(samples, grading)


# ---------------------------------------------------------------------------
# 7. residual decay rate of the one-step expansion
# ---------------------------------------------------------------------------


def test_criterion_07_residual_rate():
    """Fitted log-log slope of the expansion residual over dyadic blocks is
    at least 1.35 (target 1.5 at exponent 1/2, truncation 2); within 60 s."""
    t0 = time.monotonic()
    path = _sine_path(1 << 8)
    f = _cos_field()
    sol = solve_flow(path, f, 0.3)
    report = davie_residual_report(path, f, sol, dyadic_pairs(sol.times, 2, 64))
    elapsed = time.monotonic() - t0
    _report(
        7,
        f"slope {report.slope:.3f} (floor 1.35, target {report.target_slope:.2f}), "
        f"{len(report.rows)} residual rows; {elapsed:.1f}s (budget 60s)",
    )
    assert report.target_slope == pytest.approx(1.5)
    assert report.slope >= 1.35
    assert elapsed <= 60.0, f"residual-rate criterion took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. solver consistency against a classical reference
# ---------------------------------------------------------------------------


def test_criterion_08_solver_consistency():
    """Smooth driver + polynomial field: sup distance to the classical
    solution <= 1e-5 at mesh 2^-10, decreasing monotonically over four
    refinements."""
    path = _sine_path(1 << 10)
    f = _cos_field()
    errors = []
    for mesh_level in (6, 7, 8, 9, 10):
        sol = solve_flow(path, f, 0.3, mesh_level=mesh_level)
        ref = reference_ode_solve(f, [math.cos], 0.3, sol.times)
        errors.append(max(abs(a - b) for a, b in zip(sol.values, ref)))
    _report(
        8,
        "sup errors over mesh levels 6..10: "
        + ", ".join(f"{e:.2e}" for e in errors)
        + " (final tol 1e-5)",
    )
    assert errors[-1] <= 1e-5
    assert all(a > b for a, b in zip(errors, errors[1:])), errors


# ---------------------------------------------------------------------------
# 9. translation theorem: two solution routes agree
# ---------------------------------------------------------------------------


def test_criterion_09_translation_two_routes():
    """Solving the translated path with f equals solving the original path
    with the translated field, sup difference <= 1e-5 at mesh 2^-10, for
    characters supported in degree <= 2."""
    n = 1 << 10
    samples = [(j / n, math.sin(2 * math.pi * j / n) / 3) for j in range(n + 1)]
    grading = Grading(max_norm=3, gamma=HALF)
    path = lift_piecewise_linear(samples, grading)
    f = VectorField.polynomial(((F(1, 5),), (F(1), F(0), F(-1, 4))))
    y0 = 0.1

    sups = []
    for label, ells in (
        (
            "drift correction",
            [ito_strat_character(1), identity_characters(1)[1]],
        ),
        (
            "drift correction + diffusion rescale",
            [
                ito_strat_character(1),
                Character(1, {MultiIndex({(1, 0): 1}, 2): F(3, 2)}, 1),
            ],
        ),
    ):
        via_path = solve_flow(translate_roughpath(ells, path), f, y0, substeps=8)
        via_field = solve_flow(path, translated_field(f, ells), y0, substeps=8)
        sup = max(abs(a - b) for a, b in zip(via_path.values, via_field.values))
        sups.append((label, sup))
        assert sup <= 1e-5, (label, sup)
    _report(
        9,
        "; ".join(f"{label}: sup {sup:.2e}" for label, sup in sups)
        + " (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# 10. Itô–Stratonovich conversion, statistical and pathwise
# ---------------------------------------------------------------------------


def test_criterion_10_ito_stratonovich():
    """Level-2 Stratonovich−Itô gaps over 10^4 seeded lattice paths match
    t/2 on the diagonal and 0 off it within 3 standard errors; the two
    geometric-Brownian solution routes agree pathwise within 5e-3; within
    5 minutes."""
    t0 = time.monotonic()

    stats = brownian_pair_statistics(
        d=2, t_final=1.0, n_steps=4096, n_paths=10_000, seed=20240817
    )
    z = np.abs(stats["mean_gap"] - stats["target"]) / stats["standard_error"]
    assert np.all(stats["standard_error"] > 0)
    assert np.all(z <= 3.0), z

    # pathwise: Itô lift + drift-corrected field vs Stratonovich lift + field
    mu, sigma = F(1, 10), F(2, 5)
    f = VectorField.polynomial(((F(0), mu), (F(0), sigma)))
    ells = [ito_strat_character(1), identity_characters(1)[1]]
    f_ell = translated_field(f, ells)
    assert f_ell.poly_coeffs[0] == (F(0), mu + sigma * sigma / 2)

    n_steps = 4096
    ito = lift_brownian(1, 1.0, n_steps, seed=555, mode="ito", grading=GRADING2)
    strat = lift_brownian(1, 1.0, n_steps, seed=555, mode="strat", grading=GRADING2)
    sol_ito = solve_flow(ito, f_ell, 1.0)
    sol_strat = solve_flow(strat, f, 1.0)
    sup = max(abs(a - b) for a, b in zip(sol_ito.values, sol_strat.values))
    assert sup <= 5e-3, sup

    # cross-check the Stratonovich route against the closed form
    key = single(1, 0, 1)
    b_t = 0.0
    exact_err = abs(sol_strat.values[0] - 1.0)
    for idx, inc in enumerate(strat.increments):
        b_t += inc.values.get(key, 0.0)
        t = strat.times[idx + 1]
        exact = math.exp(float(mu) * t + float(sigma) * b_t)
        exact_err = max(exact_err, abs(sol_strat.values[idx + 1] - exact))
    assert exact_err <= 1e-9, exact_err

    elapsed = time.monotonic() - t0
    _report(
        10,
        f"max |z| {float(z.max()):.2f} (limit 3), pathwise sup {sup:.2e} "
        f"(tol 5e-3), closed-form check {exact_err:.2e}; {elapsed:.1f}s "
        f"(budget 300s)",
    )
    assert elapsed <= 300.0, f"conversion criterion took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 11. enumeration vs brute force
# ---------------------------------------------------------------------------

EXPECTED_POPULATED = {1: (2, 6, 18, 46, 112), 2: (3, 12, 48, 162, 510)}


def _brute_populated(d: int, bound: int) -> set[MultiIndex]:
    variables = [(i, k) for i in range(d + 1) for k in range(bound)]
    found: set[MultiIndex] = set()
    for size in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(variables, size):
            if size - sum(k for _, k in combo) != 1:
                continue
            counts: dict[tuple[int, int], int] = {}
            for v in combo:
                counts[v] = counts.get(v, 0) + 1
            found.add(MultiIndex(counts, d + 1))
    return found


def _brute_forests(components: list[MultiIndex], budget: int) -> set[Forest]:
    out: set[Forest] = set()

    def rec(start: int, left: int, chosen: list[MultiIndex]):
        out.add(Forest(list(chosen)))
        for idx in range(start, len(components)):
            deg = components[idx].degree()
            if deg <= left:
                chosen.append(components[idx])
                rec(idx, left - deg, chosen)
                chosen.pop()

    rec(0, budget, [])
    return out


def test_criterion_11_enumeration_matches_brute_force():
    """Populated-monomial and forest enumeration agree with an independent
    multiset generator, as sets and as counts, for d <= 2 and degree <= 5."""
    for d in (1, 2):
        for bound in range(1, 6):
            brute = _brute_populated(d, bound)
            lib = enumerate_populated(d, bound)
            assert len(lib) == len(set(lib)), (d, bound)
            assert set(lib) == brute, (d, bound)
            assert len(lib) == EXPECTED_POPULATED[d][bound - 1], (d, bound)

    forest_counts = {}
    for d in (1, 2):
        comps = sorted(_brute_populated(d, 5), key=lambda m: (m.degree(), m.entries))
        for bound in range(0, 6):
            usable = [c for c in comps if c.degree() <= bound]
            brute = _brute_forests(usable, bound)
            lib = forest_basis(d, bound)
            assert len(lib) == len(set(lib)), (d, bound)
            assert set(lib) == brute, (d, bound)
            forest_counts[(d, bound)] = len(lib)
    assert forest_counts[(2, 5)] == 1904

    _report(
        11,
        "populated counts d=1 "
        + "/".join(str(c) for c in EXPECTED_POPULATED[1])
        + ", d=2 "
        + "/".join(str(c) for c in EXPECTED_POPULATED[2])
        + f", forests up to {forest_counts[(1, 5)]} (d=1) and "
        f"{forest_counts[(2, 5)]} (d=2) — sets identical",
    )
