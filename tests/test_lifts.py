"""Lifted paths: affine closed forms, Chen consistency, Brownian lattices, IO.

The oracle for affine segments is the exact rational coefficient recursion

    c(z(i,0)) = 1,   c(β) = (1/|β|) Σ_{(i,k)} Σ_{β=e(i,k)+β₁+…+β_k} Π_j c(βⱼ),

giving X_{s,s+h}(z^β) = c(β) · Π_{(i,k)} v_i^{β(i,k)} · h^{|β|} for a segment
with slopes v (v₀ = 1).  The single-step Stratonovich oracle is the same
recursion with ½ in place of 1/|β|.  Both are evaluated here with Fractions
over decompositions enumerated here, while ``mirpath.lifts`` reads its
weights off the right-nested pre-Lie grafts of Σ_i z(i,0) over ℚ: the two
share only the basis.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import re
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath import _pcg, algebra, group
from mirpath.algebra import Grading, MultiIndex, enumerate_populated, single
from mirpath.grammar import format_multi_index, parse_multi_index
from mirpath.group import (
    GroupElement,
    LieElement,
    RoughPathGrid,
    _key_index,
    chen_compose,
    exp_element,
)
from mirpath.lifts import (
    UnsupportedLevelError,
    _affine_weights,
    brownian_pair_statistics,
    grid_from_json,
    grid_payload,
    lift_brownian,
    lift_brownian_from_increments,
    lift_piecewise_linear,
    read_path_csv,
    write_path_csv,
)
from mirpath.translation import (
    identity_characters,
    ito_strat_character,
    m_ell,
    translate_roughpath,
)

# ---------------------------------------------------------------------------
# Closed-form oracle for affine segments
# ---------------------------------------------------------------------------


def _splits(mi: MultiIndex):
    """Every way to write ``mi`` as a product head · rest of two monomials."""
    keys = [key for key, _ in mi.entries]
    for choice in itertools.product(*(range(m + 1) for _, m in mi.entries)):
        head = MultiIndex(zip(keys, choice), mi.letters)
        rest = MultiIndex([(key, m - c) for (key, m), c in zip(mi.entries, choice)], mi.letters)
        yield head, rest


def _ordered_parts(mi: MultiIndex, k: int) -> list[tuple[MultiIndex, ...]]:
    """All ordered k-tuples of populated multi-indices with product ``mi``."""
    if k == 0:
        return [()] if mi.is_empty else []
    return [
        (head, *tail)
        for head, rest in _splits(mi)
        if not head.is_empty and head.is_populated()
        for tail in _ordered_parts(rest, k - 1)
    ]


def _integral_decompositions(beta: MultiIndex):
    """The inner parts of every way to peel one integration off z^β:
    β = e(i,k) + β₁ + … + β_k with every βⱼ populated."""
    for (i, k), _ in beta.entries:
        yield from _ordered_parts(beta.without(i, k), k)


def _sum_over_decompositions(beta: MultiIndex, coefficient) -> Fraction:
    total = Fraction(0)
    for parts in _integral_decompositions(beta):
        prod = Fraction(1)
        for part in parts:
            prod *= coefficient(part)
        total += prod
    return total


@lru_cache(maxsize=None)
def affine_coefficient(beta: MultiIndex) -> Fraction:
    if beta.degree() == 1:
        return Fraction(1)
    return _sum_over_decompositions(beta, affine_coefficient) / beta.degree()


@lru_cache(maxsize=None)
def trapezoid_coefficient(beta: MultiIndex) -> Fraction:
    if beta.degree() == 1:
        return Fraction(1)
    return _sum_over_decompositions(beta, trapezoid_coefficient) / 2


def affine_value(beta: MultiIndex, slopes, h: float) -> float:
    out = float(affine_coefficient(beta)) * h ** beta.degree()
    for (i, _), m in beta.entries:
        out *= slopes[i] ** m
    return out


def test_affine_coefficient_reproduces_classical_taylor_weights():
    # Σ c(β)/S β over degree n rebuilds 1/n! of the scalar Taylor series; the
    # individual weights below were derived by expanding the series by hand.
    assert affine_coefficient(parse_multi_index("z(1,0)z(1,1)")) == Fraction(1, 2)
    assert affine_coefficient(parse_multi_index("z(1,0)^2z(1,2)")) == Fraction(1, 3)
    assert affine_coefficient(parse_multi_index("z(1,0)z(1,1)^2")) == Fraction(1, 6)
    assert affine_coefficient(parse_multi_index("z(0,0)z(1,1)")) == Fraction(1, 2)


@pytest.mark.parametrize(
    "slopes, max_norm",
    [
        ((1.0, 2.0, -1.0), 3),
        ((1.0, 0.7, 0.0), 3),
        ((1.0, -0.3, 1.9), 3),
        ((1.0, 2.0, -1.0), 4),
        ((1.0, -0.3, 1.9, 0.6), 3),
        ((1.0, -0.7), 4),
    ],
    ids=["slopes0", "slopes1", "slopes2", "d2-N4", "d3-N3", "d1-N4"],
)
def test_single_segment_matches_closed_form(slopes, max_norm):
    g = Grading(max_norm=max_norm, gamma=Fraction(1, max_norm))
    h = 0.8
    samples = [(0.0,) * len(slopes), tuple(v * h for v in slopes)]
    grid = lift_piecewise_linear(samples, g)
    inc = grid.increments[0]
    for beta in enumerate_populated(len(slopes) - 1, max_norm):
        want = affine_value(beta, slopes, h)
        got = inc.values.get(beta, 0.0)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), beta


def test_first_level_is_the_plain_increment():
    g = Grading(max_norm=1, gamma=Fraction(1, 2))
    grid = lift_piecewise_linear([(0.0, 1.0), (0.5, 3.0)], g)
    assert grid.increments[0].values[parse_multi_index("z(1,0)", d=1)] == pytest.approx(2.0)
    assert grid.increments[0].values[parse_multi_index("z(0,0)", d=1)] == pytest.approx(0.5)


def test_level_two_linear_path_closed_form():
    g = Grading(max_norm=2, gamma=Fraction(1, 2))
    v1, v2 = 2.0, -1.0
    grid = lift_piecewise_linear([(0.0, 0.0, 0.0), (1.0, v1, v2)], g)
    inc = grid.increments[0]
    assert inc.values[parse_multi_index("z(1,0)z(2,1)", d=2)] == pytest.approx(
        v1 * v2 / 2.0, rel=1e-12
    )


@pytest.mark.parametrize("d, n", [(1, 5), (2, 4), (3, 3)])
def test_affine_weights_are_the_exact_decomposition_coefficients(d, n):
    weights, _ = _affine_weights(d, n)
    for beta, p in _key_index(d, n).items():
        assert isinstance(weights[p], (int, Fraction)), beta
        assert weights[p] == affine_coefficient(beta), beta


@pytest.mark.parametrize("d, n", [(1, 5), (2, 3), (2, 4), (3, 3)])
def test_piecewise_linear_rows_are_the_group_exponential_of_the_increment(d, n):
    g = Grading(max_norm=n, gamma=Fraction(1, n + 1))
    rng = np.random.default_rng(100 * d + n)
    dx = rng.normal(size=(12, d + 1))
    dx[:, 0] = np.abs(dx[:, 0]) + 0.1  # time increases
    dx[3, 1:] = 0.0  # a step on which the state does not move
    dx[7, 1] = 0.0  # one zero component among negative and positive ones
    samples = np.vstack([np.zeros(d + 1), np.cumsum(dx, axis=0)])
    grid = lift_piecewise_linear([tuple(row) for row in samples], g)
    for row, step in zip(grid.coords, np.diff(samples, axis=0)):
        x = LieElement(d, g, {single(i, 0, d): float(v) for i, v in enumerate(step)})
        want = exp_element(x).coords
        row, want = np.array(row), np.array(want)
        assert np.all(np.abs(row - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_chen_across_split_matches_direct_lift():
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    f = lambda t: (t, math.sin(t), t * t)
    direct = lift_piecewise_linear([f(0.0), f(1.0)], g)
    # splitting the same affine chord is NOT the same path; instead split a
    # genuinely piecewise path and compare composition orders
    samples = [f(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    grid = lift_piecewise_linear(samples, g)
    whole = grid.increment_by_index(0, 4)
    halves = chen_compose(grid.increment_by_index(0, 2), grid.increment_by_index(2, 4))
    for key in set(whole.values) | set(halves.values):
        a = whole.values.get(key, 0.0)
        b = halves.values.get(key, 0.0)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), key
    del direct


def test_chen_refinement_consistency():
    """The lift over a refined sampling of the same piecewise-linear path
    composes to the lift over the coarse sampling."""
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    knots = [(0.0, 0.0, 1.0), (0.5, 2.0, 0.0), (1.0, 1.0, 3.0)]

    def at(t):
        lo, hi = (knots[0], knots[1]) if t <= 0.5 else (knots[1], knots[2])
        w = (t - lo[0]) / (hi[0] - lo[0])
        return (t, lo[1] + w * (hi[1] - lo[1]), lo[2] + w * (hi[2] - lo[2]))

    coarse = lift_piecewise_linear(knots, g)
    fine = lift_piecewise_linear([at(j / 8) for j in range(9)], g)
    a = coarse.increment_by_index(0, 2)
    b = fine.increment_by_index(0, 8)
    for key in set(a.values) | set(b.values):
        va, vb = a.values.get(key, 0.0), b.values.get(key, 0.0)
        assert abs(va - vb) <= 1e-9 * max(1.0, abs(va)), key


def test_lift_rejects_bad_samples():
    g = Grading(max_norm=2, gamma=Fraction(1, 2))
    with pytest.raises(ValueError):
        lift_piecewise_linear([(0.0, 0.0)], g)
    with pytest.raises(ValueError):
        lift_piecewise_linear([(0.0, 0.0), (0.0, 1.0)], g)
    with pytest.raises(ValueError):
        lift_piecewise_linear([(0.0, 0.0), (1.0, 1.0), (0.5, 2.0)], g)
    with pytest.raises(ValueError):
        lift_piecewise_linear([(0.0, 0.0), (1.0, 1.0, 2.0)], g)


# ---------------------------------------------------------------------------
# Brownian lattice
# ---------------------------------------------------------------------------

G2 = Grading(max_norm=2, gamma=Fraction(1, 2))


def test_brownian_seed_determinism_bit_identical():
    a = lift_brownian(2, 1.0, 16, 999, "ito", G2)
    b = lift_brownian(2, 1.0, 16, 999, "ito", G2)
    assert a.times == b.times
    for x, y in zip(a.increments, b.increments):
        assert x.values == y.values


def test_brownian_rejects_level_above_three():
    with pytest.raises(UnsupportedLevelError):
        lift_brownian(1, 1.0, 8, 0, "ito", Grading(max_norm=4, gamma=Fraction(1, 4)))


def test_brownian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lift_brownian(1, 1.0, 12, 0, "ito", G2)
    with pytest.raises(ValueError):
        lift_brownian(1, 1.0, 8, 0, "midpoint", G2)
    with pytest.raises(ValueError):
        lift_brownian(0, 1.0, 8, 0, "ito", G2)
    with pytest.raises(ValueError):
        lift_brownian_from_increments(np.zeros((8, 1)), 0.125, "midpoint", G2)


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), (2.0, TypeError),
    ("5", TypeError), (None, TypeError), ([1, 2], TypeError),
])
def test_brownian_refuses_a_seed_that_is_not_a_non_negative_integer(seed, error):
    # refused before the seed is split into words, which never ends below 0
    with pytest.raises(error, match="^seed must be"):
        lift_brownian(1, 1.0, 8, seed, "ito", G2)


@pytest.mark.parametrize("seed, same_as", [
    (True, 1), (False, 0), (np.int64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1),
])
def test_brownian_accepts_bool_and_numpy_integer_seeds(seed, same_as):
    assert lift_brownian(2, 1.0, 8, seed, "strat", G2).coords == (
        lift_brownian(2, 1.0, 8, same_as, "strat", G2).coords)


@pytest.mark.parametrize("dw, dt, message", [
    ([], 0.125, "no increments: dw needs at least one row"),
    (np.zeros((0, 2)), 0.125, "no increments: dw needs at least one row"),
    ([[0.1, 0.2], [0.3]], 0.125, "ragged increment rows: widths [1, 2]"),
    ([[], []], 0.125, "increment rows must hold at least one driving letter"),
    ([[0.1]], math.inf, "dt must be finite and > 0, got inf"),
    ([[0.1]], math.nan, "dt must be finite and > 0, got nan"),
    ([[0.1]], 0.0, "dt must be finite and > 0, got 0.0"),
    ([[0.1]], -0.5, "dt must be finite and > 0, got -0.5"),
])
def test_increment_lift_names_what_is_wrong_with_its_input(dw, dt, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lift_brownian_from_increments(dw, dt, "strat", G2)


# The stream parity below compares 5 × 40 000 = 2 × 10⁵ normals with
# numpy's; a plain draw costs about 1 µs and must stay under 5 µs.
PARITY_SEEDS = [0, 1, 2**31 - 1, 2**64 + 5, 2**200 + 17]
PARITY_DRAWS = 40_000


@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_pcg_seeding_and_raw_outputs_are_numpys(seed):
    bits = np.random.PCG64(seed)
    assert _pcg._seeded(seed) == (bits.state["state"]["state"], bits.state["state"]["inc"])
    want = bits.random_raw(4096).tolist()
    assert list(itertools.islice(_pcg._stream(seed), 4096)) == want


@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_pcg_normals_are_numpys_bit_for_bit_through_tail_and_wedge(seed, monkeypatch):
    calls = {"exp": 0, "log1p": 0, "raw": 0}
    stream = _pcg._stream

    def counted(name, f):
        def call(x):
            calls[name] += 1
            return f(x)
        return call

    def counted_stream(s):
        for r in stream(s):
            calls["raw"] += 1
            yield r

    monkeypatch.setattr(_pcg, "exp", counted("exp", math.exp))
    monkeypatch.setattr(_pcg, "log1p", counted("log1p", math.log1p))
    monkeypatch.setattr(_pcg, "_stream", counted_stream)
    sd = math.sqrt(1.0 / 64) if seed % 2 else 1.0
    got = _pcg._normals(seed, PARITY_DRAWS, sd)
    want = np.random.Generator(np.random.PCG64(seed)).normal(0.0, sd, PARITY_DRAWS)
    assert np.array(got).tobytes() == want.tobytes()
    # a draw reads one raw output per try, one per wedge test and two per
    # tail try, and tries again only when its wedge test fails
    assert calls["log1p"] > 0  # the tail beyond _R was taken
    assert calls["raw"] - PARITY_DRAWS - calls["exp"] - calls["log1p"] > 0  # a wedge rejected


def test_pcg_normal_draw_stays_under_its_budget():
    start = time.process_time()
    _pcg._normals(PARITY_SEEDS[-1], PARITY_DRAWS, 1.0)
    assert time.process_time() - start < 5e-6 * PARITY_DRAWS


def test_pcg_tables_are_pinned():
    # numpy's fi_double, wi_double and ki_double, as _pcg's docstring extracts them
    assert hashlib.sha256(_pcg._TABLES).hexdigest() == (
        "e3811c133c6e61093d15d9a7c4dc37d055d79937a0084872fdde0905da48cd1c")
    assert _pcg._FI[0] == 1.0 and _pcg._KI[1] == 0 and len(_pcg._WI) == 256


@pytest.mark.parametrize("d, mode", [(1, "ito"), (3, "strat")])
def test_brownian_increments_are_numpys_normal_draws(d, mode):
    n, seed = 64, 2024
    grid = lift_brownian(d, 2.0, n, seed, mode, G2)
    want = np.random.Generator(np.random.PCG64(seed)).normal(0.0, math.sqrt(2.0 / n), (n, d))
    slots = [_key_index(d, 2)[parse_multi_index(f"z({i},0)", d=d)] for i in range(1, d + 1)]
    assert np.array([[row[p] for p in slots] for row in grid.coords]).tobytes() == want.tobytes()


def test_time_component_is_exact_on_every_step():
    grid = lift_brownian(1, 1.0, 8, 5, "ito", G2)
    key = parse_multi_index("z(0,0)", d=1)
    for inc in grid.increments:
        assert inc.values[key] == 0.125


def test_ito_step_stores_a_huge_increment_as_is():
    # the left-point rule evaluates no power above degree 1, so no cube of
    # 1e200 overflows on the way
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    grid = lift_brownian_from_increments(np.array([[1e200], [0.5]]), 1.0, "ito", g)
    assert grid.depth == 1
    assert grid.increments[0].values[parse_multi_index("z(1,0)", d=1)] == 1e200


@pytest.mark.parametrize("lift", ["strat", "path"])
def test_a_step_power_beyond_the_float_range_is_refused_by_the_grid(lift):
    # a float power that overflows raises OverflowError, where numpy's gave
    # inf; the lift still hands the grid a non-finite value, which it refuses
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    message = "grid value on segment 1 (t = 1.0 .. 2.0) is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if lift == "strat":
            lift_brownian_from_increments([[0.5], [1e200]], 1.0, "strat", g)
        else:
            lift_piecewise_linear([(0.0, 0.0), (1.0, 0.5), (2.0, 1e200)], g)


def test_lifts_build_no_float_product_table():
    algebra.clear_caches()
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    lift_brownian(2, 1.0, 8, 3, "strat", g)
    lift_piecewise_linear([(0.0, 0.0, 0.0), (0.5, 1.0, -2.0)], g)
    assert group._table.cache_info().currsize == 0


def test_ito_single_step_vanishes_above_level_one():
    grid = lift_brownian(2, 1.0, 8, 31, "ito", Grading(max_norm=3, gamma=Fraction(1, 2)))
    for inc in grid.increments:
        for key, v in inc.values.items():
            if key.degree() >= 2:
                assert v == 0.0


def test_strat_single_step_level_two_is_half_the_product():
    grid = lift_brownian(2, 1.0, 8, 31, "strat", G2)
    k1 = parse_multi_index("z(1,0)", d=2)
    k2 = parse_multi_index("z(2,0)", d=2)
    k12 = parse_multi_index("z(1,0)z(2,1)", d=2)
    k11 = parse_multi_index("z(1,0)z(1,1)", d=2)
    for inc in grid.increments:
        assert inc.values[k12] == pytest.approx(
            0.5 * inc.values[k1] * inc.values[k2], rel=1e-14
        )
        assert inc.values[k11] == pytest.approx(0.5 * inc.values[k1] ** 2, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_strat_single_step_level_three_matches_exact_oracle(d):
    grid = lift_brownian(d, 1.0, 8, 31, "strat", Grading(max_norm=3, gamma=Fraction(1, 3)))
    letters = [parse_multi_index(f"z({i},0)", d=d) for i in range(d + 1)]
    for inc in grid.increments:
        dx = [Fraction(inc.values[key]) for key in letters]
        assert dx[0] == Fraction(1, 8)
        for beta in enumerate_populated(d, 3):
            want = trapezoid_coefficient(beta)
            for (i, _), m in beta.entries:
                want *= dx[i] ** m
            assert inc.values[beta] == pytest.approx(float(want), rel=1e-14), beta


def test_composed_ito_level_two_is_left_point_riemann_sum():
    n = 16
    seed = 77
    grid = lift_brownian(1, 1.0, n, seed, "ito", G2)
    rng = np.random.Generator(np.random.PCG64(seed))
    dw = rng.normal(0.0, math.sqrt(1.0 / n), size=(n, 1))[:, 0]
    prefix = np.concatenate([[0.0], np.cumsum(dw)])
    want = float(np.sum(prefix[:-1] * dw))
    got = grid.increment_by_index(0, n).values[parse_multi_index("z(1,0)z(1,1)", d=1)]
    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_composed_strat_minus_ito_is_half_quadratic_variation():
    n = 32
    seed = 4242
    ito = lift_brownian(2, 1.0, n, seed, "ito", G2).increment_by_index(0, n)
    strat = lift_brownian(2, 1.0, n, seed, "strat", G2).increment_by_index(0, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    dw = rng.normal(0.0, math.sqrt(1.0 / n), size=(n, 2))
    for i in (1, 2):
        for j in (1, 2):
            key = parse_multi_index(f"z({i},0)z({j},1)", d=2)
            gap = strat.values[key] - ito.values[key]
            want = 0.5 * float(np.sum(dw[:, i - 1] * dw[:, j - 1]))
            assert gap == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_pair_statistics_agrees_with_lifted_paths():
    """The vectorized Monte-Carlo helper must reproduce, path by path, the
    level-2 gap of the actual lattice lifts built from the same stream."""
    n, seed, paths = 8, 2024, 3
    stats = brownian_pair_statistics(2, 1.0, n, paths, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    dw = rng.normal(0.0, math.sqrt(1.0 / n), size=(paths, n, 2))
    per_path = np.zeros((paths, 2, 2))
    for p in range(paths):
        ito = lift_brownian_from_increments(dw[p], 1.0 / n, "ito", G2)
        strat = lift_brownian_from_increments(dw[p], 1.0 / n, "strat", G2)
        a = ito.increment_by_index(0, n)
        b = strat.increment_by_index(0, n)
        for i in (1, 2):
            for j in (1, 2):
                key = parse_multi_index(f"z({i},0)z({j},1)", d=2)
                per_path[p, i - 1, j - 1] = b.values[key] - a.values[key]
    assert np.allclose(stats["mean_gap"], per_path.mean(axis=0), rtol=1e-10, atol=1e-14)


def test_pair_statistics_diagonal_target():
    stats = brownian_pair_statistics(2, 1.0, 64, 400, 7)
    assert stats["target"][0][0] == 0.5
    assert stats["target"][0][1] == 0.0
    # loose sanity: 400 paths put the mean within 5 SE of the target
    for i in range(2):
        for j in range(2):
            gap = abs(stats["mean_gap"][i][j] - stats["target"][i][j])
            assert gap <= 5.0 * stats["standard_error"][i][j]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_grid_json_round_trip_bit_exact():
    grid = lift_brownian(2, 1.0, 8, 123, "strat", G2)
    back = grid_from_json(json.dumps(grid_payload(grid)))
    assert back.times == grid.times
    assert back.grading == grid.grading
    for a, b in zip(back.increments, grid.increments):
        assert a.values == b.values


def _one_letter_grid(times, gamma="1/2") -> dict:
    return {"d": 1, "gamma": gamma, "max_norm": 1, "times": times,
            "increments": [{"z(1,0)": 1.0}] * (len(times) - 1)}


@pytest.mark.parametrize("bad", ["0.5", True, None, [0.5], math.inf])
def test_grid_times_must_be_finite_json_numbers(bad):
    # inf is a JSON number, which the grid itself refuses
    message = "time 1 is inf" if bad == math.inf else f"time 1 must be a JSON number, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        grid_from_json(_one_letter_grid([0, bad, 1.0]))
    grid = grid_from_json(_one_letter_grid([0, 0.5, 1]))
    assert grid.times == (0.0, 0.5, 1.0)
    assert all(type(t) is float for t in grid.times)


def test_grid_integers_beyond_the_float_range_are_refused_by_index():
    huge = "must be a JSON number in the float range, got "
    with pytest.raises(ValueError, match=re.escape(f"time 1 {huge}1{'0' * 17}...{'0' * 19}")):
        grid_from_json(_one_letter_grid([0, 10**310, 1.0]))
    doc = _one_letter_grid([0.0, 0.5, 1.0])
    doc["increments"] = [{"z(1,0)": 1.0}, {"z(1,0)": -(10**310)}]
    with pytest.raises(
        ValueError,
        match=re.escape(f"increment 1 at 'z(1,0)' {huge}-1{'0' * 16}...{'0' * 19}"),
    ):
        grid_from_json(doc)


@pytest.mark.parametrize("gamma, want", [(0.3, Fraction(3, 10)), ("3/10", Fraction(3, 10))])
def test_grid_gamma_is_read_by_its_decimal_text(gamma, want):
    assert grid_from_json(_one_letter_grid([0.0, 1.0], gamma)).grading.gamma == want


def test_grid_gamma_of_more_than_4000_digits_is_refused():
    # its denominator 10^9999 used to be read, and then could not be printed
    with pytest.raises(ValueError, match="^gamma must be a JSON rational, got '1e-9999'$"):
        grid_from_json(_one_letter_grid([0.0, 1.0], "1e-9999"))


def test_grid_gamma_cannot_be_a_bool():
    with pytest.raises(ValueError):
        grid_from_json(_one_letter_grid([0.0, 1.0], True))


def test_grid_d_and_max_norm_above_their_bounds_are_refused():
    # the key table grows like d^N, and the reader used to build it for
    # whatever d and max_norm the file named
    doc = _one_letter_grid([0.0, 1.0])
    for d, max_norm, message in [(7, 1, "d must be at most 6, got 7"),
                                 (50, 3, "d must be at most 6, got 50"),
                                 (1, 6, "max_norm must be at most 5, got 6")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_from_json({**doc, "d": d, "max_norm": max_norm})
    for d, max_norm in [(6, 1), (1, 5)]:
        assert grid_from_json({**doc, "d": d, "max_norm": max_norm}).grading.max_norm == max_norm


def _full_grid_doc(d: int) -> dict:
    """A two-step grid document at (d, 5) listing every key."""
    grading = Grading(max_norm=5, gamma=Fraction(1, 2))
    coords = np.full((2, len(_key_index(d, 5))), 0.25)
    return grid_payload(RoughPathGrid._of(d, grading, (0.0, 0.5, 1.0), coords, 5))


def _best_read_s(doc: dict) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        grid_from_json(doc)
        times.append(time.perf_counter() - start)
    return min(times)


def test_grid_read_time_grows_linearly_in_the_keys():
    # from (4, 5) to (6, 5) the keys grow 4.33x; the reader used to check
    # each new key spelling against every slot seen so far, and its time
    # grew about 13x
    small, large = _full_grid_doc(4), _full_grid_doc(6)  # _key_index warmed here
    assert _best_read_s(large) / _best_read_s(small) < 8


def test_grid_text_repeating_a_key_is_refused():
    doc = (
        '{"d": 1, "gamma": "1/2", "max_norm": 1, "times": [0.0, 1.0],'
        ' "increments": [{"z(1,0)": 1.0, "z(1,0)": 2.0}]}'
    )
    with pytest.raises(ValueError, match="the key 'z\\(1,0\\)' appears twice"):
        grid_from_json(doc)


def test_grid_reader_keys_are_the_key_index_objects():
    # start from empty intern tables and caches and rebuild the cached basis
    # from them, so that no clear made by an earlier test has left that
    # basis holding superseded key objects
    algebra._clear_interned(algebra._MULTI_INDICES)
    grid = lift_brownian(2, 1.0, 8, 123, "strat", G2)
    index = _key_index(2, G2.max_norm)
    canonical = {key: key for key in index}
    back = grid_from_json(json.dumps(grid_payload(grid)))
    for increment in back.increments:
        assert len(increment.values) == len(index)
        assert all(canonical[key] is key for key in increment.values)


# Every lift at every (d, N) of the property below; the lattice Brownian lift
# stops at level 3.
LIFT_CASES = [
    (kind, d, n)
    for kind in ("piecewise-linear", "strat", "ito")
    for d, n in ((1, 4), (2, 3), (3, 2))
    if kind == "piecewise-linear" or n <= 3
]


@st.composite
def _lifted_grids(draw):
    kind, d, n = draw(st.sampled_from(LIFT_CASES))
    grading = Grading(max_norm=n, gamma=Fraction(1, n + 1))
    if kind == "piecewise-linear":
        steps = draw(st.integers(1, 5))
        coordinate = st.floats(-3.0, 3.0, allow_nan=False)
        samples = [
            (j / steps, *(draw(coordinate) for _ in range(d))) for j in range(steps + 1)
        ]
        return lift_piecewise_linear(samples, grading)
    steps = draw(st.sampled_from([1, 2, 4, 8]))
    return lift_brownian(d, 1.0, steps, draw(st.integers(0, 2**16)), kind, grading)


def _reference_translation(ells, path):
    """One row per stored increment, each filled key by key from the
    increment's ``values`` mapping, not from the slots of the grid rows
    that ``translate_roughpath`` reads."""
    index = _key_index(path.d, path.grading.max_norm)
    basis = enumerate_populated(path.d, path.grading.max_norm)
    duals = {beta: m_ell(ells, beta) for beta in basis}
    rows = np.zeros((len(path.increments), len(index)))
    for m, increment in enumerate(path.increments):
        for beta, image in duals.items():
            total = 0.0
            for gamma_mi, coeff in image.items():
                x = increment.values.get(gamma_mi, 0.0)
                if x:
                    total += float(coeff) * x
            rows[m, index[beta]] = total
    return rows


@settings(max_examples=40, deadline=None)
@given(grid=_lifted_grids())
def test_grid_rows_round_trip_translate_and_list_their_stored_degrees(grid):
    back = grid_from_json(json.dumps(grid_payload(grid)))
    assert np.array(back.coords).tobytes() == np.array(grid.coords).tobytes()
    assert back.depth == grid.depth
    stored = {format_multi_index(mi) for mi in enumerate_populated(grid.d, grid.depth)}
    assert all(set(inc) == stored for inc in grid_payload(grid)["increments"])
    ells = [ito_strat_character(grid.d), *identity_characters(grid.d)[1:]]
    out = translate_roughpath(ells, grid)
    assert out.grading == grid.grading
    assert np.array(out.coords).tobytes() == _reference_translation(ells, grid).tobytes()


def test_reader_depth_of_an_ito_file_is_its_highest_key_degree():
    grading = Grading(max_norm=3, gamma=Fraction(1, 3))
    ito = grid_from_json(
        json.dumps(grid_payload(lift_brownian(2, 1.0, 8, 11, "ito", grading)))
    )
    assert (ito.grading, ito.depth) == (grading, 1)
    assert all(set(inc.values) == set(enumerate_populated(2, 1)) for inc in ito.increments)
    ells = [ito_strat_character(2), *identity_characters(2)[1:]]
    assert translate_roughpath(ells, ito).depth == 3


def test_constructed_grid_writes_every_key_up_to_its_truncation():
    grading = Grading(max_norm=3, gamma=Fraction(1, 3))
    inc = GroupElement(d=2, grading=grading, values={parse_multi_index("z(1,0)", d=2): 0.5})
    grid = RoughPathGrid(d=2, grading=grading, times=(0.0, 1.0), increments=(inc,))
    assert grid.depth == 3
    (written,) = grid_payload(grid)["increments"]
    assert set(written) == {format_multi_index(mi) for mi in enumerate_populated(2, 3)}
    assert written["z(1,0)"] == 0.5 and sum(v == 0.0 for v in written.values()) > 1


def test_path_csv_round_trip():
    samples = [(0.0, 1.5, -2.0), (0.25, 0.1, 0.2), (1.0, -1.0, 1.0)]
    buf = io.StringIO()
    write_path_csv(samples, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2"
    back = read_path_csv(text)
    assert back == samples


def test_path_csv_rejects_missing_header():
    with pytest.raises(ValueError):
        read_path_csv("0.0,1.0\n1.0,2.0\n")


def test_path_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        read_path_csv("t,x1\n0.0,1.0\n1.0\n")
