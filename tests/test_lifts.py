"""Lifted paths: affine closed forms, Chen consistency, Brownian lattices, IO.

The oracle for affine segments is the exact rational coefficient recursion

    c(z(i,0)) = 1,   c(β) = (1/|β|) Σ_{(i,k)} Σ_{β=e(i,k)+β₁+…+β_k} Π_j c(βⱼ),

giving X_{s,s+h}(z^β) = c(β) · Π_{(i,k)} v_i^{β(i,k)} · h^{|β|} for a segment
with slopes v (v₀ = 1).  The single-step Stratonovich oracle is the same
recursion with ½ in place of 1/|β|.  Both are evaluated here with Fractions,
independently of the float recursion in ``mirpath.lifts`` they check.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from mirpath.algebra import Grading, MultiIndex, enumerate_populated
from mirpath.grammar import parse_multi_index
from mirpath.group import char_eval, chen_compose
from mirpath.lifts import (
    UnsupportedLevelError,
    _ordered_parts,
    brownian_pair_statistics,
    grid_from_json,
    grid_to_json,
    integral_decompositions,
    lift_brownian,
    lift_brownian_from_increments,
    lift_piecewise_linear,
    read_path_csv,
    write_path_csv,
)

# ---------------------------------------------------------------------------
# Closed-form oracle for affine segments
# ---------------------------------------------------------------------------


def _sum_over_decompositions(beta: MultiIndex, coefficient) -> Fraction:
    total = Fraction(0)
    for _, _, parts in integral_decompositions(beta):
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
    ],
    ids=["slopes0", "slopes1", "slopes2", "d2-N4", "d3-N3"],
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


def test_bounded_decomposition_caches_hold_one_grading_at_d3_n4():
    # a second lift at d=3, N=4 finds every decomposition in the caches
    samples = [(j / 2, 0.3 * j, -0.2 * j, 0.1 * j * j) for j in range(3)]
    grading = Grading(max_norm=4, gamma=Fraction(1, 5))
    integral_decompositions.cache_clear()
    _ordered_parts.cache_clear()
    lift_piecewise_linear(samples, grading)
    first = integral_decompositions.cache_info(), _ordered_parts.cache_info()
    lift_piecewise_linear(samples, grading)
    second = integral_decompositions.cache_info(), _ordered_parts.cache_info()
    assert [info.misses for info in second] == [info.misses for info in first]
    assert all(info.currsize < info.maxsize for info in second)


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


def test_time_component_is_exact_on_every_step():
    grid = lift_brownian(1, 1.0, 8, 5, "ito", G2)
    key = parse_multi_index("z(0,0)", d=1)
    for inc in grid.increments:
        assert inc.values[key] == 0.125


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


def test_strat_single_step_level_three_matches_exact_oracle():
    grid = lift_brownian(2, 1.0, 8, 31, "strat", Grading(max_norm=3, gamma=Fraction(1, 3)))
    letters = [parse_multi_index(f"z({i},0)", d=2) for i in range(3)]
    for inc in grid.increments:
        dx = [Fraction(inc.values[key]) for key in letters]
        assert dx[0] == Fraction(1, 8)
        for beta in enumerate_populated(2, 3):
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
    back = grid_from_json(grid_to_json(grid))
    assert back.times == grid.times
    assert back.grading == grid.grading
    for a, b in zip(back.increments, grid.increments):
        assert a.values == b.values


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
