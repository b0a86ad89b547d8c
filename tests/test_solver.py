"""Flow-solver checks: expansion basis, log-ODE step, flow composition,
Davie residuals, and the smooth-driver reference oracle.

Oracles used here:

* closed-form solutions of linear ODEs (exponentials);
* a fine classical RK4 reference for smooth drivers, itself validated by a
  Richardson-style self-refinement check;
* fabricated flows built from the expansion itself, whose residuals must
  vanish identically.

Smooth drivers are lifted piecewise-linearly, so every rate measured against
classical calculus is a genuine property of the solver, not of a mock.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import Grading, enumerate_populated, single
from mirpath.fields import VectorField, upsilon
from mirpath.grammar import parse_multi_index
from mirpath.group import (
    GroupElement,
    LieElement,
    OffGridTimeError,
    RoughPathGrid,
    identity_character,
    log_element,
)
from mirpath.lifts import lift_brownian, lift_piecewise_linear
from mirpath.solver import (
    _compiled,
    _expansion,
    DivergedError,
    FlowSolution,
    davie_expansion,
    davie_residual_report,
    dyadic_pairs,
    expansion_basis,
    logode_step,
    solve_flow,
)
from mirpath.translation import identity_characters, ito_strat_character, translated_field

F = Fraction
HALF = F(1, 2)
GRADING2 = Grading(max_norm=2, gamma=HALF)
GRADING3 = Grading(max_norm=3, gamma=HALF)

# degree-7 truncation of cos(y), exact rational coefficients
COS7 = (F(1), F(0), F(-1, 2), F(0), F(1, 24), F(0), F(-1, 720), F(0))


def cos_field() -> VectorField:
    return VectorField.polynomial([(0,), COS7])


def overflowing_field() -> VectorField:
    """f_1(y) = 1e200·y, whose derivative squared overflows a float."""
    return VectorField.polynomial([(0,), (0, 10**200)])


def one_step_path(key: str) -> RoughPathGrid:
    """One stored step over [0, 0.5] whose only value is 0.1 on ``key``."""
    inc = GroupElement(d=1, grading=GRADING3, values={parse_multi_index(key, d=1): 0.1})
    return RoughPathGrid(d=1, grading=GRADING3, times=(0.0, 0.5), increments=(inc,))


def drifted_cos_field() -> VectorField:
    return VectorField.polynomial([(F(1, 5),), COS7])


def sine_path(n_steps: int, grading: Grading = GRADING2) -> RoughPathGrid:
    samples = [(i / n_steps, math.sin(i / n_steps)) for i in range(n_steps + 1)]
    return lift_piecewise_linear(samples, grading)


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0])


def mi1(*pairs: tuple[int, int]):
    out = None
    for i, k in pairs:
        s = single(i, k, 1)
        out = s if out is None else out.mul(s)
    return out


# ---------------------------------------------------------------------------
# expansion basis
# ---------------------------------------------------------------------------


class TestExpansionBasis:
    def test_level_two(self):
        got = expansion_basis(1, HALF, F(2))
        assert set(got) == {single(0, 0, 1), single(1, 0, 1), mi1((1, 0), (1, 1))}

    def test_level_one_keeps_drift(self):
        # the bare time variable has γ-size 2, yet is adjoined unconditionally
        got = expansion_basis(1, HALF, F(1))
        assert set(got) == {single(0, 0, 1), single(1, 0, 1)}

    def test_level_three_admits_mixed_terms(self):
        got = set(expansion_basis(1, HALF, F(3)))
        assert mi1((0, 0), (1, 1)) in got
        assert mi1((0, 1), (1, 0)) in got
        assert mi1((1, 0), (1, 1), (1, 1)) in got
        assert mi1((1, 0), (1, 0), (1, 2)) in got
        assert len(got) == 7

    def test_dimension_two_level_two(self):
        got = expansion_basis(2, HALF, F(2))
        # one drift, two first-order, four second-order diffusion monomials
        assert len(got) == 7
        assert all(b.gamma_degree(HALF) <= 2 for b in got)

    def test_stricter_exponent_excludes_mixed_terms(self):
        got = set(expansion_basis(1, F(1, 3), F(3)))
        assert mi1((0, 0), (1, 1)) not in got  # γ-size 4 at γ = 1/3
        assert single(0, 0, 1) in got  # γ-size exactly 3

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            expansion_basis(1, HALF, F(1, 2))

    def test_deterministic_order(self):
        assert expansion_basis(2, HALF, F(2)) == expansion_basis(2, HALF, F(2))


# ---------------------------------------------------------------------------
# Davie expansion
# ---------------------------------------------------------------------------


class TestDavieExpansion:
    def test_zero_path_returns_start(self):
        incs = tuple(identity_character(1, GRADING2) for _ in range(2))
        zero = RoughPathGrid(
            d=1, grading=GRADING2, times=(0.0, 0.5, 1.0), increments=incs
        )
        y = 2.515151515151515
        assert davie_expansion(zero, cos_field(), 0.0, 1.0, y) == y

    def test_level_one_linear_field(self):
        a = 0.7
        f = VectorField.linear([0.0, a])
        inc = GroupElement(
            d=1,
            grading=GRADING2,
            values={single(1, 0, 1): 0.3, single(0, 0, 1): 0.5},
        )
        path = RoughPathGrid(
            d=1, grading=GRADING2, times=(0.0, 0.5), increments=(inc,)
        )
        got = davie_expansion(path, f, 0.0, 0.5, 2.0, level=1)
        assert got == pytest.approx(2.0 + a * 2.0 * 0.3, abs=1e-15)

    def test_smooth_driver_second_order_rate(self):
        # against the classical solution the one-step expansion is accurate
        # to better than |t−s|^{3/2}
        path = sine_path(256)
        f = cos_field()
        y0 = 0.3
        xs, ys = [], []
        for block in (8, 16, 32, 64):
            h = block / 256
            ref = reference_ode_solve(f, [math.cos], y0, [0.0, h / 2, h])
            err = abs(davie_expansion(path, f, 0.0, h, y0) - float(ref[-1]))
            xs.append(math.log(h))
            ys.append(math.log(err))
        assert _fit_slope(xs, ys) >= 1.4

    def test_time_validation(self):
        path = sine_path(8)
        with pytest.raises(OffGridTimeError):
            davie_expansion(path, cos_field(), 0.0, 0.3, 1.0)
        with pytest.raises(ValueError):
            davie_expansion(path, cos_field(), 0.5, 0.25, 1.0)

    def test_level_above_storage_rejected(self):
        path = sine_path(8)
        with pytest.raises(ValueError):
            davie_expansion(path, cos_field(), 0.0, 0.5, 1.0, level=3)


# ---------------------------------------------------------------------------
# log-ODE step
# ---------------------------------------------------------------------------


class TestLogOdeStep:
    def test_zero_element_is_identity(self):
        lam = LieElement(d=1, grading=GRADING2, values={})
        y = 1.2345678901234567
        assert logode_step(lam, cos_field(), y) == y

    def test_pure_drift_translates(self):
        f = VectorField.polynomial([(1,), (0,)])
        lam = LieElement(d=1, grading=GRADING2, values={single(0, 0, 1): 0.37})
        assert logode_step(lam, f, 2.0) == pytest.approx(2.37, abs=1e-14)

    def test_linear_field_exponential(self):
        a, h = 0.7, 0.4
        f = VectorField.linear([0.0, a])
        lam = LieElement(d=1, grading=GRADING2, values={single(1, 0, 1): h})
        got = logode_step(lam, f, 2.0, substeps=8)
        assert got == pytest.approx(2.0 * math.exp(a * h), abs=1e-7)
        # more substeps must not be less accurate by an order of magnitude
        fine = logode_step(lam, f, 2.0, substeps=64)
        assert abs(fine - 2.0 * math.exp(a * h)) <= abs(
            got - 2.0 * math.exp(a * h)
        )

    def test_divergence_guard(self):
        # y' = 50·y² blows up at t = 1/50: the first substep lands past 1e12
        f = VectorField.polynomial([(0,), (0, 0, 1)])  # f₁(y) = y²
        lam = LieElement(d=1, grading=GRADING2, values={single(1, 0, 1): 50.0})
        with pytest.raises(DivergedError) as info:
            logode_step(lam, f, 1.0, substeps=4)
        assert info.value.substep == 1
        assert math.isfinite(info.value.state)
        assert abs(info.value.state) > 1e12

    def test_validation(self):
        lam = LieElement(d=1, grading=GRADING2, values={})
        with pytest.raises(ValueError):
            logode_step(lam, cos_field(), 1.0, substeps=0)
        with pytest.raises(ValueError):
            logode_step(lam, cos_field(), 1.0, level=5)


# ---------------------------------------------------------------------------
# the shared right-hand side against a per-monomial reference
# ---------------------------------------------------------------------------


def _reference_logode_step(lam, f, y, substeps, level):
    """The log-ODE step as a plain RK4 over Σ c·Υ_f[z^β], one ``upsilon``
    call per monomial and evaluation."""
    terms = []
    for beta in expansion_basis(lam.d, lam.grading.gamma, level):
        x = lam.value(beta)
        if x != 0.0:
            terms.append((beta, x / beta.symmetry_factor()))

    def rhs(z):
        total = 0.0
        for beta, c in terms:
            total += c * upsilon(beta, f, z)
        return total

    h = 1.0 / substeps
    z = float(y)
    for n in range(1, substeps + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(z) or abs(z) > 1e12:
            raise DivergedError(
                f"state {z} left the finite range at substep {n}/{substeps}",
                substep=n,
                state=z,
            )
    return z


def _reference_davie(path, f, i, j, y, level):
    increment = path.increment_by_index(i, j)
    total = float(y)
    for beta in expansion_basis(path.d, path.grading.gamma, level):
        x = increment.value(beta)
        if x != 0.0:
            total += upsilon(beta, f, y) / beta.symmetry_factor() * x
    return total


def _outcome(fn, *args):
    """The value, or the type and text of the error, so that a raised error
    is compared as strictly as a result."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


_SMALL = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _fields(draw, d):
    """A polynomial, linear or closure field over letters 0..d; closures
    carry a drawn number of derivative orders, so too few orders occur."""
    variant = draw(st.sampled_from(["polynomial", "linear", "closure"]))
    if variant == "polynomial":
        coeff = st.fractions(-2, 2, max_denominator=8)
        return VectorField.polynomial(
            [draw(st.lists(coeff, min_size=1, max_size=4)) for _ in range(d + 1)]
        )
    if variant == "linear":
        return VectorField.linear([draw(_SMALL) for _ in range(d + 1)])
    orders = draw(st.integers(1, 4))
    rows = []
    for _ in range(d + 1):
        a, b = draw(_SMALL), draw(_SMALL)
        rows.append([
            lambda y, a=a, b=b, k=k: a * math.sin(y + b + k * math.pi / 2)
            for k in range(orders)
        ])
    return VectorField.from_closures(rows)


@st.composite
def _rhs_cases(draw):
    d, n = draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 3)]))
    grading = Grading(max_norm=n, gamma=draw(st.sampled_from([F(1, 2), F(1, 3)])))
    keys = enumerate_populated(d, n)
    value = st.one_of(st.just(0.0), _SMALL)

    def values():
        return {key: draw(value) for key in keys}

    # the default level (None, the stored degree) keeps the longest monomials
    level = draw(st.none() | st.sampled_from([F(m, 2) for m in range(2, 2 * n + 1)]))
    return d, grading, values, draw(_fields(d)), draw(_SMALL), level


@settings(max_examples=60, deadline=None)
@given(_rhs_cases(), st.integers(1, 4))
def test_shared_rhs_matches_per_monomial_reference_bit_for_bit(case, substeps):
    d, grading, values, f, y, level = case
    bound = F(grading.max_norm) if level is None else level
    lam = LieElement(d=d, grading=grading, values=values())
    assert _outcome(logode_step, lam, f, y, substeps, level) == _outcome(
        _reference_logode_step, lam, f, y, substeps, bound
    )
    incs = tuple(GroupElement(d=d, grading=grading, values=values()) for _ in range(2))
    path = RoughPathGrid(d=d, grading=grading, times=(0.0, 0.5, 1.0), increments=incs)
    for i, j in [(0, 0), (0, 1), (1, 2), (0, 2)]:
        got = _outcome(davie_expansion, path, f, path.times[i], path.times[j], y, level)
        assert got == _outcome(_reference_davie, path, f, i, j, y, bound)


def test_power_overflow_before_a_missing_order_raises_what_the_reference_raises():
    # f_1 ≡ 1e200 with one derivative order: (1e200)² overflows in
    # z(1,0)²z(1,2) before its f_1'' is asked for; taking every derivative
    # first used to raise DerivativeOrderError instead
    f = VectorField.from_closures([[lambda y: 0.0] * 2, [lambda y: 1e200, lambda y: 0.0]])
    values = {key: 0.5 for key in enumerate_populated(1, 3)}
    lam = LieElement(d=1, grading=GRADING3, values=values)
    got = _outcome(logode_step, lam, f, 0.5, 2, None)
    assert got[0] is OverflowError
    assert got == _outcome(_reference_logode_step, lam, f, 0.5, 2, F(3))
    inc = GroupElement(d=1, grading=GRADING3, values=values)
    path = RoughPathGrid(d=1, grading=GRADING3, times=(0.0, 0.5), increments=(inc,))
    got = _outcome(davie_expansion, path, f, 0.0, 0.5, 0.5, None)
    assert got[0] is OverflowError
    assert got == _outcome(_reference_davie, path, f, 0, 1, 0.5, F(3))
    sol = solve_flow(path, f, 0.5)
    assert sol.diverged and sol.values == (0.5,)
    assert "overflowed in the step to 0.5" in sol.message


# ---------------------------------------------------------------------------
# the compiled right-hand side over long grids and long rows
# ---------------------------------------------------------------------------


def bm_flow_field() -> VectorField:
    """The field of the bm-flow benchmark: a mean-reverting drift, one
    quadratic and one affine diffusion letter."""
    return VectorField.polynomial([("0.1", "-0.5"), ("1", "0", "-0.25"), ("0.5", "0.3")])


def closure_field(d: int) -> VectorField:
    """f_0 = 0.1 − 0.5·sin y and f_i = cos(y + i) for i ≥ 1, with three
    derivative orders each."""
    def shifted_cos(i: int) -> list[Callable[[float], float]]:
        return [lambda y, k=k: math.cos(y + i + k * math.pi / 2) for k in range(4)]

    drift = [lambda y: 0.1 - 0.5 * math.sin(y), lambda y: -0.5 * math.cos(y),
             lambda y: 0.5 * math.sin(y), lambda y: 0.5 * math.cos(y)]
    return VectorField.from_closures([drift, *(shifted_cos(i) for i in range(1, d + 1))])


def long_row_field() -> VectorField:
    """f_1 = 1 + 1e-300·y²⁵¹: 252 coefficients, beyond what one nested
    Horner expression may hold."""
    return VectorField.polynomial([(0,), (1, *[0] * 250, F(1, 10**300))])


def _reference_flow(path, f, y0, substeps, level):
    """The states of ``solve_flow`` over every stored step, each step taken
    by ``_reference_logode_step``."""
    values = [float(y0)]
    for m in range(len(path.times) - 1):
        lam = log_element(path.increment_by_index(m, m + 1))
        values.append(_reference_logode_step(lam, f, values[-1], substeps, level))
    return tuple(values)


@pytest.mark.parametrize("make_field", [bm_flow_field, lambda: closure_field(2)],
                         ids=["polynomial", "closures"])
def test_compiled_rhs_matches_the_reference_over_256_brownian_steps(make_field):
    f = make_field()
    path = lift_brownian(d=2, t_final=1.0, n_steps=256, seed=5, mode="strat", grading=GRADING3)
    sol = solve_flow(path, f, 0.2, substeps=4)
    assert not sol.diverged
    assert sol.values == _reference_flow(path, f, 0.2, 4, F(3))
    for s, t in dyadic_pairs(path.times, 1, 64):
        i, j, y = path.index_of(s), path.index_of(t), sol.value_at(s)
        assert davie_expansion(path, f, s, t, y) == _reference_davie(path, f, i, j, y, F(3))


def test_a_252_coefficient_row_matches_the_reference():
    # Horner's rule is one assignment per coefficient: as one nested
    # expression this row exceeds the parser's limit on nested parentheses
    f = long_row_field()
    path = lift_brownian(d=1, t_final=1.0, n_steps=64, seed=2, mode="strat", grading=GRADING3)
    sol = solve_flow(path, f, 0.3, substeps=2)
    assert not sol.diverged
    assert sol.values == _reference_flow(path, f, 0.3, 2, F(3))


@pytest.mark.parametrize("make_field", [cos_field, lambda: closure_field(1), long_row_field],
                         ids=["polynomial", "closures", "long-row"])
def test_an_element_with_empty_support_leaves_the_state_unchanged(make_field):
    f = make_field()
    y = 2.515151515151515
    assert logode_step(LieElement(d=1, grading=GRADING3, values={}), f, y, substeps=2) == y
    zero = RoughPathGrid(d=1, grading=GRADING3, times=(0.0, 1.0),
                         increments=(identity_character(1, GRADING3),))
    assert davie_expansion(zero, f, 0.0, 1.0, y) == y


def test_the_compiled_rhs_is_found_without_hashing_the_field_rows(monkeypatch):
    # a cache keyed on the field record would hash each of its exact
    # coefficients at every step
    path = lift_brownian(d=1, t_final=1.0, n_steps=16, seed=4, mode="strat", grading=GRADING3)
    real = F.__hash__
    counts = []
    for f in (VectorField.polynomial([(0,), (1, 0, F(-1, 4))]), long_row_field()):
        solve_flow(path, f, 0.3, substeps=2)  # compiles
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return real(x)

        monkeypatch.setattr(F, "__hash__", counting)
        solve_flow(path, f, 0.3, substeps=2)
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# flow composition
# ---------------------------------------------------------------------------


class TestSolveFlow:
    def test_zero_field_constant_path(self):
        path = sine_path(16)
        f = VectorField.polynomial([(0,), (0,)])
        sol = solve_flow(path, f, 0.77)
        assert sol.values == tuple([0.77] * len(path.times))
        assert not sol.diverged

    def test_initial_state_beyond_the_bound_is_refused(self):
        f = VectorField.polynomial([(0,), (0,)])
        assert solve_flow(sine_path(8), f, -1e12).values[-1] == -1e12
        with pytest.raises(ValueError, match="^initial state 2000000000000.0 lies beyond"):
            solve_flow(sine_path(8), f, 2e12)

    def test_one_huge_level_one_value_diverges(self):
        # the logarithm of an increment with z(1,0) = 1e200 overflows; the
        # flow reports a divergence instead of refusing the increment
        path = lift_brownian(d=1, t_final=1.0, n_steps=4, seed=0, mode="strat",
                             grading=GRADING3)
        key = parse_multi_index("z(1,0)", d=1)
        incs = list(path.increments)
        incs[1] = GroupElement(d=1, grading=GRADING3, values={**incs[1].values, key: 1e200})
        huge = RoughPathGrid(d=1, grading=GRADING3, times=path.times, increments=incs)
        sol = solve_flow(huge, VectorField.polynomial([(0,), (1,)]), 0.0)
        assert sol.diverged and len(sol.values) < len(path.times)

    def test_initial_condition_exact(self):
        path = sine_path(8)
        y0 = 0.1234567890123456789  # rounds to a specific binary64
        sol = solve_flow(path, cos_field(), y0)
        assert sol.values[0] == float(y0)

    def test_linear_field_linear_driver_closed_form(self):
        a, slope = 0.8, 1.5
        f = VectorField.linear([0.0, a])
        n = 256
        samples = [(i / n, slope * i / n) for i in range(n + 1)]
        path = lift_piecewise_linear(samples, GRADING2)
        sol = solve_flow(path, f, 2.0)
        assert sol.values[-1] == pytest.approx(2.0 * math.exp(a * slope), abs=1e-8)

    def test_smooth_driver_matches_reference(self):
        path = sine_path(1 << 10)
        f = cos_field()
        sol = solve_flow(path, f, 0.3)
        ref = reference_ode_solve(f, [math.cos], 0.3, sol.times)
        sup = max(abs(a - b) for a, b in zip(sol.values, ref))
        assert sup <= 1e-5

    def test_error_monotone_under_refinement(self):
        path = sine_path(1 << 10)
        f = cos_field()
        errors = []
        for mesh_level in (6, 7, 8, 9, 10):
            sol = solve_flow(path, f, 0.3, mesh_level=mesh_level)
            ref = reference_ode_solve(f, [math.cos], 0.3, sol.times)
            errors.append(max(abs(a - b) for a, b in zip(sol.values, ref)))
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_first_level_scheme_consistent(self):
        # truncating to γ-size 1 leaves an exponential-Euler-type scheme that
        # still converges to the classical solution as the mesh refines
        path = sine_path(1 << 10)
        f = drifted_cos_field()
        errors = []
        for mesh_level in (6, 7, 8, 9, 10):
            sol = solve_flow(path, f, 0.3, mesh_level=mesh_level, level=1)
            ref = reference_ode_solve(f, [math.cos], 0.3, sol.times)
            errors.append(max(abs(a - b) for a, b in zip(sol.values, ref)))
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_mesh_halving_contracts(self):
        # successive refinements agree ever better, by at least √2 per level
        # (measured ≈ 4); run at γ-size 1 so differences sit far above the
        # floating-point floor
        path = sine_path(1 << 10)
        f = drifted_cos_field()
        sols = {
            level: solve_flow(path, f, 0.3, mesh_level=level, level=1)
            for level in (5, 6, 7, 8)
        }
        diffs = []
        for level in (5, 6, 7):
            coarse, fine = sols[level], sols[level + 1]
            diffs.append(
                max(
                    abs(coarse.values[i] - fine.value_at(coarse.times[i]))
                    for i in range(len(coarse.times))
                )
            )
        assert all(a / b >= math.sqrt(2.0) for a, b in zip(diffs, diffs[1:])), diffs

    def test_deterministic(self):
        path = sine_path(64)
        one = solve_flow(path, cos_field(), 0.3, mesh_level=4)
        two = solve_flow(path, cos_field(), 0.3, mesh_level=4)
        assert one.values == two.values and one.times == two.times

    def test_divergence_truncates_locally(self):
        f = VectorField.polynomial([(0,), (0, 0, 1)])  # f₁(y) = y²
        path = lift_piecewise_linear(
            [(0.0, 0.0), (0.5, 40.0), (1.0, 80.0)], GRADING2
        )
        sol = solve_flow(path, f, 1.0)
        assert sol.diverged
        assert sol.values == (1.0,)  # the start state is the last finite one
        assert "substep 2/8" in sol.message
        assert all(math.isfinite(v) for v in sol.values)

    @pytest.mark.parametrize("variant", ["polynomial", "translated"])
    def test_power_overflow_truncates_locally(self, variant):
        # f_1' = 1e200 and (1e200) ** 2 overflows: in the solver's own
        # products for the polynomial field, inside the provider of the
        # translated one (through f_0', which z(0,1)z(1,0) reads)
        if variant == "polynomial":
            f, key = overflowing_field(), "z(1,0)z(1,1)^2"
        else:
            ells = [ito_strat_character(1), identity_characters(1)[1]]
            # f_0 = 0 and f_1(y) = 1e200·y as closures with four derivative
            # orders, so that the generic translated provider runs
            zero = [lambda y: 0.0] * 5
            slope = [lambda y: 1e200 * y, lambda y: 1e200, *zero[2:]]
            base = VectorField.from_closures([zero, slope])
            f = translated_field(base, ells)
            key = "z(0,1)z(1,0)"
        path = one_step_path(key)
        sol = solve_flow(path, f, 0.5, substeps=4)
        assert sol.diverged
        assert sol.values == (0.5,)
        assert "overflowed in the step to 0.5" in sol.message

    def test_mesh_validation(self):
        path = sine_path(8)
        with pytest.raises(ValueError, match="substeps must be >= 1, got 0"):
            solve_flow(path, cos_field(), 0.3, substeps=0)
        with pytest.raises(ValueError, match="mesh_level must be >= 0, got -1"):
            solve_flow(path, cos_field(), 0.3, mesh_level=-1)
        with pytest.raises(ValueError):
            solve_flow(path, cos_field(), 0.3, mesh_level=4)

    def test_value_at_unknown_time(self):
        path = sine_path(4)
        sol = solve_flow(path, cos_field(), 0.3)
        with pytest.raises(ValueError):
            sol.value_at(0.3)

    def test_solution_records_the_resolved_level(self):
        path = sine_path(8, GRADING3)
        assert solve_flow(path, cos_field(), 0.3).level == 3
        assert solve_flow(path, cos_field(), 0.3, level=1.5).level == F(3, 2)
        with pytest.raises(ValueError, match="^truncation level 4 exceeds the stored degree 3$"):
            solve_flow(path, cos_field(), 0.3, level=4)

    def test_every_mesh_time_finds_its_own_value_on_epoch_times(self):
        # neighbours one apart at 1.7e12 are equal up to rel 1e-12
        samples = [(1.7e12 + m, math.sin(m)) for m in range(9)]
        sol = solve_flow(lift_piecewise_linear(samples, GRADING2), cos_field(), 0.3)
        assert [sol.value_at(t) for t in sol.times] == list(sol.values)


# ---------------------------------------------------------------------------
# Davie residual report
# ---------------------------------------------------------------------------


class TestDavieReport:
    def test_fabricated_flow_has_zero_residuals(self):
        path = sine_path(64)
        f = cos_field()
        y = 0.3
        times, values = [0.0], [y]
        for i in range(64):
            y = davie_expansion(path, f, i / 64, (i + 1) / 64, y)
            times.append((i + 1) / 64)
            values.append(y)
        fabricated = FlowSolution(times=tuple(times), values=tuple(values), level=F(2))
        pairs = [(times[i], times[i + 1]) for i in range(64)]
        report = davie_residual_report(path, f, fabricated, pairs)
        assert all(r == 0.0 for _, _, r in report.rows)
        assert math.isnan(report.slope)

    def test_power_overflow_is_a_divergence(self):
        flow = FlowSolution(times=(0.0, 0.5), values=(0.5, 0.5), level=F(3))
        path = one_step_path("z(1,0)z(1,1)^2")
        with pytest.raises(DivergedError) as info:
            davie_residual_report(path, overflowing_field(), flow, [(0.0, 0.5)])
        assert (info.value.substep, info.value.state) == (1, 0.5)
        assert "overflowed at state 0.5" in str(info.value)

    @staticmethod
    def _report_on_residuals(lengths, residuals):
        """The report over the pairs (0, t) for t in ``lengths``, with a zero
        field, so that the expansion is y0 = 0 and each residual is the
        fabricated value at t."""
        times = (0.0, *lengths)
        path = lift_piecewise_linear([(t, 0.0) for t in times], GRADING2)
        flow = FlowSolution(times=times, values=(0.0, *residuals), level=F(2))
        zero = VectorField.polynomial([(0,), (0,)])
        return davie_residual_report(path, zero, flow, [(0.0, t) for t in lengths])

    def test_slope_of_collinear_points_is_the_line_slope_exactly(self):
        # log-log points on y = 1.5x + 0.25 at dyadic x and y, where every
        # sum and product of the least-squares slope is exact
        xs = (-4.0, -3.0, -2.0, -1.0)
        ys = tuple(1.5 * x + 0.25 for x in xs)
        lengths, residuals = [math.exp(x) for x in xs], [math.exp(y) for y in ys]
        assert [math.log(t) for t in lengths] == list(xs)
        assert [math.log(r) for r in residuals] == list(ys)
        assert self._report_on_residuals(lengths, residuals).slope == 1.5

    def test_slope_matches_polyfit_on_random_points(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for size in (2, 3, 7, 31, 124):
            lengths = np.sort(rng.uniform(0.001, 1.0, size)).tolist()
            xs = [math.log(t) for t in lengths]
            ys = [rng.uniform(1.0, 3.0) * x + rng.normal(0.0, 0.5) for x in xs]
            got = self._report_on_residuals(lengths, [math.exp(y) for y in ys]).slope
            want = _fit_slope(xs, [math.log(math.exp(y)) for y in ys])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_slope_needs_two_distinct_abscissae(self):
        assert math.isnan(self._report_on_residuals([0.5], [0.0]).slope)  # no point
        assert math.isnan(self._report_on_residuals([0.5], [0.25]).slope)  # one point
        # two pairs over intervals of the same length 0.5
        path = lift_piecewise_linear([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], GRADING2)
        flow = FlowSolution(times=(0.0, 0.5, 1.0), values=(0.0, 0.25, 0.5), level=F(2))
        zero = VectorField.polynomial([(0,), (0,)])
        report = davie_residual_report(path, zero, flow, [(0.0, 0.5), (0.5, 1.0)])
        assert [r for _, _, r in report.rows] == [0.25, 0.25]
        assert math.isnan(report.slope)

    def test_smooth_driver_rate(self):
        path = sine_path(1 << 8)
        f = cos_field()
        sol = solve_flow(path, f, 0.3)
        report = davie_residual_report(
            path, f, sol, dyadic_pairs(sol.times, 2, 64)
        )
        assert report.target_slope == pytest.approx(1.5)
        assert report.level == 2.0 and report.gamma == 0.5
        assert report.slope >= 1.35

    def test_rate_stable_under_initial_condition(self):
        path = sine_path(1 << 8)
        f = cos_field()
        slopes = []
        for y0 in (0.3, 1.1):
            sol = solve_flow(path, f, y0)
            slopes.append(
                davie_residual_report(
                    path, f, sol, dyadic_pairs(sol.times, 2, 64)
                ).slope
            )
        assert abs(slopes[0] - slopes[1]) <= 0.1

    def test_report_reads_the_level_of_the_solution(self):
        # a level-2 solution on an N = 3 grid is checked at level 2, target 3γ
        path = sine_path(64, GRADING3)
        sol = solve_flow(path, cos_field(), 0.3, level=2)
        report = davie_residual_report(path, cos_field(), sol, dyadic_pairs(sol.times, 1, 8))
        assert (report.level, report.target_slope) == (2.0, 1.5)
        pair = (path.times[56], path.times[64])  # the last pair, at block size 8
        expansion = davie_expansion(path, cos_field(), *pair, sol.value_at(pair[0]), 2)
        assert report.rows[-1] == (*pair, abs(sol.value_at(pair[1]) - expansion))

    def test_solve_and_report_build_the_expansion_once(self):
        path = lift_brownian(d=2, t_final=1.0, n_steps=64, seed=3, mode="strat",
                             grading=GRADING3)
        f = VectorField.polynomial([("0.1", "-0.5"), ("1", "0", "-0.25"), ("0.5", "0.3")])
        _expansion.cache_clear()
        _compiled.cache_clear()
        sol = solve_flow(path, f, 0.2, substeps=4)
        assert _compiled.cache_info().misses == 1
        davie_residual_report(path, f, sol, dyadic_pairs(sol.times, 1, 16))
        assert (_expansion.cache_info().misses, _expansion.cache_info().currsize) == (1, 1)
        # one function per form, never one per step or per pair
        assert _compiled.cache_info().misses == 2

    def test_solve_and_report_hash_no_fraction_per_step(self, monkeypatch):
        # the expansion is looked up by integers, so no step hashes γ or the level
        f = VectorField.polynomial([("0.1", "-0.5"), ("1", "0", "-0.25"), ("0.5", "0.3")])
        fraction_hash = Fraction.__hash__
        calls = []

        def counting(self):
            calls.append(None)
            return fraction_hash(self)

        counts = []
        for n_steps in (64, 1024):
            path = lift_brownian(d=2, t_final=1.0, n_steps=n_steps, seed=3, mode="strat",
                                 grading=GRADING3)
            monkeypatch.setattr(Fraction, "__hash__", counting)
            calls.clear()
            sol = solve_flow(path, f, 0.2, substeps=4)
            solve_calls = len(calls)
            davie_residual_report(path, f, sol, dyadic_pairs(sol.times, 1, 16))
            counts.append((solve_calls, len(calls) - solve_calls))
            monkeypatch.undo()
        assert counts[0] == counts[1]

    def test_residuals_do_not_move_with_the_time_origin(self):
        # epoch-style times used to shift every pair onto its lower neighbour
        xs = [0.0, 0.3, -0.1, 0.4, 0.2, 0.5, 0.1, -0.2, 0.0]
        rows = []
        for origin in (0.0, 1.7e12):
            path = lift_piecewise_linear([(origin + m, x) for m, x in enumerate(xs)], GRADING2)
            sol = solve_flow(path, cos_field(), 0.3)
            rows.append(davie_residual_report(path, cos_field(), sol, dyadic_pairs(sol.times)).rows)
        assert [r for *_, r in rows[1]] == [r for *_, r in rows[0]]

    def test_dyadic_pairs_structure(self):
        times = (0.0, 0.25, 0.5, 0.75, 1.0)
        got = dyadic_pairs(times)
        assert got == [
            (0.0, 0.25),
            (0.25, 0.5),
            (0.5, 0.75),
            (0.75, 1.0),
            (0.0, 0.5),
            (0.5, 1.0),
            (0.0, 1.0),
        ]

    @pytest.mark.parametrize("min_block", [0, -3])
    def test_dyadic_pairs_refuse_a_block_below_one(self, min_block):
        with pytest.raises(ValueError, match=f"min_block must be >= 1, got {min_block}"):
            dyadic_pairs((0.0, 0.5, 1.0), min_block=min_block)


class TestAlmostFlowDefect:
    def test_composition_defect_rate(self):
        # |μ_{s,t}(y) − μ_{r,t}(μ_{s,r}(y))| over dyadic triples decays with
        # a log-log slope at least the consistency target minus margin
        n = 1 << 8
        path = sine_path(n)
        f = cos_field()
        y0 = 0.3

        def mu(i: int, j: int, y: float) -> float:
            return logode_step(log_element(path.increment_by_index(i, j)), f, y)

        xs, ys = [], []
        for block in (4, 8, 16, 32, 64):
            for i in range(0, n - block + 1, block):
                mid = i + block // 2
                defect = abs(mu(i, i + block, y0) - mu(mid, i + block, mu(i, mid, y0)))
                if defect > 0.0:
                    xs.append(math.log(path.times[i + block] - path.times[i]))
                    ys.append(math.log(defect))
        assert _fit_slope(xs, ys) >= 1.35


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------


def reference_ode_solve(
    f: VectorField,
    driver_derivatives: Sequence[Callable[[float], float]],
    y0: float,
    times: Sequence[float],
) -> np.ndarray:
    """Classical RK4 for dY = f₀(Y)dt + Σ_i f_i(Y)·Ẋ^i(t)dt on the given
    mesh; the driver enters through its time derivatives, one callable per
    space letter."""
    if len(driver_derivatives) != f.d:
        raise ValueError(
            f"need {f.d} driver derivatives (one per space letter), "
            f"got {len(driver_derivatives)}"
        )

    def rhs(t: float, z: float) -> float:
        total = f.derivative(0, 0, z)
        for i, dx in enumerate(driver_derivatives, start=1):
            total += f.derivative(i, 0, z) * dx(t)
        return total

    out = np.empty(len(times), dtype=float)
    out[0] = float(y0)
    y = float(y0)
    for j in range(len(times) - 1):
        t = times[j]
        dt = times[j + 1] - times[j]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(y):
            raise DivergedError(
                f"reference solve left the finite range after t={t}",
                substep=j + 1,
                state=y,
            )
        out[j + 1] = y
    return out


class TestReferenceOde:
    def test_zero_field_constant(self):
        f = VectorField.polynomial([(0,), (0,)])
        got = reference_ode_solve(f, [math.cos], 0.9, [i / 16 for i in range(17)])
        assert list(got) == [0.9] * 17

    def test_linear_closed_form(self):
        a, slope = 0.8, 1.5
        f = VectorField.linear([0.0, a])
        times = [i / 1024 for i in range(1025)]
        got = reference_ode_solve(f, [lambda _t: slope], 2.0, times)
        assert abs(got[-1] - 2.0 * math.exp(a * slope)) <= 1e-10

    def test_halving_self_consistency(self):
        f = cos_field()
        coarse = reference_ode_solve(
            f, [math.cos], 0.3, [i / 1024 for i in range(1025)]
        )
        fine = reference_ode_solve(
            f, [math.cos], 0.3, [i / 2048 for i in range(2049)]
        )
        assert abs(coarse[-1] - fine[-1]) <= 1e-9

    def test_driver_count_validation(self):
        with pytest.raises(ValueError):
            reference_ode_solve(cos_field(), [], 0.3, [0.0, 1.0])

    def test_divergence(self):
        f = VectorField.polynomial([(0,), (0, 0, 1)])
        with pytest.raises(DivergedError):
            reference_ode_solve(
                f, [lambda _t: 1.0], 3.0, [i / 16 for i in range(17)]
            )
