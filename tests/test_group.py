"""Character group: evaluation, composition, exp/log, grid norm."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    FormalSum,
    Grading,
    _star_basis,
    enumerate_populated,
    forest_basis,
    gl_product,
)
from mirpath.grammar import parse_forest, parse_multi_index
from mirpath.group import (
    GradingMismatchError,
    GroupElement,
    InvalidKeyError,
    LieElement,
    OffGridTimeError,
    PrimitivityError,
    RoughPathGrid,
    char_eval,
    chen_compose,
    exp_element,
    identity_character,
    log_element,
    random_character,
    rp_norm,
)
from mirpath.group import _table  # white-box checks
from mirpath.lifts import lift_piecewise_linear

G3 = Grading(max_norm=3, gamma=Fraction(1, 3))


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_char_eval_multiplicative_over_components():
    x = GroupElement(d=2, grading=G3, values={parse_multi_index("z(1,0)", d=2): 2.0})
    assert char_eval(x, parse_forest("z(1,0)*z(1,0)", d=2)) == 4.0
    assert char_eval(x, EMPTY_FOREST) == 1.0


def test_char_eval_zero_character_kills_nonempty_forests():
    x = identity_character(2, G3)
    for f in forest_basis(2, 3):
        assert char_eval(x, f) == (1.0 if f.is_empty else 0.0)


def test_char_eval_rejects_out_of_truncation():
    x = identity_character(2, Grading(max_norm=2, gamma=Fraction(1, 2)))
    with pytest.raises(InvalidKeyError):
        char_eval(x, parse_multi_index("z(1,0)z(1,1)^2", d=2))


def test_char_eval_rejects_unpopulated_key():
    x = identity_character(2, G3)
    with pytest.raises(InvalidKeyError):
        x.value(parse_multi_index("z(1,1)", d=2))


def test_group_element_constructor_validates_keys():
    with pytest.raises(InvalidKeyError):
        GroupElement(d=2, grading=G3, values={parse_multi_index("z(1,1)", d=2): 1.0})
    with pytest.raises(InvalidKeyError):
        GroupElement(d=1, grading=G3, values={parse_multi_index("z(2,0)", d=2): 1.0})


@pytest.mark.parametrize("key, d, message", [
    ("z(1,1)", 2, "key MultiIndex('z(1,1)', d=2) is not populated"),
    ("z(1,0)^3z(1,3)", 2,
     "key MultiIndex('z(1,0)^3z(1,3)', d=2) has degree 4 above truncation 3"),
    ("z(2,0)", 1, "key MultiIndex('z(2,0)', d=2) uses a letter above d=1"),
], ids=["unpopulated", "degree-above-N", "letter-above-d"])
def test_bad_key_after_valid_keys_keeps_its_message(key, d, message):
    # the valid keys take their coordinate slots; the bad one has none and
    # goes through the per-key checks, which name it as before
    values = {mi: 0.5 for mi in enumerate_populated(d, 3)}
    values[parse_multi_index(key, d=2)] = 1.0
    with pytest.raises(InvalidKeyError) as info:
        GroupElement(d=d, grading=G3, values=values)
    assert str(info.value) == message


def test_key_over_a_wider_alphabet_takes_the_per_key_checks():
    # z(1,0) over letters 0..2 is not a d=1 basis key, yet its letters fit:
    # the per-key checks accept it and value() reads it back, as they did
    wide = parse_multi_index("z(1,0)", d=2)
    x = GroupElement(d=1, grading=G3, values={wide: 0.5})
    assert x.value(wide) == 0.5
    assert x.value(parse_multi_index("z(1,0)", d=1)) == 0.0
    with pytest.raises(InvalidKeyError, match="outside the populated basis"):
        x.value(parse_multi_index("z(1,1)", d=2))


def test_chen_identity_is_unit():
    a = random_character(2, G3, _rng(5))
    e = identity_character(2, G3)
    assert chen_compose(e, a) == a
    assert chen_compose(a, e) == a


def test_chen_level_one_additive():
    a = random_character(2, G3, _rng(1))
    b = random_character(2, G3, _rng(2))
    c = chen_compose(a, b)
    for i in (1, 2):
        key = parse_multi_index(f"z({i},0)", d=2)
        assert c.values[key] == pytest.approx(a.values[key] + b.values[key], rel=1e-15)


def test_chen_grading_mismatch_rejected():
    a = identity_character(2, G3)
    b = identity_character(2, Grading(max_norm=2, gamma=Fraction(1, 3)))
    with pytest.raises(GradingMismatchError):
        chen_compose(a, b)


def test_chen_associative_on_random_characters():
    rng = _rng(11)
    for _ in range(8):
        a, b, c = (random_character(2, G3, rng) for _ in range(3))
        lhs = chen_compose(chen_compose(a, b), c)
        rhs = chen_compose(a, chen_compose(b, c))
        for key in lhs.values:
            denom = max(1.0, abs(lhs.values[key]))
            assert abs(lhs.values[key] - rhs.values.get(key, 0.0)) / denom <= 1e-12


def test_exp_log_round_trip_small_batch():
    rng = _rng(3)
    worst = 0.0
    for _ in range(10):
        x = random_character(2, G3, rng)
        back = exp_element(log_element(x))
        for key, v in x.values.items():
            worst = max(worst, abs(v - back.values.get(key, 0.0)) / max(1.0, abs(v)))
    assert worst <= 1e-12


def test_log_of_identity_is_zero():
    lam = log_element(identity_character(2, G3))
    assert lam.values == {}


def test_log_level_one_copies_the_character():
    x = random_character(2, G3, _rng(9))
    lam = log_element(x)
    for i in (0, 1, 2):
        key = parse_multi_index(f"z({i},0)", d=2)
        assert lam.values[key] == x.values[key]


def test_log_output_carries_no_mass_on_larger_forests():
    # recompute the log series over the product table and look at the
    # cardinality ≥ 2 forests directly, instead of trusting log_element
    x = random_character(2, G3, _rng(21))
    t = _table(2, 3)
    y = t.character(x.coords)
    y[0] = 0.0
    acc = np.zeros_like(y)
    power = y
    for n in (1, 2, 3):
        sign = 1.0 if n % 2 else -1.0
        acc = acc + sign * power / n
        power = t.star(power, y)
    for s, f in enumerate(t.basis):
        if f.cardinality() >= 2:
            assert abs(acc[s] / f.symmetry_factor()) <= 1e-12


def test_log_primitivity_guard_is_live():
    x = random_character(2, G3, _rng(2))
    with pytest.raises(PrimitivityError):
        log_element(x, defect_tolerance=0.0)


def test_exp_of_primitive_is_grouplike():
    """exp must send a primitive element to a multiplicative character: the
    embedded coefficient on each forest equals Π values / S(forest)."""
    rng = _rng(13)
    lam = LieElement(
        d=2,
        grading=G3,
        values={
            mi: float(rng.uniform(-1, 1))
            for mi in [
                parse_multi_index("z(1,0)", d=2),
                parse_multi_index("z(2,0)", d=2),
                parse_multi_index("z(0,0)", d=2),
                parse_multi_index("z(1,0)z(2,1)", d=2),
            ]
        },
    )
    x = exp_element(lam)
    # the exp series over the product table, before the read-out
    t = _table(2, 3)
    base = np.zeros(len(t.basis))
    base[t.single] = lam.coords
    acc = power = t.character(np.zeros(len(lam.coords)))
    for fact in (1.0, 2.0, 6.0):
        power = t.star(power, base)
        acc = acc + power / fact
    f = parse_forest("z(1,0)*z(2,0)", d=2)
    expect = (
        x.values[parse_multi_index("z(1,0)", d=2)]
        * x.values[parse_multi_index("z(2,0)", d=2)]
        / f.symmetry_factor()
    )
    assert acc[t.basis.index(f)] / f.symmetry_factor() == pytest.approx(expect, rel=1e-14)
    # and on every forest: the series equals the product of its own values
    assert np.abs(acc - t.character(x.coords)).max() <= 1e-14


# ---------------------------------------------------------------------------
# The product table against the exact Grossman–Larson product
# ---------------------------------------------------------------------------

ORACLE_GRADINGS = [(1, 4), (2, 3), (3, 2)]


@st.composite
def characters(draw, count):
    """``count`` characters sharing one (d, N), values drawn in [−1, 1]."""
    d, n = draw(st.sampled_from(ORACLE_GRADINGS))
    grading = Grading(max_norm=n, gamma=Fraction(1, n + 1))
    keys = enumerate_populated(d, n)
    values = st.lists(st.floats(-1.0, 1.0), min_size=len(keys), max_size=len(keys))
    return [
        GroupElement(d=d, grading=grading, values=dict(zip(keys, draw(values))))
        for _ in range(count)
    ]


def _exact_sum(x: GroupElement) -> FormalSum:
    """Σ X(u)/S(u) · u over the forest basis, in exact rationals."""
    terms = {}
    for u in forest_basis(x.d, x.grading.max_norm):
        c = Fraction(1)
        for comp in u.components:
            c *= Fraction(x.values.get(comp, 0.0))
        terms[u] = c / u.symmetry_factor()
    return FormalSum(terms)


def _assert_close(got: dict, want: dict, rel: float) -> None:
    for key in set(got) | set(want):
        g, w = got.get(key, 0.0), float(want.get(key, 0.0))
        assert abs(g - w) <= rel * max(1.0, abs(w)), key


@settings(max_examples=15, deadline=None)
@given(characters(2))
def test_chen_matches_exact_gl_product(pair):
    a, b = pair
    exact = gl_product(_exact_sum(a), _exact_sum(b), trunc=a.grading.max_norm)
    want = {
        f.components[0]: c * f.symmetry_factor()
        for f, c in exact.items()
        if f.cardinality() == 1
    }
    _assert_close(chen_compose(a, b).values, want, 1e-12)


@settings(max_examples=15, deadline=None)
@given(characters(3))
def test_chen_associative_over_gradings(triple):
    a, b, c = triple
    _assert_close(
        chen_compose(chen_compose(a, b), c).values,
        chen_compose(a, chen_compose(b, c)).values,
        1e-12,
    )


@settings(max_examples=15, deadline=None)
@given(characters(1))
def test_exp_log_round_trip_over_gradings(single_character):
    (x,) = single_character
    _assert_close(exp_element(log_element(x)).values, x.values, 1e-12)


@st.composite
def sparse_mappings(draw):
    """One (d, N) and two mappings over a drawn subset of its populated keys,
    with explicit zeros among the values."""
    d, n = draw(st.sampled_from(ORACLE_GRADINGS))
    grading = Grading(max_norm=n, gamma=Fraction(1, n + 1))
    keys = enumerate_populated(d, n)
    value = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))

    def mapping():
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        return {key: draw(value) for key in chosen}

    return d, grading, mapping(), mapping()


def _lists_its_nonzero_coordinates(x) -> bool:
    keys = enumerate_populated(x.d, x.grading.max_norm)
    return dict(x.values) == {k: x.value(k) for k in keys if x.value(k) != 0.0}


@settings(max_examples=30, deadline=None)
@given(sparse_mappings())
def test_values_view_keeps_given_keys_and_lists_computed_nonzeros(case):
    d, grading, m1, m2 = case
    x = GroupElement(d=d, grading=grading, values=m1)
    lam = LieElement(d=d, grading=grading, values=m2)
    # the checked constructor keeps exactly the given keys, zeros included
    assert list(x.values.items()) == list(m1.items())
    assert list(lam.values.items()) == list(m2.items())
    assert all(x.value(k) == v for k, v in m1.items())
    with pytest.raises(TypeError):
        x.values[next(iter(enumerate_populated(d, grading.max_norm)))] = 1.0
    assert not x.coords.flags.writeable
    with pytest.raises(AttributeError):
        x.d = d + 1
    back = pickle.loads(pickle.dumps(lam))
    assert back == lam and list(back.values.items()) == list(m2.items())
    # computed elements list their nonzero coordinates and nothing else
    y = GroupElement(d=d, grading=grading, values=m2)
    for out in (chen_compose(x, y), exp_element(lam), log_element(x)):
        assert _lists_its_nonzero_coordinates(out)


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_table_constants_round_like_their_fractions(d, n):
    # the exact structure constants are ints, so the table divides ints;
    # that must round exactly as the Fraction c·S(w)/(S(u)·S(v)) does
    t = _table(d, n)
    for i, j, k, got in zip(t.i, t.j, t.k, t.coeff):
        u, v, w = t.basis[i], t.basis[j], t.basis[k]
        c = _star_basis(u, v).coefficient(w)
        want = float(
            Fraction(c * w.symmetry_factor(), u.symmetry_factor() * v.symmetry_factor())
        )
        assert got == want, (u, v, w)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def _constant_grid(values_list, grading=G3, d=2):
    times = tuple(float(j) / len(values_list) for j in range(len(values_list) + 1))
    incs = tuple(GroupElement(d=d, grading=grading, values=v) for v in values_list)
    return RoughPathGrid(d=d, grading=grading, times=times, increments=incs)


def test_grid_validation():
    inc = identity_character(2, G3)
    with pytest.raises(ValueError):
        RoughPathGrid(d=2, grading=G3, times=(0.0,), increments=())
    with pytest.raises(ValueError):
        RoughPathGrid(d=2, grading=G3, times=(0.0, 0.0), increments=(inc,))
    with pytest.raises(ValueError):
        RoughPathGrid(d=2, grading=G3, times=(0.0, 1.0), increments=())


def test_grid_off_grid_time_rejected():
    grid = _constant_grid([{}, {}, {}, {}])
    with pytest.raises(OffGridTimeError):
        grid.increment_between(0.0, 0.3)


def test_grid_composition_bracketing_independent():
    rng = _rng(17)
    grid = _constant_grid([random_character(2, G3, rng).values for _ in range(4)])
    full = grid.increment_by_index(0, 4)
    left = chen_compose(
        chen_compose(grid.increment_by_index(0, 2), grid.increments[2]),
        grid.increments[3],
    )
    for key, v in full.values.items():
        assert abs(v - left.values.get(key, 0.0)) <= 1e-12 * max(1.0, abs(v))


def test_rp_norm_zero_rough_path():
    grid = _constant_grid([{}, {}, {}, {}])
    assert rp_norm(grid) == 0.0


def test_rp_norm_linear_path_reaches_level_one_slope():
    g = Grading(max_norm=2, gamma=Fraction(1, 2))
    samples = [(j / 4.0, j / 4.0) for j in range(5)]
    grid = lift_piecewise_linear(samples, g)
    assert rp_norm(grid) >= 1.0


def test_rp_norm_level_one_homogeneity():
    g = Grading(max_norm=1, gamma=Fraction(1, 2))
    base = rp_norm(lift_piecewise_linear([(j / 4.0, 5.0 * j / 4.0) for j in range(5)], g))
    for lam in (2.0, 4.0):
        scaled = rp_norm(
            lift_piecewise_linear([(j / 4.0, lam * 5.0 * j / 4.0) for j in range(5)], g)
        )
        assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_log_norm_comparable_with_path_norm():
    """Finite two-sided ratio between the increment norm and the norm of the
    log-coordinates over a fixed family of lifted paths."""
    g = Grading(max_norm=2, gamma=Fraction(1, 2))
    ratios = []
    for slope in (0.5, 1.0, 3.0):
        samples = [(j / 4.0, slope * j / 4.0, math.sin(slope * j) / 3.0) for j in range(5)]
        grid = lift_piecewise_linear(samples, g)
        x_norm = rp_norm(grid)
        lam_norm = 0.0
        n = len(grid.times)
        for i in range(n - 1):
            for j in range(i + 1, n):
                lam = log_element(grid.increment_by_index(i, j))
                dt = grid.times[j] - grid.times[i]
                for key, v in lam.values.items():
                    if v == 0.0:
                        continue
                    gdeg = float(key.gamma_degree(g.gamma))
                    lam_norm = max(lam_norm, (abs(v) / dt**gdeg) ** (1.0 / key.degree()))
        assert x_norm > 0.0 and lam_norm > 0.0
        ratios.append(lam_norm / x_norm)
    assert all(1e-3 <= r <= 1e3 for r in ratios)
