"""Character group: evaluation, composition, exp/log, grid norm."""

from __future__ import annotations

import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    Forest,
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
    RoughPathGrid,
    chen_compose,
    exp_element,
    identity_character,
    log_element,
    random_character,
)
from mirpath.group import _key_index, _table  # white-box checks

G3 = Grading(max_norm=3, gamma=Fraction(1, 3))


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_table_character_multiplicative_over_components():
    x = GroupElement(d=2, grading=G3, values={parse_multi_index("z(1,0)", d=2): 2.0})
    t = _table(2, 3)
    phi = t.character(x.coords)
    assert phi[t.basis.index(parse_forest("z(1,0)*z(1,0)", d=2))] == 4.0
    assert phi[t.basis.index(EMPTY_FOREST)] == 1.0


def test_element_equals_no_other_type():
    x = identity_character(2, G3)
    assert (x == 1) is False and x != 1


def test_table_character_of_identity_kills_nonempty_forests():
    t = _table(2, 3)
    phi = t.character(identity_character(2, G3).coords)
    for f, v in zip(t.basis, phi):
        assert v == (1.0 if f.is_empty else 0.0)


def test_value_rejects_unpopulated_key():
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


@pytest.mark.parametrize("key_d, d", [(2, 1), (1, 2)], ids=["wider", "narrower"])
def test_key_over_another_alphabet_is_refused(key_d, d):
    # z(1,0) fits both alphabets, yet it is a basis key of only one of them:
    # it used to pass the checks, take no slot and leave the element zero
    key = parse_multi_index("z(1,0)", d=key_d)
    message = f"key {key!r} is over letters 0..{key_d}, not over 0..{d}"
    with pytest.raises(InvalidKeyError, match=f"^{re.escape(message)}$"):
        GroupElement(d=d, grading=G3, values={key: 0.5})
    with pytest.raises(InvalidKeyError, match=f"^{re.escape(message)}$"):
        identity_character(d, G3).value(key)


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
        for key in enumerate_populated(2, G3.max_norm):
            denom = max(1.0, abs(lhs.value(key)))
            assert abs(lhs.value(key) - rhs.value(key)) / denom <= 1e-12


def test_exp_log_round_trip_small_batch():
    rng = _rng(3)
    worst = 0.0
    for _ in range(10):
        x = random_character(2, G3, rng)
        back = exp_element(log_element(x))
        for key in enumerate_populated(2, G3.max_norm):
            v = x.value(key)
            worst = max(worst, abs(v - back.value(key)) / max(1.0, abs(v)))
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


def _full_product(d, n):
    """The truncated product over the whole forest basis, as rows
    (u, v, w, c·S(w)/(S(u)·S(v))) in (u, v) basis order, each constant an
    exact Fraction."""
    basis = forest_basis(d, n)
    return [
        (u, v, w, Fraction(c * w.symmetry_factor(), u.symmetry_factor() * v.symmetry_factor()))
        for u in basis
        for v in basis
        if u.degree() + v.degree() <= n
        for w, c in _star_basis(u, v).items()
    ]


def _full_star(d, n):
    """The float product of two vectors over ``forest_basis(d, n)``, built
    from :func:`_full_product` and not from the group's table."""
    slot = {u: s for s, u in enumerate(forest_basis(d, n))}
    rows = [(slot[u], slot[v], slot[w], float(c)) for u, v, w, c in _full_product(d, n)]
    i, j, k, coeff = (np.array(col) for col in zip(*rows))
    return lambda a, b: np.bincount(k, weights=a[i] * b[j] * coeff, minlength=len(slot))


def _forest_values(x) -> np.ndarray:
    """Π X(components of u) over ``forest_basis``, 1 on ∅."""
    return np.array([
        float(np.prod([x.value(c) for c in u.components]))
        for u in forest_basis(x.d, x.grading.max_norm)
    ])


def test_log_output_carries_no_mass_on_larger_forests():
    # the log series over the whole product, as right powers: no mass on
    # the forests of two or more components, and log_element's left powers
    # over single multi-indices give the rest of it
    x = random_character(2, G3, _rng(21))
    star = _full_star(2, 3)
    y = _forest_values(x)
    y[0] = 0.0
    acc = np.zeros_like(y)
    power = y
    for n in (1, 2, 3):
        sign = 1.0 if n % 2 else -1.0
        acc = acc + sign * power / n
        power = star(power, y)
    basis = forest_basis(2, 3)
    for s, f in enumerate(basis):
        if f.cardinality() >= 2:
            assert abs(acc[s] / f.symmetry_factor()) <= 1e-12
    single = [s for s, f in enumerate(basis) if f.cardinality() == 1]
    assert np.abs(acc[single] - log_element(x).coords).max() <= 1e-14


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
    # the exp series over the whole product, as right powers
    star = _full_star(2, 3)
    basis = forest_basis(2, 3)
    base = np.zeros(len(basis))
    base[[s for s, f in enumerate(basis) if f.cardinality() == 1]] = lam.coords
    acc = power = _forest_values(identity_character(2, G3))
    for fact in (1.0, 2.0, 6.0):
        power = star(power, base)
        acc = acc + power / fact
    f = parse_forest("z(1,0)*z(2,0)", d=2)
    expect = (
        x.values[parse_multi_index("z(1,0)", d=2)]
        * x.values[parse_multi_index("z(2,0)", d=2)]
        / f.symmetry_factor()
    )
    assert acc[basis.index(f)] / f.symmetry_factor() == pytest.approx(expect, rel=1e-14)
    # and on every forest: the series equals the product of its own values
    assert np.abs(acc - _forest_values(x)).max() <= 1e-14


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
    # a basis product has the degree of its two factors together, so the
    # pairs above the truncation are the terms the group product drops
    left, right = _exact_sum(a), _exact_sum(b)
    exact = FormalSum.linear(
        (gl_product(u, v), cu * cv)
        for u, cu in left.items()
        for v, cv in right.items()
        if u.degree() + v.degree() <= a.grading.max_norm
    )
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
    keys = sorted(
        enumerate_populated(x.d, x.grading.max_norm), key=lambda mi: (mi.degree(), mi.entries)
    )
    want = [(k, x.value(k)) for k in keys if x.value(k) != 0.0]
    return list(x.values.items()) == want


@settings(max_examples=30, deadline=None)
@given(sparse_mappings())
def test_values_view_lists_the_nonzero_coordinates(case):
    d, grading, m1, m2 = case
    x = GroupElement(d=d, grading=grading, values=m1)
    lam = LieElement(d=d, grading=grading, values=m2)
    # one meaning for checked and computed elements alike: the nonzero
    # coordinates by key, in slot order; a given zero is not listed
    assert dict(x.values) == {k: v for k, v in m1.items() if v != 0.0}
    assert dict(lam.values) == {k: v for k, v in m2.items() if v != 0.0}
    assert all(x.value(k) == v for k, v in m1.items())
    with pytest.raises(TypeError):
        x.values[next(iter(enumerate_populated(d, grading.max_norm)))] = 1.0
    with pytest.raises(TypeError):
        x.coords[0] = 1.0
    with pytest.raises(AttributeError):
        x.d = d + 1
    back = pickle.loads(pickle.dumps(lam))
    assert back == lam and list(back.values.items()) == list(lam.values.items())
    y = GroupElement(d=d, grading=grading, values=m2)
    for out in (x, lam, back, chen_compose(x, y), exp_element(lam), log_element(x)):
        assert _lists_its_nonzero_coordinates(out)


def _row_factors(d, n):
    """The forests that the table's i, j and k index: the forest basis; the
    single multi-indices by coords position, then ∅; the same without ∅."""
    keys = [Forest([key]) for key in _key_index(d, n)]
    return forest_basis(d, n), [*keys, EMPTY_FOREST], keys


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3), (2, 4), (3, 3), (4, 3)])
def test_table_holds_the_product_rows_that_land_on_one_multi_index(d, n):
    t = _table(d, n)
    left, right, out = _row_factors(d, n)
    got = [(left[i], right[j], out[k]) for i, j, k, _coeff in t.rows]
    want = [(u, v, w) for u, v, w, _c in _full_product(d, n) if w.cardinality() == 1]
    assert got == want


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3), (2, 4), (3, 3)])
def test_table_constants_round_like_their_fractions(d, n):
    # the exact structure constants are ints, so the table divides ints;
    # that must round exactly as the Fraction c·S(w)/(S(u)·S(v)) does
    t = _table(d, n)
    left, right, out = _row_factors(d, n)
    for i, j, k, got in t.rows:
        u, v, w = left[i], right[j], out[k]
        c = _star_basis(u, v).coefficient(w)
        want = float(
            Fraction(c * w.symmetry_factor(), u.symmetry_factor() * v.symmetry_factor())
        )
        assert got == want, (u, v, w)


def _bincount_product(d, n):
    """The table's two functions over numpy columns of its rows: gather the
    forest values, then accumulate each row's weight φ(u)·ψ(v)·coeff into
    its output slot with ``np.bincount``, which adds in row order."""
    t = _table(d, n)
    position = _key_index(d, n)
    components = np.full((len(t.basis), n), len(position))
    for s, u in enumerate(t.basis):
        components[s, : u.cardinality()] = [position[c] for c in u.components]
    i, j, k, coeff = (np.array(col) for col in zip(*t.rows))

    def character(coords):
        return np.append(coords, 1.0)[components].prod(axis=1)

    def star(phi, coords, unit):
        weights = phi[i] * np.append(coords, unit)[j] * coeff
        return np.bincount(k, weights=weights, minlength=len(coords))

    return character, star


def _bincount_series(star, left, first, divisors):
    acc = np.zeros_like(first)
    power = first
    for m, divisor in enumerate(divisors):
        if m:
            power = star(left, power, 0.0)
        acc = acc + power / divisor
    return acc


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3), (2, 4), (3, 3), (4, 3)])
def test_compiled_product_is_bit_identical_to_the_bincount_product(d, n):
    # the straight-line kernel adds 0.0 + Σ φ(u)·ψ(v)·coeff per output in
    # row order, which is how np.bincount accumulates: the same bits
    character, star = _bincount_product(d, n)
    t = _table(d, n)
    grading = Grading(max_norm=n, gamma=Fraction(1, n + 1))
    rng = _rng(10 * d + n)
    for _ in range(25):
        a = random_character(d, grading, rng)
        b = random_character(d, grading, rng)
        x, y = np.array(a.coords), np.array(b.coords)
        assert np.array(t.character(a.coords)).tobytes() == character(x).tobytes()
        want = star(character(x), y, 1.0)
        assert np.array(chen_compose(a, b).coords).tobytes() == want.tobytes()
        left = character(x)
        left[0] = 0.0
        want = _bincount_series(star, left, x, [m if m % 2 else -m for m in range(1, n + 1)])
        lam = log_element(a)
        assert np.array(lam.coords).tobytes() == want.tobytes()
        left = np.zeros(len(t.basis))
        left[list(t.single)] = lam.coords
        divisors = [math.factorial(m) for m in range(1, n + 1)]
        want = _bincount_series(star, left, np.array(lam.coords), divisors)
        assert np.array(exp_element(lam).coords).tobytes() == want.tobytes()


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
    other = identity_character(2, Grading(max_norm=2, gamma=Fraction(1, 3)))
    message = "^increment grading differs from grid grading$"
    with pytest.raises(GradingMismatchError, match=message):
        RoughPathGrid(d=2, grading=G3, times=(0.0, 1.0), increments=(other,))


def test_grid_attributes_cannot_be_assigned():
    grid = _constant_grid([{}])
    with pytest.raises(AttributeError, match="^RoughPathGrid is immutable$"):
        grid.times = (0.0, 2.0)


def test_grid_refuses_a_non_finite_value_or_time():
    key = parse_multi_index("z(2,0)", d=2)
    message = "grid value on segment 1 (t = 0.5 .. 1.0) is not finite"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _constant_grid([{}, {key: value}])
    inc = identity_character(2, G3)
    message = "grid times must be finite numbers, but time 2 is inf"
    with pytest.raises(ValueError, match=f"^{message}$"):
        RoughPathGrid(d=2, grading=G3, times=(0.0, 1.0, float("inf")), increments=(inc, inc))


def test_grid_keeps_finite_values_whose_sum_leaves_the_float_range():
    # a row is summed first, and checked term by term when the sum is not finite
    one, two = parse_multi_index("z(1,0)", d=2), parse_multi_index("z(2,0)", d=2)
    grid = _constant_grid([{}, {one: 1e308, two: 1e308}])
    assert grid.increments[1].values == {one: 1e308, two: 1e308}


def test_grid_off_grid_time_rejected():
    grid = _constant_grid([{}, {}, {}, {}])
    with pytest.raises(OffGridTimeError):
        grid.index_of(0.3)


@pytest.mark.parametrize("origin", [0.0, 1.7e12, -3.25e9])
def test_every_grid_time_finds_its_own_point(origin):
    # at 1.7e12 neighbours one apart are equal up to rel 1e-12, and the
    # lower one used to be returned for the upper one's time as well
    times = tuple(origin + m for m in range(9))
    inc = identity_character(2, G3)
    grid = RoughPathGrid(d=2, grading=G3, times=times, increments=(inc,) * 8)
    assert [grid.index_of(t) for t in times] == list(range(9))


def test_a_time_between_two_matching_points_takes_the_nearer():
    times = (1.7e12, 1.7e12 + 1, 1.7e12 + 2)
    inc = identity_character(2, G3)
    grid = RoughPathGrid(d=2, grading=G3, times=times, increments=(inc, inc))
    assert grid.index_of(1.7e12 + 0.25) == 0
    assert grid.index_of(1.7e12 + 0.75) == 1
    assert grid.index_of(1.7e12 + 0.5) == 0  # a tie goes to the lower point
    assert grid.index_of(1.7e12 + 1.5) == 1


def test_grid_composition_bracketing_independent():
    rng = _rng(17)
    grid = _constant_grid([random_character(2, G3, rng).values for _ in range(4)])
    full = grid.increment_by_index(0, 4)
    left = chen_compose(
        chen_compose(grid.increment_by_index(0, 2), grid.increments[2]),
        grid.increments[3],
    )
    for key in enumerate_populated(2, G3.max_norm):
        v = full.value(key)
        assert abs(v - left.value(key)) <= 1e-12 * max(1.0, abs(v))


def test_increment_past_the_last_time_is_refused():
    grid = _constant_grid([{}, {}, {}])
    with pytest.raises(ValueError, match=re.escape("index pair (0,4) out of range")):
        grid.increment_by_index(0, len(grid.times))
