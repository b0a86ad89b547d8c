"""Exact identities of the multi-index algebra.

Independent oracles used here:

* a sympy polynomial model — variables z(i,k) become commuting symbols and
  the raising derivation becomes the first-order differential operator
  Σ x_{i,k+1} ∂/∂x_{i,k}, so grafting products can be recomputed by symbolic
  differentiation with none of the package's combinatorics involved;
* a brute-force enumerator of frequency maps for the populated bases.

Everything is checked as exact rational equality; no tolerances appear in
this file.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    Grading,
    MultiIndex,
    _distribute,
    _graft_slot,
    _plan,
    _spreads,
    derivation_d,
    deshuffle,
    enumerate_populated,
    forest_basis,
    gl_product,
    graft_simultaneous,
    pairing,
    prelie_graft,
)
from mirpath.grammar import (
    format_formal_sum,
    parse_forest,
    parse_formal_sum,
    parse_multi_index,
)

# ---------------------------------------------------------------------------
# Oracle 1: symbolic-differentiation model of the raising derivation
# ---------------------------------------------------------------------------

_SYMBOLS: dict[tuple[int, int], sympy.Symbol] = {}


def _symbol(i: int, k: int) -> sympy.Symbol:
    s = _SYMBOLS.get((i, k))
    if s is None:
        s = sympy.Symbol(f"x_{i}_{k}")
        _SYMBOLS[(i, k)] = s
    return s


def mi_to_expr(mi: MultiIndex) -> sympy.Expr:
    e = sympy.Integer(1)
    for (i, k), m in mi.entries:
        e *= _symbol(i, k) ** m
    return e


def oracle_derive(expr: sympy.Expr, d: int, max_arity: int) -> sympy.Expr:
    out = sympy.Integer(0)
    for k in range(max_arity + 1):
        for i in range(d + 1):
            out += _symbol(i, k + 1) * sympy.diff(expr, _symbol(i, k))
    return sympy.expand(out)


def expr_to_sum(expr: sympy.Expr, d: int) -> FormalSum:
    expr = sympy.expand(expr)
    out: dict[MultiIndex, Fraction] = {}
    if expr == 0:
        return FormalSum(out)
    for term in sympy.Add.make_args(expr):
        coeff, rest = term.as_coeff_Mul()
        entries: dict[tuple[int, int], int] = {}
        for factor in sympy.Mul.make_args(rest):
            base, exp = factor.as_base_exp()
            _, i, k = base.name.split("_")
            entries[(int(i), int(k))] = int(exp)
        mi = MultiIndex(entries, d + 1)
        p, q = coeff.as_numer_denom()
        out[mi] = out.get(mi, Fraction(0)) + Fraction(int(p), int(q))
    return FormalSum(out)


def max_arity_of(mi: MultiIndex) -> int:
    return max((k for (_, k), _ in mi.entries), default=0)


def oracle_graft_onto_single(parts: list[MultiIndex], target: MultiIndex, d: int) -> FormalSum:
    """(Π parts) · Dⁿ target, computed entirely in sympy."""
    expr = mi_to_expr(target)
    ceiling = max_arity_of(target) + len(parts)
    for _ in parts:
        expr = oracle_derive(expr, d, ceiling)
    for p in parts:
        expr *= mi_to_expr(p)
    return expr_to_sum(expr, d)


# ---------------------------------------------------------------------------
# Oracle 2: naive populated-basis generator
# ---------------------------------------------------------------------------


def naive_populated(d: int, max_degree: int) -> set[MultiIndex]:
    variables = [(i, k) for i in range(d + 1) for k in range(max(0, max_degree))]
    found: set[MultiIndex] = set()
    for n in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, n):
            entries: dict[tuple[int, int], int] = {}
            for v in combo:
                entries[v] = entries.get(v, 0) + 1
            mi = MultiIndex(entries, d + 1)
            if mi.is_populated():
                found.add(mi)
    return found


# ---------------------------------------------------------------------------
# The raising derivation
# ---------------------------------------------------------------------------


def test_derivation_of_single_variable():
    assert derivation_d(parse_multi_index("z(1,0)")) == FormalSum.of(
        parse_multi_index("z(1,1)")
    )


def test_derivation_hand_expansion():
    out = derivation_d(parse_multi_index("z(1,0)z(1,1)"))
    assert out == parse_formal_sum("+(1) z(1,1)^2 +(1) z(1,0)z(1,2)").map_terms(
        lambda f: FormalSum.of(f.components[0])
    )


def test_derivation_annihilates_empty_forest():
    assert derivation_d(EMPTY_FOREST) == FormalSum.zero()


def test_derivation_carries_frequency_multiplicity():
    # two interchangeable copies of z(1,0) ⇒ coefficient 2
    out = derivation_d(parse_multi_index("z(1,0)^2"))
    assert out == FormalSum.of(parse_multi_index("z(1,0)z(1,1)"), 2)


@pytest.mark.parametrize("text", ["z(1,0)^3", "z(0,0)z(1,1)^2", "z(1,0)z(2,0)z(1,2)"])
def test_derivation_matches_symbolic_oracle(text):
    mi = parse_multi_index(text, d=2)
    got = derivation_d(mi)
    want = expr_to_sum(oracle_derive(mi_to_expr(mi), 2, max_arity_of(mi)), 2)
    assert got == want


@given(st.sampled_from(enumerate_populated(2, 4)))
def test_derivation_preserves_degree_and_drops_population_count(mi):
    for term, _ in derivation_d(mi).items():
        assert term.degree() == mi.degree()
        assert term.population_count() == mi.population_count() - 1


def test_derivation_leibniz_over_forest_components():
    f = parse_forest("z(1,0)*z(1,0)")
    out = derivation_d(f)
    assert out == FormalSum.of(parse_forest("z(1,0)*z(1,1)"), 2)


# ---------------------------------------------------------------------------
# Grafting products
# ---------------------------------------------------------------------------


def test_graft_single_copies_the_derivation():
    a = parse_multi_index("z(1,0)")
    assert prelie_graft(a, a) == FormalSum.of(parse_multi_index("z(1,0)z(1,1)"))


def test_graft_hand_expansion():
    a = parse_multi_index("z(1,0)")
    b = parse_multi_index("z(1,0)z(1,1)")
    want = {
        parse_multi_index("z(1,0)z(1,1)^2"): Fraction(1),
        parse_multi_index("z(1,0)^2z(1,2)"): Fraction(1),
    }
    assert prelie_graft(a, b) == FormalSum(want)


def test_graft_time_variable():
    out = prelie_graft(parse_multi_index("z(0,0)"), parse_multi_index("z(1,0)", d=1))
    assert out == FormalSum.of(parse_multi_index("z(0,0)z(1,1)"))


def test_graft_output_terms_populated_with_summed_degree():
    basis = enumerate_populated(2, 3)
    for a, b in itertools.product(basis[:10], basis[:10]):
        for term, _ in prelie_graft(a, b).items():
            assert term.is_populated()
            assert term.degree() == a.degree() + b.degree()


def _graft_mi(a: MultiIndex, b: MultiIndex) -> FormalSum:
    return prelie_graft(a, b)


def _compose(p: FormalSum, b_or_sum) -> FormalSum:
    """Left-linear extension of ▷ for the identity checks."""
    out = FormalSum.zero()
    if isinstance(b_or_sum, MultiIndex):
        b_or_sum = FormalSum.of(b_or_sum)
    for x, cx in p.items():
        for y, cy in b_or_sum.items():
            out = out + prelie_graft(x, y).scale(cx * cy)
    return out


def _prelie_defect(a, b, c) -> FormalSum:
    # (a▷b)▷c − a▷(b▷c), the associator
    return _compose(_graft_mi(a, b), c) - _compose(FormalSum.of(a), _graft_mi(b, c))


DEG2_BASIS = enumerate_populated(2, 2)
DEG3_BASIS = enumerate_populated(2, 3)


def test_prelie_identity_exhaustive_low_degree():
    """Associator symmetric in the first two slots, all degree ≤ 2 triples."""
    for a, b, c in itertools.product(DEG2_BASIS, repeat=3):
        assert _prelie_defect(a, b, c) == _prelie_defect(b, a, c)


def test_right_nap_identity_exhaustive_low_degree():
    # (a▷c)▷b − ... : grafting twice into the same target commutes
    for a, b, c in itertools.product(DEG2_BASIS, repeat=3):
        lhs = _compose(_graft_mi(b, c), a) - _compose(FormalSum.of(b), _graft_mi(a, c))
        rhs = _compose(_graft_mi(a, c), b) - _compose(FormalSum.of(a), _graft_mi(b, c))
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DEG3_BASIS),
    st.sampled_from(DEG3_BASIS),
    st.sampled_from(DEG3_BASIS),
)
def test_prelie_and_nap_identities_sampled_degree_three(a, b, c):
    assert _prelie_defect(a, b, c) == _prelie_defect(b, a, c)
    lhs = _compose(_graft_mi(b, c), a) - _compose(FormalSum.of(b), _graft_mi(a, c))
    rhs = _compose(_graft_mi(a, c), b) - _compose(FormalSum.of(a), _graft_mi(b, c))
    assert lhs == rhs


def test_simultaneous_graft_identity_clauses():
    g = parse_forest("z(1,0)*z(1,0)z(1,1)")
    assert graft_simultaneous(EMPTY_FOREST, g) == FormalSum.of(g)
    assert graft_simultaneous(g, EMPTY_FOREST) == FormalSum.of(g)


def test_simultaneous_graft_single_part_reduces_to_plain_graft():
    a = parse_forest("z(1,0)")
    out = graft_simultaneous(a, a)
    assert out == FormalSum.of(parse_forest("z(1,0)z(1,1)"))


def test_simultaneous_graft_two_parts_one_target():
    # both copies land on the single target: (z(1,0))² · D² z(1,0)
    left = parse_forest("z(1,0)*z(1,0)")
    right = parse_forest("z(1,0)")
    got = graft_simultaneous(left, right)
    a = parse_multi_index("z(1,0)")
    want_mi = oracle_graft_onto_single([a, a], a, 1)
    want = FormalSum({Forest([mi]): c for mi, c in want_mi.items()})
    assert got == want
    assert got == FormalSum.of(parse_forest("z(1,0)^2z(1,2)"))


def test_simultaneous_graft_splits_over_a_two_component_target():
    # two parts, two targets: 4 assignments, recomputed via the symbolic model
    p1 = parse_multi_index("z(1,0)", d=2)
    p2 = parse_multi_index("z(2,0)", d=2)
    t1 = parse_multi_index("z(1,0)", d=2)
    t2 = parse_multi_index("z(1,0)z(1,1)", d=2)
    got = graft_simultaneous(Forest([p1, p2]), Forest([t1, t2]))
    want = FormalSum.zero()
    for assign in itertools.product((0, 1), repeat=2):
        buckets: list[list[MultiIndex]] = [[], []]
        buckets[assign[0]].append(p1)
        buckets[assign[1]].append(p2)
        s1 = oracle_graft_onto_single(buckets[0], t1, 2)
        s2 = oracle_graft_onto_single(buckets[1], t2, 2)
        for m1, c1 in s1.items():
            for m2, c2 in s2.items():
                want = want + FormalSum.of(Forest([m1, m2]), c1 * c2)
    assert got == want


# ---------------------------------------------------------------------------
# Deshuffle
# ---------------------------------------------------------------------------


def _tensor(f: Forest, g: Forest) -> tuple[Forest, Forest]:
    return (f, g)


def test_deshuffle_primitive_on_multi_indices():
    a = parse_forest("z(1,0)")
    assert deshuffle(a) == FormalSum(
        {_tensor(EMPTY_FOREST, a): 1, _tensor(a, EMPTY_FOREST): 1}
    )


def test_deshuffle_of_unit():
    assert deshuffle(EMPTY_FOREST) == FormalSum.of(_tensor(EMPTY_FOREST, EMPTY_FOREST))


def test_deshuffle_two_distinct_components_gives_four_terms():
    f = parse_forest("z(1,0)*z(0,0)")
    out = deshuffle(f)
    assert len(out.terms) == 4
    assert all(c == 1 for _, c in out.items())
    for (left, right), _ in out.items():
        assert left.merge(right) == f


def test_deshuffle_repeated_component_binomial_weight():
    f = parse_forest("z(1,0)*z(1,0)")
    a = parse_forest("z(1,0)")
    assert deshuffle(f) == FormalSum(
        {_tensor(EMPTY_FOREST, f): 1, _tensor(a, a): 2, _tensor(f, EMPTY_FOREST): 1}
    )


def _deshuffle_sum(s: FormalSum) -> FormalSum:
    return s.map_terms(deshuffle)


def test_deshuffle_coassociative_and_cocommutative_low_degree():
    for f in forest_basis(2, 3):
        delta = deshuffle(f)
        left = FormalSum.zero()
        right = FormalSum.zero()
        flipped = FormalSum.zero()
        for (x, y), c in delta.items():
            for (x1, x2), c1 in deshuffle(x).items():
                left = left + FormalSum.of((x1, x2, y), c * c1)
            for (y1, y2), c2 in deshuffle(y).items():
                right = right + FormalSum.of((x, y1, y2), c * c2)
            flipped = flipped + FormalSum.of((y, x), c)
        assert left == right
        assert flipped == delta


@given(st.sampled_from(forest_basis(2, 4)))
@settings(max_examples=50, deadline=None)
def test_deshuffle_split_count_before_merging(f):
    total = sum(c for _, c in deshuffle(f).items())
    assert total == 2 ** f.cardinality()


# ---------------------------------------------------------------------------
# The associative product on forests
# ---------------------------------------------------------------------------


def test_product_of_two_singletons():
    a = parse_forest("z(1,0)")
    out = gl_product(a, a)
    assert out == parse_formal_sum("+(1) z(1,0)z(1,1) +(1) z(1,0)*z(1,0)")


def test_product_units():
    for f in forest_basis(2, 5)[:200]:
        assert gl_product(EMPTY_FOREST, f) == FormalSum.of(f)
        assert gl_product(f, EMPTY_FOREST) == FormalSum.of(f)


def test_product_associative_on_singleton_cube():
    a = parse_forest("z(1,0)")
    lhs = gl_product(gl_product(a, a), a)
    rhs = gl_product(a, gl_product(a, a))
    assert lhs == rhs
    # frozen expansion, derived once by hand and once by the symbolic oracle
    assert lhs == parse_formal_sum(
        "+(1) z(1,0)^2z(1,2) +(1) z(1,0)z(1,1)^2 "
        "+(3) z(1,0)*z(1,0)z(1,1) +(1) z(1,0)*z(1,0)*z(1,0)"
    )


FOREST3 = [f for f in forest_basis(2, 3) if not f.is_empty]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOREST3), st.sampled_from(FOREST3), st.sampled_from(FOREST3))
def test_product_associative_sampled(u, v, w):
    assert gl_product(gl_product(u, v), w) == gl_product(u, gl_product(v, w))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOREST3), st.sampled_from(FOREST3))
def test_product_degree_homogeneous_and_populated(u, v):
    out = gl_product(u, v)
    assert out
    for f, _ in out.items():
        assert f.degree() == u.degree() + v.degree()
        assert all(c.is_populated() for c in f.components)


def _star_by_deshuffle(u: Forest, v: Forest) -> FormalSum:
    """The Grossman–Larson product of two basis forests by its definition:
    Σ over the splits (kept, grafted) of Δu of kept times the simultaneous
    graft of grafted onto v, with ∅ as the right unit."""
    if v.is_empty:
        return FormalSum.of(u)
    out: dict = {}
    for (kept, grafted), split in deshuffle(u).items():
        for forest, c in graft_simultaneous(grafted, v).items():
            key = kept.merge(forest)
            out[key] = out.get(key, 0) + split * c
    return FormalSum(out)


def test_product_matches_its_deshuffle_definition_on_every_basis_pair():
    basis = forest_basis(2, 3)
    for u, v in itertools.product(basis, repeat=2):
        assert gl_product(u, v) == _star_by_deshuffle(u, v), (u, v)


# 80 drawn pairs per grid, each product of degree at most 10 (d=1) or 8 (d=2)
FOREST15 = forest_basis(1, 5)
FOREST24 = forest_basis(2, 4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOREST15), st.sampled_from(FOREST15))
def test_product_matches_its_deshuffle_definition_sampled_d1_degree5(u, v):
    assert gl_product(u, v) == _star_by_deshuffle(u, v)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOREST24), st.sampled_from(FOREST24))
def test_product_matches_its_deshuffle_definition_sampled_d2_degree4(u, v):
    assert gl_product(u, v) == _star_by_deshuffle(u, v)


def test_spread_table_counts_every_assignment_once():
    # r distinguishable parts have slots**r assignments to slots; each pick
    # is one multiset of slots, listed once in nondecreasing order
    for r, slots in itertools.product(range(5), range(6)):
        spreads = _spreads(r, slots)
        picks = [pick for pick, _ways in spreads]
        assert sum(ways for _pick, ways in spreads) == slots**r, (r, slots)
        assert all(len(pick) == r and list(pick) == sorted(pick) for pick in picks)
        assert all(0 <= slot < slots for pick in picks for slot in pick)
        assert len(set(picks)) == len(picks), (r, slots)
    # a plan lists every assignment of parts with these multiplicities once
    for rs in [(), (1,), (3,), (1, 1), (2, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1)]:
        for targets, keep in itertools.product(range(4), (False, True)):
            slots = targets + keep
            counts = [count for count, _fixed, _filled in _plan(rs, targets, keep)]
            assert sum(counts) == slots ** sum(rs), (rs, targets, keep)


def _distribute_by_brute_force(left, right, slot_sum, keep):
    """The sum over all slots**parts assignments of the components of
    ``left``, equal ones told apart, to the components of ``right`` and,
    with ``keep``, a kept slot."""
    parts, targets = left.components, right.components
    slots = len(targets) + keep
    total: dict = {}
    for assignment in itertools.product(range(slots), repeat=len(parts)):
        buckets = [[p for p, s in zip(parts, assignment) if s == t] for t in range(slots)]
        fixed = (buckets[-1] if keep else []) + [c for b, c in zip(buckets, targets) if not b]
        sums = [slot_sum(tuple(b), c) for b, c in zip(buckets, targets) if b]
        for combo in itertools.product(*sums):
            forest = Forest([*fixed, *(mi for mi, _c in combo)])
            total[forest] = total.get(forest, 0) + math.prod(c for _mi, c in combo)
    return FormalSum(total)


@pytest.mark.parametrize("keep", [False, True])
def test_distribute_matches_a_sum_over_every_assignment_in_order(keep):
    # 1-4 parts with repeats onto 1-3 targets: same terms, same order
    pool = [parse_multi_index(t, d=1) for t in ("z(1,0)", "z(0,0)", "z(1,0)z(1,1)")]
    for n_parts, n_targets in itertools.product(range(1, 5), range(1, 4)):
        for parts in itertools.combinations_with_replacement(pool, n_parts):
            for targets in itertools.combinations_with_replacement(pool[:2], n_targets):
                left, right = Forest(parts), Forest(targets)
                got = _distribute(left, right, _graft_slot, keep)
                want = _distribute_by_brute_force(left, right, _graft_slot, keep)
                assert list(got.items()) == list(want.items()), (left, right)


# coefficients over the mixed denominators 2, 3, 5 and 6
MIXED = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(-1, 6))


def test_product_accumulates_mixed_denominators_exactly():
    a, b, c = (parse_forest(t, d=1) for t in ("z(1,0)", "z(0,0)", "z(1,0)z(1,1)"))
    u = FormalSum({EMPTY_FOREST: MIXED[0], a: MIXED[3], c: MIXED[2]})
    v = FormalSum({a: MIXED[1], EMPTY_FOREST: 1, b: MIXED[2]})
    got = gl_product(u, v)
    plain: dict = {}
    for fu, cu in u.items():
        for fv, cv in v.items():
            for w, cw in gl_product(fu, fv).items():
                plain[w] = plain.get(w, Fraction(0)) + Fraction(cu) * Fraction(cv) * cw
    assert got == FormalSum(plain)
    # a: 1/2 · 1/3 from ∅ ⋆ a, and −1/6 · 1 from a ⋆ ∅
    assert plain[a] == 0 and a not in got.terms
    ints = gl_product(FormalSum({EMPTY_FOREST: 3, a: -1, c: 12}), FormalSum({a: 5, b: -6}))
    assert ints and all(type(coeff) is int for coeff in ints.terms.values())


def test_linear_accumulates_mixed_denominators_exactly():
    x, y, z = (parse_forest(t, d=1) for t in ("z(1,0)", "z(0,0)", "z(1,0)*z(0,0)"))
    sums = [
        FormalSum({x: MIXED[0], y: 3}),
        FormalSum({x: MIXED[1], z: MIXED[2]}),
        FormalSum({y: MIXED[3], z: 1}),
    ]
    weights = [MIXED[2], Fraction(-3, 5), 1]
    got = FormalSum.linear(zip(sums, weights))
    plain: dict = {}
    for s, w in zip(sums, weights):
        for f, c in s.items():
            plain[f] = plain.get(f, Fraction(0)) + Fraction(c) * Fraction(w)
    assert got == FormalSum(plain)
    # x: 2/5 · 1/2 − 3/5 · 1/3 + 0 = 0
    assert plain[x] == 0 and x not in got.terms
    # 1/2 + 1/3 − 1/6 − 2/5 = 4/15
    again = FormalSum.linear((sums[0], w) for w in (*MIXED[:2], MIXED[3], -MIXED[2]))
    assert again == FormalSum({x: Fraction(2, 15), y: Fraction(4, 5)})
    ints = FormalSum.linear([(FormalSum({x: 2, y: -3}), 5), (FormalSum({y: 3, z: 1}), -7)])
    assert ints == FormalSum({x: 10, y: -36, z: -7})
    assert all(type(c) is int for c in ints.terms.values())


def test_bialgebra_compatibility_sampled():
    """Deshuffle intertwines the product leg-by-leg."""
    import random

    rng = random.Random(7)
    pool = [f for f in forest_basis(2, 3) if not f.is_empty]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
    pairs += [(u, v) for u in pool[:6] for v in pool[:6]]
    for u, v in pairs:
        if u.degree() + v.degree() > 4:
            continue
        lhs = _deshuffle_sum(gl_product(u, v))
        rhs = FormalSum.zero()
        for (u1, u2), cu in deshuffle(u).items():
            for (v1, v2), cv in deshuffle(v).items():
                for a, ca in gl_product(u1, v1).items():
                    for b, cb in gl_product(u2, v2).items():
                        rhs = rhs + FormalSum.of((a, b), cu * cv * ca * cb)
        assert lhs == rhs, (u, v)


# ---------------------------------------------------------------------------
# Pairing, symmetry factors, grading
# ---------------------------------------------------------------------------


def test_symmetry_factor_counts_arity_factorials():
    assert parse_multi_index("z(1,0)z(1,2)").symmetry_factor() == 2
    assert parse_multi_index("z(1,2)^2").symmetry_factor() == 4
    assert parse_multi_index("z(0,3)z(1,1)").symmetry_factor() == 6


def test_symmetry_factor_of_forest_includes_repetitions():
    assert parse_forest("z(1,0)*z(1,0)").symmetry_factor() == 2
    assert parse_forest("z(1,2)*z(1,2)").symmetry_factor() == 2 * 2 * 2
    assert parse_forest("z(1,0)*z(2,0)").symmetry_factor() == 1


def test_pairing_orthogonal_on_distinct_forests():
    u = FormalSum.of(parse_forest("z(1,0)"))
    v = FormalSum.of(parse_forest("z(2,0)"))
    assert pairing(u, v) == 0
    assert pairing(u, u) == 1


def test_pairing_diagonal_is_symmetry_factor():
    for f in forest_basis(2, 4)[:80]:
        s = FormalSum.of(f)
        assert pairing(s, s) == f.symmetry_factor()


def test_pairing_bilinear():
    u = parse_formal_sum("+(1/2) z(1,0) +(1/3) z(1,0)*z(1,0)")
    v = parse_formal_sum("+(4) z(1,0) -(3) z(1,0)*z(1,0)")
    assert pairing(u, v) == Fraction(1, 2) * 4 - Fraction(1, 3) * 3 * 2


def test_gamma_degree_additive_and_counts_time_heavier():
    g = Grading(max_norm=3, gamma=Fraction(1, 3))
    f = parse_forest("z(0,0)*z(1,0)z(1,1)")
    assert f.gamma_degree(g.gamma) == Fraction(3) + Fraction(2)
    u = parse_forest("z(0,0)")
    v = parse_forest("z(1,0)z(1,1)")
    assert u.merge(v).gamma_degree(g.gamma) == u.gamma_degree(g.gamma) + v.gamma_degree(
        g.gamma
    )


def test_grading_validation():
    with pytest.raises(ValueError):
        Grading(max_norm=0, gamma=Fraction(1, 2))
    with pytest.raises(ValueError):
        Grading(max_norm=2, gamma=Fraction(3, 2))
    assert Grading(max_norm=2, gamma="2/5").gamma == Fraction(2, 5)


def test_mi_product_merges_frequencies():
    a = parse_multi_index("z(1,0)z(1,1)")
    b = parse_multi_index("z(1,1)^2")
    assert a.mul(b) == parse_multi_index("z(1,0)z(1,1)^3")


def test_a_variable_listed_twice_carries_the_sum_of_its_frequencies():
    twice = MultiIndex([((1, 0), 1), ((1, 0), 1)], 2)
    once = MultiIndex([((1, 0), 2)], 2)
    assert twice.entries == (((1, 0), 2),)
    assert twice.degree() == 2
    assert twice == once and hash(twice) == hash(once)
    # the product merges sorted entries, so it must never see a repeat
    z10 = MultiIndex([((1, 0), 1)], 2)
    assert twice.mul(z10).entries == (((1, 0), 3),)
    assert twice.mul(z10) == MultiIndex([((1, 0), 3)], 2)
    mixed = MultiIndex([((1, 1), 1), ((1, 0), 1), ((1, 1), 2)], 2)
    assert mixed.entries == (((1, 0), 1), ((1, 1), 3))


def test_int_and_fraction_coefficients_are_interchangeable():
    x = parse_forest("z(1,0)*z(2,0)")
    as_int, as_fraction = FormalSum({x: 2}), FormalSum({x: Fraction(2)})
    assert type(as_int.coefficient(x)) is int
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert format_formal_sum(as_int) == format_formal_sum(as_fraction) == "+(2) z(1,0)*z(2,0)"


def test_mi_product_rejects_alphabet_mismatch():
    a = parse_multi_index("z(1,0)", d=1)
    b = parse_multi_index("z(1,0)", d=2)
    with pytest.raises(ValueError):
        a.mul(b)


# ---------------------------------------------------------------------------
# Enumeration against the brute-force generator
# ---------------------------------------------------------------------------


def test_enumerate_smallest_basis():
    got = enumerate_populated(1, 1)
    assert got == [parse_multi_index("z(0,0)", d=1), parse_multi_index("z(1,0)", d=1)]


def test_enumerate_degree_two_d1():
    got = enumerate_populated(1, 2)
    assert len(got) == 6
    expected = {parse_multi_index("z(0,0)", d=1), parse_multi_index("z(1,0)", d=1)}
    for i in (0, 1):
        for j in (0, 1):
            expected.add(parse_multi_index(f"z({i},0)z({j},1)", d=1))
    assert set(got) == expected


def test_enumerate_degree_zero_is_empty():
    assert enumerate_populated(1, 0) == []


def test_enumerate_refuses_an_empty_alphabet_and_a_negative_degree():
    with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
        enumerate_populated(0, 2)
    with pytest.raises(ValueError, match="^max_degree must be >= 0, got -1$"):
        enumerate_populated(1, -1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_naive_generator(d, n):
    got = enumerate_populated(d, n)
    assert len(got) == len(set(got)), "duplicates in enumeration"
    assert set(got) == naive_populated(d, n)


def test_enumerate_is_sorted_canonically():
    got = enumerate_populated(2, 4)
    assert got == sorted(got, key=lambda mi: mi.entries)


def test_forest_basis_counts():
    # degree-wise forest counts are determined by the multi-index counts
    by_degree = {}
    for f in forest_basis(2, 5):
        by_degree[f.degree()] = by_degree.get(f.degree(), 0) + 1
    assert by_degree[0] == 1
    assert by_degree[1] == 3
    assert by_degree[2] == 15
    assert by_degree[3] == 73
