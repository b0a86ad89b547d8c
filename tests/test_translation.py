"""Exact identities of the insertion calculus, extraction coproduct, and
translation.

All small fixture values in this file were frozen from independent hand
computations in rational arithmetic.  The structural facts are checked
exhaustively over graded slices of the basis:

* the insertion product is left pre-Lie (associator symmetric in its first
  two arguments);
* extraction–contraction is computed by two routes that share no code — a
  direct extraction procedure and the transpose of simultaneous insertion
  against the symmetrised pairing — and the two must agree coefficient by
  coefficient;
* insertion and extraction are adjoint for the symmetrised pairing;
* the dual of a translation equals the character-weighted sum of forest
  insertions, and contracting the coproduct against a character reproduces
  the dual up to the explicit self-extraction term.

The only floating-point section is the rough-path translation at the end,
and even there the identity translation is required to be bit-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    Grading,
    MultiIndex,
    derivation_d,
    deshuffle,
    empty_multi_index,
    enumerate_populated,
    forest_basis,
    gl_product,
    graft_simultaneous,
    pairing,
    prelie_graft,
    single,
    symmetry_factor,
)
from mirpath.group import RoughPathGrid, chen_compose
from mirpath.lifts import lift_brownian
from mirpath.translation import (
    Character,
    TruncationShortfallError,
    character_from_json,
    character_to_json,
    contract_character,
    coproduct_minus,
    identity_characters,
    insert_prelie,
    insert_simultaneous,
    ito_strat_character,
    m_ell,
    translate,
    translate_roughpath,
    translation_order,
)

HALF = Fraction(1, 2)


def mi(d: int, *pairs: tuple[int, int]) -> MultiIndex:
    out = empty_multi_index(d)
    for i, k in pairs:
        out = out.mul(single(i, k, d))
    return out


def apply_insert(u: FormalSum, c: MultiIndex) -> FormalSum:
    """Extend ``insert_prelie`` linearly in its first argument."""
    total = FormalSum.zero()
    for term, coeff in u.items():
        total = total + insert_prelie(term, c).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class TestCharacter:
    def test_validation(self):
        z10 = single(1, 0, 2)
        with pytest.raises(ValueError):
            Character(0, {}, 0)  # d must be positive
        with pytest.raises(ValueError):
            Character(3, {z10: 1}, 2)  # direction outside 0..d
        with pytest.raises(ValueError):
            Character(-1, {z10: 1}, 2)
        with pytest.raises(ValueError):
            # z(0,0)^2 has two variables and no arity, so it is not populated
            Character(0, {mi(1, (0, 0), (0, 0)): 1}, 1)
        with pytest.raises(ValueError):
            Character(0, {single(2, 0, 2): 1}, 1)  # letter above d

    def test_zero_coefficients_dropped(self):
        ell = Character(0, {single(0, 0, 1): Fraction(0), single(1, 0, 1): 1}, 1)
        assert single(0, 0, 1) not in ell.terms
        assert ell.value(single(1, 0, 1)) == 1
        assert ell.value(single(0, 0, 1)) == 0

    def test_identity_characters(self):
        ells = identity_characters(2)
        assert [ell.direction for ell in ells] == [0, 1, 2]
        for i, ell in enumerate(ells):
            assert ell.terms == {single(i, 0, 2): Fraction(1)}
            assert ell == Character.identity(i, 2)
        # independently built copies are equal and hash alike
        rebuilt = Character(1, {single(1, 0, 2): Fraction(2, 2)}, 2)
        assert rebuilt == ells[1] and hash(rebuilt) == hash(ells[1])

    def test_ito_strat_support(self):
        ell = ito_strat_character(2)
        assert ell.direction == 0
        assert ell.terms == {
            single(0, 0, 2): Fraction(1),
            mi(2, (1, 0), (1, 1)): HALF,
            mi(2, (2, 0), (2, 1)): HALF,
        }
        assert ell.support_degree() == 2
        with pytest.raises(ValueError):
            ito_strat_character(0)

    def test_on_forest_multiplicative(self):
        ell = ito_strat_character(1)
        key = mi(1, (1, 0), (1, 1))
        assert ell.on_forest(EMPTY_FOREST) == 1
        assert ell.on_forest(Forest([key])) == HALF
        assert ell.on_forest(Forest([key, key, single(0, 0, 1)])) == Fraction(1, 4)
        assert ell.on_forest(Forest([single(1, 0, 1)])) == 0


class TestCharacterJson:
    def test_round_trip(self):
        ell = ito_strat_character(2)
        payload = json.loads(json.dumps(character_to_json(ell)))
        assert character_from_json(payload, d=2) == ell
        # rationals are serialised as strings, never floats
        assert all(isinstance(v, str) for v in payload["terms"].values())

    def test_decimal_and_fraction_strings(self):
        payload = {
            "direction": 0,
            "terms": {"z(0,0)": "1", "z(1,0)z(1,1)": "0.5", "z(2,0)z(2,1)": "1/2"},
        }
        assert character_from_json(payload) == ito_strat_character(2)

    def test_dimension_inferred_from_widest_letter(self):
        payload = {"direction": 0, "terms": {"z(2,0)z(2,1)": "1/2"}}
        ell = character_from_json(payload)
        assert ell.d == 2

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            character_from_json({"direction": "0", "terms": {}})


class TestTranslationOrder:
    def test_identity_is_free(self):
        assert translation_order(identity_characters(2), Fraction(1, 3)) == 1

    def test_ito_strat_free_at_low_regularity(self):
        ells = identity_characters(1)
        ells[0] = ito_strat_character(1)
        assert translation_order(ells, Fraction(1, 2)) == 1
        # above exponent 1/2 the second-order keys start to cost regularity
        assert translation_order(ells, Fraction(2, 3)) == Fraction(4, 3)

    def test_second_order_space_character_costs_two(self):
        ells = identity_characters(1)
        ells[1] = Character(
            1, {single(1, 0, 1): 1, mi(1, (1, 0), (1, 1)): Fraction(1, 3)}, 1
        )
        assert translation_order(ells, Fraction(1, 2)) == 2


# ---------------------------------------------------------------------------
# insertion products
# ---------------------------------------------------------------------------


class TestInsertPrelie:
    def test_fixed_values(self):
        d = 1
        # plain substitution into the bare time variable
        assert insert_prelie(single(1, 0, d), single(0, 0, d)) == FormalSum.of(
            single(1, 0, d)
        )
        # an arity-1 slot receives one application of the raising derivation
        got = insert_prelie(mi(d, (1, 0), (1, 1)), mi(d, (0, 1), (1, 1)))
        want = FormalSum.of(mi(d, (1, 1), (1, 1), (1, 1))) + FormalSum.of(
            mi(d, (1, 0), (1, 1), (1, 2))
        )
        assert got == want
        # no time variable, nothing to consume
        assert insert_prelie(single(1, 0, d), single(1, 0, d)) == FormalSum.zero()

    def test_repeated_slot_carries_multiplicity(self):
        # two identical slots: the partial derivative has weight 2
        got = insert_prelie(single(1, 0, 1), mi(1, (0, 0), (0, 0)))
        assert got == FormalSum.of(mi(1, (0, 0), (1, 0)), 2)

    def test_inserted_monomial_must_be_populated(self):
        with pytest.raises(ValueError):
            insert_prelie(mi(1, (0, 0), (0, 0)), single(0, 0, 1))

    def test_population_passes_through(self):
        for a in enumerate_populated(2, 2):
            for b in enumerate_populated(2, 2):
                for term, _ in insert_prelie(a, b).items():
                    assert term.is_populated()

    def test_left_prelie_associator_symmetry(self):
        # (a ▸ b) ▸ c − a ▸ (b ▸ c) is symmetric under a ↔ b
        mis = list(enumerate_populated(1, 3))
        for a, b in itertools.combinations_with_replacement(mis, 2):
            ab = insert_prelie(a, b)
            ba = insert_prelie(b, a)
            for c in mis:
                left = apply_insert(ab, c) - _insert_right(a, insert_prelie(b, c))
                right = apply_insert(ba, c) - _insert_right(b, insert_prelie(a, c))
                assert left == right, (a, b, c)


def _insert_right(a: MultiIndex, u: FormalSum) -> FormalSum:
    """a ▸ (sum) extended linearly in the second argument."""
    total = FormalSum.zero()
    for term, coeff in u.items():
        total = total + insert_prelie(a, term).scale(coeff)
    return total


class TestInsertSimultaneous:
    def test_empty_forest_is_neutral(self):
        for b in enumerate_populated(2, 3):
            assert insert_simultaneous(EMPTY_FOREST, b) == FormalSum.of(b)

    def test_two_copies_into_two_slots(self):
        # both assignments of the two identical components contribute
        left = Forest([single(1, 0, 1), single(1, 0, 1)])
        got = insert_simultaneous(left, mi(1, (0, 0), (0, 1)))
        assert got == FormalSum.of(mi(1, (1, 0), (1, 1)), 2)

    def test_single_component_arity_one_slot(self):
        got = insert_simultaneous(Forest([single(1, 0, 1)]), mi(1, (0, 1), (1, 1)))
        assert got == FormalSum.of(mi(1, (1, 1), (1, 1)))

    def test_more_components_than_slots_vanishes(self):
        left = Forest([single(1, 0, 1)])
        assert insert_simultaneous(left, single(1, 0, 1)) == FormalSum.zero()

    def test_forest_target_distributes_over_components(self):
        left = Forest([single(1, 0, 1)])
        right = Forest([single(0, 0, 1), single(1, 0, 1)])
        got = insert_simultaneous(left, right)
        assert got == FormalSum.of(Forest([single(1, 0, 1), single(1, 0, 1)]))

    def test_matches_single_insertion_on_one_slot_targets(self):
        # a singleton forest must fill the unique time slot, which is exactly
        # what single insertion does on such targets
        for a in enumerate_populated(1, 2):
            for b in enumerate_populated(1, 3):
                if b.letter_count(0) == 1:
                    assert insert_simultaneous(Forest([a]), b) == insert_prelie(a, b)

    def test_requires_exact_slot_count(self):
        # simultaneous insertion consumes every time variable; a singleton
        # cannot land in a two-slot target even though single insertion can
        a = single(0, 0, 1)
        b = mi(1, (0, 0), (0, 1))
        assert insert_simultaneous(Forest([a]), b) == FormalSum.zero()
        assert insert_prelie(a, b) == FormalSum.of(b, 2)


# ---------------------------------------------------------------------------
# translation on the free algebra
# ---------------------------------------------------------------------------


def _is_characters(d: int) -> list[Character]:
    ells = identity_characters(d)
    ells[0] = ito_strat_character(d)
    return ells


def _second_order_space_characters() -> list[Character]:
    ells = identity_characters(1)
    ells[1] = Character(
        1, {single(1, 0, 1): 1, mi(1, (1, 0), (1, 1)): Fraction(1, 3)}, 1
    )
    return ells


class TestTranslate:
    def test_identity_translation_is_the_identity(self):
        ells = identity_characters(2)
        for b in enumerate_populated(2, 4):
            assert translate(ells, b) == FormalSum.of(b)
        forest = Forest([single(1, 0, 2), mi(2, (2, 0), (2, 1))])
        assert translate(ells, forest) == FormalSum.of(forest)

    def test_drift_generator_image(self):
        d = 2
        got = translate(_is_characters(d), single(0, 0, d))
        want = (
            FormalSum.of(single(0, 0, d))
            + FormalSum.of(mi(d, (1, 0), (1, 1)), HALF)
            + FormalSum.of(mi(d, (2, 0), (2, 1)), HALF)
        )
        assert got == want

    def test_raised_drift_generator_image(self):
        # the image of z(0,1) is the derivation applied to the image of z(0,0)
        got = translate(_is_characters(1), single(0, 1, 1))
        want = (
            FormalSum.of(single(0, 1, 1))
            + FormalSum.of(mi(1, (1, 0), (1, 2)), HALF)
            + FormalSum.of(mi(1, (1, 1), (1, 1)), HALF)
        )
        assert got == want

    def test_space_generators_unchanged(self):
        for key in (single(1, 0, 2), single(2, 1, 2), mi(2, (1, 0), (2, 1))):
            assert translate(_is_characters(2), key) == FormalSum.of(key)

    def test_second_order_space_expansion(self):
        got = translate(_second_order_space_characters(), mi(1, (1, 0), (1, 1)))
        want = (
            FormalSum.of(mi(1, (1, 0), (1, 1)))
            + FormalSum.of(mi(1, (1, 0), (1, 1), (1, 1)), Fraction(2, 3))
            + FormalSum.of(mi(1, (1, 0), (1, 0), (1, 2)), Fraction(1, 3))
            + FormalSum.of(mi(1, (1, 0), (1, 1), (1, 1), (1, 1)), Fraction(1, 9))
            + FormalSum.of(mi(1, (1, 0), (1, 0), (1, 1), (1, 2)), Fraction(1, 9))
        )
        assert got == want

    def test_truncation_equals_restriction(self):
        ells = _second_order_space_characters()
        for b in enumerate_populated(1, 3):
            full = translate(ells, b)
            for bound in (1, 2, 3):
                restricted = FormalSum(
                    {k: c for k, c in full.items() if k.degree() <= bound}
                )
                assert translate(ells, b, trunc=bound) == restricted

    def test_multiplicative_on_monomials(self):
        ells = _is_characters(1)
        a, b = single(0, 0, 1), mi(1, (1, 0), (1, 1))
        lhs = translate(ells, a.mul(b))
        rhs = FormalSum.zero()
        for ta, ca in translate(ells, a).items():
            for tb, cb in translate(ells, b).items():
                rhs = rhs + FormalSum.of(ta.mul(tb), ca * cb)
        assert lhs == rhs

    def test_group_product_morphism(self):
        # the translation respects the group product on forest sums
        mis = list(enumerate_populated(1, 2))
        forests = [EMPTY_FOREST]
        forests += [Forest([m]) for m in mis]
        forests += [
            Forest([a, b])
            for a, b in itertools.combinations_with_replacement(mis, 2)
            if a.degree() + b.degree() <= 3
        ]
        for ells in (_is_characters(1), _second_order_space_characters()):
            for u in forests:
                for v in forests:
                    if u.degree() + v.degree() > 4:
                        continue
                    lhs = translate(ells, gl_product(u, v))
                    rhs = gl_product(translate(ells, u), translate(ells, v))
                    assert lhs == rhs, (u, v)

    def test_commutes_with_raising_derivation(self):
        for ells in (_is_characters(1), _second_order_space_characters()):
            for b in enumerate_populated(1, 3):
                assert translate(ells, derivation_d(b)) == derivation_d(
                    translate(ells, b)
                )

    def test_population_preserved_termwise(self):
        for b in enumerate_populated(2, 3):
            for term, _ in translate(_is_characters(2), b).items():
                assert term.is_populated()

    def test_wrong_character_count(self):
        with pytest.raises(ValueError):
            translate([Character.identity(0, 1)], single(1, 0, 1))
        bad = identity_characters(1)
        bad[0], bad[1] = bad[1], bad[0]
        with pytest.raises(ValueError):
            translate(bad, single(1, 0, 1))


# ---------------------------------------------------------------------------
# extraction–contraction coproduct
# ---------------------------------------------------------------------------


class TestCoproductMinus:
    def test_space_generator_split(self):
        z10 = single(1, 0, 1)
        want = FormalSum(
            {
                (EMPTY_FOREST, z10): Fraction(1),
                (Forest([z10]), single(0, 0, 1)): Fraction(1),
            }
        )
        assert coproduct_minus(z10, route="direct") == want
        assert coproduct_minus(z10, route="transpose") == want

    def test_time_generator_split(self):
        z00 = single(0, 0, 1)
        want = FormalSum(
            {
                (EMPTY_FOREST, z00): Fraction(1),
                (Forest([z00]), z00): Fraction(1),
            }
        )
        assert coproduct_minus(z00, route="direct") == want
        assert coproduct_minus(z00, route="transpose") == want

    def test_empty_extraction_always_present(self):
        for b in enumerate_populated(2, 3):
            split = coproduct_minus(b)
            assert split.coefficient((EMPTY_FOREST, b)) == 1

    def test_routes_agree_dimension_one(self):
        for b in enumerate_populated(1, 4):
            assert coproduct_minus(b, route="direct") == coproduct_minus(
                b, route="transpose"
            ), b

    def test_routes_agree_dimension_two(self):
        for b in enumerate_populated(2, 3):
            assert coproduct_minus(b, route="direct") == coproduct_minus(
                b, route="transpose"
            ), b

    def test_routes_agree_repetition_heavy(self):
        # degree-4 targets whose repeated variables stress the weight
        # bookkeeping of both routes
        targets = [
            mi(2, (1, 0), (1, 1), (1, 1), (1, 1)),
            mi(2, (0, 0), (0, 0), (0, 2)),
            mi(2, (0, 0), (0, 0), (0, 0), (0, 3)),
            mi(2, (1, 0), (1, 1), (2, 1), (2, 1)),
            mi(2, (2, 0), (2, 0), (2, 1), (2, 2)),
            mi(2, (0, 0), (0, 1), (1, 0), (1, 2)),
        ]
        for b in targets:
            assert coproduct_minus(b, route="direct") == coproduct_minus(
                b, route="transpose"
            ), b

    def test_unpopulated_target_rejected(self):
        with pytest.raises(ValueError):
            coproduct_minus(mi(1, (0, 0), (0, 0)))

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            coproduct_minus(single(1, 0, 1), route="sideways")


class TestAdjointness:
    def test_insertion_extraction_adjoint(self):
        # ⟨F ⋆₁ a, b⟩ = S(F)·S(a)·(coefficient of F ⊗ a in the coproduct of b)
        d = 1
        mis4 = list(enumerate_populated(d, 4))
        splits = {b: coproduct_minus(b) for b in mis4}
        for forest in forest_basis(d, 4):
            if forest.is_empty:
                continue
            s_forest = symmetry_factor(forest)
            room = 4 - forest.degree()
            for a in enumerate_populated(d, max(room + forest.cardinality(), 1)):
                inserted = insert_simultaneous(forest, a)
                weight = Fraction(s_forest * symmetry_factor(a))
                for b in mis4:
                    lhs = pairing(inserted, FormalSum.of(b))
                    rhs = weight * splits[b].coefficient((forest, a))
                    assert lhs == rhs, (forest, a, b)


# ---------------------------------------------------------------------------
# dual translation
# ---------------------------------------------------------------------------


class TestDualTranslation:
    def test_identity_dual_is_identity(self):
        ells = identity_characters(2)
        for b in enumerate_populated(2, 3):
            assert m_ell(ells, b) == FormalSum.of(b)

    def test_second_order_corrections(self):
        # dual of the Itô–Stratonovich translation on the level-two basis:
        # each diagonal pair gains half a time variable
        ells = _is_characters(2)
        ell0 = ells[0]
        for i in (1, 2):
            for j in (1, 2):
                b = mi(2, (i, 0), (j, 1))
                want = FormalSum.of(b)
                if i == j:
                    want = want + FormalSum.of(single(0, 0, 2), HALF)
                assert m_ell(ells, b) == want, (i, j)
                assert contract_character(ell0, coproduct_minus(b)) == want, (i, j)

    def test_third_order_corrections(self):
        # Every way of extracting a diagonal pair contributes half a time
        # variable.  When two extraction slots hold the same variable the
        # two labelled channels coincide as one multiset channel, so each
        # surviving channel still carries 1/2 — coincident letters merge
        # channels, they never double the weight.
        ells = _is_characters(2)
        ell0 = ells[0]
        for i, j, k in itertools.product((1, 2), repeat=3):
            b = mi(2, (i, 0), (j, 1), (k, 1))
            want = FormalSum.of(b)
            if j == k:
                if i == j:
                    want = want + FormalSum.of(mi(2, (0, 0), (j, 1)), HALF)
                want = want + FormalSum.of(mi(2, (i, 0), (0, 1)), HALF)
            else:
                if i == j:
                    want = want + FormalSum.of(mi(2, (0, 0), (k, 1)), HALF)
                if i == k:
                    want = want + FormalSum.of(mi(2, (0, 0), (j, 1)), HALF)
            assert m_ell(ells, b) == want, (i, j, k)
            assert contract_character(ell0, coproduct_minus(b)) == want, (i, j, k)

    def test_level_two_dimension_one(self):
        ells = _is_characters(1)
        got = m_ell(ells, mi(1, (1, 0), (1, 1)))
        assert got == FormalSum.of(mi(1, (1, 0), (1, 1))) + FormalSum.of(
            single(0, 0, 1), HALF
        )

    def test_contraction_reproduces_dual_plus_self_term(self):
        # contracting the coproduct against the full character equals the
        # dual translation plus one copy of b for every target that still
        # contains a time variable (the self-extraction channel)
        for d, bound in ((1, 4), (2, 3)):
            ells = _is_characters(d)
            ell0 = ells[0]
            for b in enumerate_populated(d, bound):
                got = contract_character(ell0, coproduct_minus(b))
                want = m_ell(ells, b)
                if b.letter_count(0) >= 1:
                    want = want + FormalSum.of(b)
                assert got == want, b

    def test_dual_equals_forest_insertion_sum(self):
        # T* b expands as Σ_F ℓ(F)/S(F) · (F ⋆₁ b) over forests whose
        # cardinality equals the number of time variables of b, components
        # drawn from the support of the character
        ells = _is_characters(2)
        support = list(ells[0].terms)
        for beta in enumerate_populated(2, 4):
            n0 = beta.letter_count(0)
            if n0 == 0:
                total = FormalSum.of(beta)
            else:
                total = FormalSum.zero()
                for combo in itertools.combinations_with_replacement(support, n0):
                    forest = Forest(list(combo))
                    weight = ells[0].on_forest(forest) / Fraction(
                        symmetry_factor(forest)
                    )
                    total = total + insert_simultaneous(forest, beta).scale(weight)
            assert total == translate(ells, beta), beta

    def test_dual_population_and_validation(self):
        ells = _is_characters(1)
        for term, _ in m_ell(ells, mi(1, (0, 0), (0, 1))).items():
            assert term.is_populated()
        with pytest.raises(ValueError):
            m_ell(ells, mi(1, (0, 0), (0, 0)))
        with pytest.raises(ValueError):
            m_ell([ells[0]], single(0, 0, 1))


# ---------------------------------------------------------------------------
# rough-path translation
# ---------------------------------------------------------------------------


GRADING_HALF = Grading(max_norm=3, gamma=Fraction(1, 2))


def _ito_path(n_steps: int = 64, seed: int = 12345) -> RoughPathGrid:
    return lift_brownian(
        d=1,
        t_final=1.0,
        n_steps=n_steps,
        seed=seed,
        mode="ito",
        grading=GRADING_HALF,
    )


class TestTranslateRoughpath:
    def test_identity_is_bit_identical(self):
        path = _ito_path()
        out = translate_roughpath(identity_characters(1), path)
        assert out.grading == path.grading
        assert out.times == path.times
        basis = list(enumerate_populated(1, 3))
        for before, after in zip(path.increments, out.increments):
            for key in basis:
                assert after.value(key) == before.value(key)

    def test_drift_rescaling(self):
        # scaling the time generator by 3/2 multiplies every stored value by
        # (3/2)^(number of time variables), exactly in binary64
        path = _ito_path()
        ells = identity_characters(1)
        ells[0] = Character(0, {single(0, 0, 1): Fraction(3, 2)}, 1)
        out = translate_roughpath(ells, path)
        for before, after in zip(path.increments, out.increments):
            for key in enumerate_populated(1, 3):
                factor = float(Fraction(3, 2) ** key.letter_count(0))
                assert after.value(key) == factor * before.value(key)

    def test_ito_to_strat_level_values(self):
        path = _ito_path()
        ells = _is_characters(1)
        out = translate_roughpath(ells, path)
        assert out.grading == path.grading
        level2 = mi(1, (1, 0), (1, 1))
        z00 = single(0, 0, 1)
        for before, after in zip(path.increments, out.increments):
            # first-order values untouched
            assert after.value(single(1, 0, 1)) == before.value(single(1, 0, 1))
            assert after.value(z00) == before.value(z00)
            # the diagonal second-order value gains half the time increment
            want = before.value(level2) + 0.5 * before.value(z00)
            assert after.value(level2) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_values_match_dual_contraction(self):
        path = _ito_path(n_steps=8, seed=99)
        ells = _is_characters(1)
        out = translate_roughpath(ells, path)
        for before, after in zip(path.increments, out.increments):
            for key in enumerate_populated(1, 3):
                want = sum(
                    float(coeff) * before.value(term)
                    for term, coeff in m_ell(ells, key).items()
                )
                assert after.value(key) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_chen_relation_preserved(self):
        path = _ito_path(n_steps=8, seed=777)
        out = translate_roughpath(_is_characters(1), path)
        coarse_incs = tuple(
            chen_compose(path.increments[i], path.increments[i + 1])
            for i in range(0, 8, 2)
        )
        coarse = RoughPathGrid(
            d=1, grading=GRADING_HALF, times=path.times[0::2], increments=coarse_incs
        )
        out_coarse = translate_roughpath(_is_characters(1), coarse)
        for j in range(4):
            direct = chen_compose(out.increments[2 * j], out.increments[2 * j + 1])
            for key, val in out_coarse.increments[j].values.items():
                assert val == pytest.approx(direct.value(key), rel=1e-12, abs=1e-14)

    def test_truncation_shortfall_reported(self):
        path = _ito_path(n_steps=8, seed=5)
        ells = _second_order_space_characters()
        with pytest.raises(TruncationShortfallError) as info:
            translate_roughpath(ells, path)
        assert info.value.missing_degree == 4

    def test_explicit_output_grading(self):
        path = _ito_path(n_steps=8, seed=5)
        target = Grading(max_norm=2, gamma=Fraction(1, 2))
        out = translate_roughpath(_is_characters(1), path, out_grading=target)
        assert out.grading == target
        keys = set(out.increments[0].values)
        assert keys == set(enumerate_populated(1, 2))

    def test_wrong_character_count(self):
        path = _ito_path(n_steps=4, seed=1)
        with pytest.raises(ValueError):
            translate_roughpath(identity_characters(2), path)


# ---------------------------------------------------------------------------
# exactness of every coefficient


@st.composite
def exact_inputs(draw):
    """Two monomials and two forests of degree ≤ 2 and a target of degree
    ≤ 4, over d ∈ {1, 2}."""
    d = draw(st.sampled_from([1, 2]))
    monomials = st.sampled_from(enumerate_populated(d, 2))
    forests = st.sampled_from(forest_basis(d, 2))
    target = st.sampled_from(enumerate_populated(d, 4))
    return d, draw(monomials), draw(monomials), draw(forests), draw(forests), draw(target)


@settings(max_examples=40, deadline=None)
@given(exact_inputs())
def test_exact_kernels_keep_int_or_fraction_coefficients(inputs):
    d, a, b, u, v, target = inputs
    ab = Forest([a, b])
    results = [
        gl_product(u, v),
        prelie_graft(a, b),
        graft_simultaneous(u, v),
        deshuffle(ab),
        derivation_d(ab),
        coproduct_minus(target, route="direct"),
        coproduct_minus(target, route="transpose"),
        insert_simultaneous(u, a),
        insert_simultaneous(u, ab),
    ]
    # an int weight on a key with S = 2 makes translation divide an int
    halved = identity_characters(d)
    s_two = MultiIndex([((1, 0), 2), ((1, 2), 1)], d + 1)  # z(1,0)^2 z(1,2)
    halved[0] = Character(0, {single(0, 0, d): 1, s_two: 3}, d)
    for ells in (identity_characters(d), _is_characters(d), halved):
        results += [translate(ells, target), translate(ells, ab), m_ell(ells, target)]
    for result in results:
        for key, c in result.items():
            assert type(c) in (int, Fraction), (key, c)
            assert c != 0, key


def test_generator_image_divides_by_the_symmetry_factor_exactly():
    key = MultiIndex([((1, 0), 3), ((1, 3), 1)], 2)  # z(1,0)^3 z(1,3), S = 3! = 6
    ells = identity_characters(1)
    ells[0] = Character(0, {single(0, 0, 1): 1, key: 1}, 1)
    want = FormalSum({single(0, 0, 1): 1, key: Fraction(1, 6)})
    assert translate(ells, single(0, 0, 1)) == want


@pytest.mark.parametrize("bad", [0.1, 0.0, 2.0, True, False], ids=repr)
def test_float_and_bool_coefficients_are_rejected(bad):
    # 0.1 used to become 3602879701896397/36028797018963968 without a word
    z = single(1, 0, 2)
    with pytest.raises(TypeError, match="exact coefficient cannot be a"):
        FormalSum({z: bad})
    with pytest.raises(TypeError, match="exact coefficient cannot be a"):
        FormalSum.of(z).scale(bad)
    with pytest.raises(TypeError, match="exact coefficient cannot be a"):
        FormalSum.linear([(FormalSum.of(z), bad)])
    with pytest.raises(TypeError, match="exact coefficient cannot be a"):
        Character(1, {z: bad}, 2)
    # exact inputs other than int and Fraction are still converted
    assert FormalSum({z: "1/10"}).coefficient(z) == Fraction(1, 10)
