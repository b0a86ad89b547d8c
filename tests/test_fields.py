"""Vector fields, elementary differentials, translated fields.

Numeric values are checked against a sympy oracle (symbolic differentiation
of the same polynomial data).  The product-morphism check builds the
right-hand side by composing differential operators directly — product and
chain rule on (forest, test-derivative-order) pairs — so it shares no code
path with the Grossman–Larson product used on the left.
"""

import json
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    Forest,
    FormalSum,
    MultiIndex,
    derivation_d,
    deshuffle,
    enumerate_populated,
    forest_basis,
    gl_product,
)
from mirpath.fields import (
    DerivativeOrderError,
    VectorField,
    upsilon,
    upsilon_sum,
    upsilon_vf,
    vector_field_from_json,
    vector_field_payload,
)
from mirpath.translation import (
    Character,
    identity_characters,
    ito_strat_character,
    translated_field,
)


def mi(*pairs, d=2):
    counts = {}
    for i, k in pairs:
        counts[(i, k)] = counts.get((i, k), 0) + 1
    return MultiIndex(counts, d + 1)


# polynomial data shared across the module: f0 = 1 + y/3, f1 = y^2,
# f2 = 2 - y + y^3/5
POLY_ROWS = (
    (Fraction(1), Fraction(1, 3)),
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(2), Fraction(-1), Fraction(0), Fraction(1, 5)),
)
SAMPLE_POINTS = (-1.7, -1.1, -0.6, -0.2, 0.1, 0.45, 0.8, 1.3, 1.9, 2.4)

_Y = sympy.Symbol("y")
_SYMPY_F = tuple(
    sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(row)], _Y).as_expr()
    for row in POLY_ROWS
)


@pytest.fixture(scope="module")
def poly_field():
    return VectorField.polynomial(POLY_ROWS)


def sympy_upsilon(u, y_val):
    """Oracle: the product of symbolic derivatives, evaluated exactly."""
    if isinstance(u, MultiIndex):
        u = Forest([u]) if not u.is_empty else Forest()
    expr = sympy.Integer(1)
    for comp in u.components:
        for (i, k), m in comp.entries:
            expr *= sympy.diff(_SYMPY_F[i], _Y, k) ** m
    return float(expr.subs(_Y, sympy.Float(y_val, 30)))


# ---------------------------------------------------------------------------
# VectorField constructors
# ---------------------------------------------------------------------------


class TestVectorField:
    def test_polynomial_derivatives_match_sympy(self, poly_field):
        for i in range(3):
            for k in range(5):
                want = sympy.diff(_SYMPY_F[i], _Y, k)
                for y in SAMPLE_POINTS:
                    got = poly_field.derivative(i, k, y)
                    ref = float(want.subs(_Y, sympy.Float(y, 30)))
                    assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_polynomial_beyond_degree_exactly_zero(self, poly_field):
        assert poly_field.derivative(1, 3, 0.37) == 0.0
        assert poly_field.derivative(2, 4, -2.9) == 0.0
        assert poly_field.derivative(0, 2, 5.1) == 0.0

    def test_linear_all_orders(self):
        f = VectorField.linear([1.5, -2.0])
        assert f.derivative(1, 0, 3.0) == -6.0
        assert f.derivative(1, 1, 123.0) == -2.0
        assert f.derivative(1, 2, 123.0) == 0.0
        assert f.derivative(0, 7, 0.0) == 0.0

    def test_closure_variant_and_order_limit(self):
        f = VectorField.from_closures(
            [
                [lambda y: 1.0, lambda y: 0.0],
                [math.sin, math.cos],
            ]
        )
        assert f.max_order == 1
        assert f.derivative(1, 1, 0.0) == 1.0
        with pytest.raises(DerivativeOrderError):
            f.derivative(1, 2, 0.0)

    def test_argument_validation(self, poly_field):
        with pytest.raises(ValueError):
            poly_field.derivative(3, 0, 0.0)
        with pytest.raises(ValueError):
            poly_field.derivative(1, -1, 0.0)

    def test_provider_deterministic(self, poly_field):
        a = poly_field.derivative(2, 1, 0.8137)
        b = poly_field.derivative(2, 1, 0.8137)
        assert a == b


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------


class TestUpsilon:
    def test_single_variable(self, poly_field):
        for i in range(3):
            for k in range(3):
                for y in SAMPLE_POINTS[:4]:
                    assert upsilon(mi((i, k)), poly_field, y) == poly_field.derivative(i, k, y)

    def test_square_field_product(self):
        # f1 = y^2: value of z(1,0)z(1,1) is f1 * f1' = y^2 * 2y -> 16 at y=2
        f = VectorField.polynomial([(0,), (0, 0, 1)])
        assert upsilon(mi((1, 0), (1, 1), d=1), f, 2.0) == 16.0

    def test_empty_forest_is_one(self, poly_field):
        assert upsilon(EMPTY_FOREST, poly_field, 0.123) == 1.0

    def test_forest_multiplicativity(self, poly_field):
        a = mi((1, 0), (2, 1))
        b = mi((0, 0), (1, 2))
        fa, fb = Forest([a]), Forest([b])
        merged = fa.merge(fb)
        for y in SAMPLE_POINTS[:5]:
            assert upsilon(merged, poly_field, y) == pytest.approx(
                upsilon(fa, poly_field, y) * upsilon(fb, poly_field, y), rel=1e-14
            )

    def test_against_symbolic_oracle(self, poly_field):
        cases = [
            mi((1, 0), (1, 1)),
            mi((0, 1), (1, 1)),  # deliberately not populated
            mi((2, 0), (2, 0), (2, 1)),
            Forest([mi((1, 0)), mi((1, 0), (2, 2))]),
            mi((0, 0), (1, 2), (2, 1)),
        ]
        for u in cases:
            for y in SAMPLE_POINTS:
                got = upsilon(u, poly_field, y)
                ref = sympy_upsilon(u, y)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_derivative_order_guard_propagates(self):
        f = VectorField.from_closures([[lambda y: 1.0], [lambda y: y]])
        with pytest.raises(DerivativeOrderError):
            upsilon(mi((1, 1), d=1), f, 0.0)

    def test_upsilon_sum_linearity(self, poly_field):
        s = FormalSum.of(mi((1, 0)), Fraction(2)) + FormalSum.of(mi((2, 1)), Fraction(-1, 3))
        for y in SAMPLE_POINTS[:3]:
            want = 2.0 * upsilon(mi((1, 0)), poly_field, y) - upsilon(mi((2, 1)), poly_field, y) / 3.0
            assert upsilon_sum(s, poly_field, y) == pytest.approx(want, rel=1e-14)


class TestUpsilonVectorField:
    def test_single_variable_identity_test_function(self, poly_field):
        ident = VectorField.polynomial([(0, 1)])
        for i in range(3):
            for k in range(2):
                for y in SAMPLE_POINTS[:4]:
                    assert upsilon_vf(mi((i, k)), poly_field, ident, y) == poly_field.derivative(i, k, y)

    def test_cardinality_two_annihilates_identity(self, poly_field):
        ident = VectorField.polynomial([(0, 1)])
        two = Forest([mi((1, 0)), mi((2, 0))])
        three = Forest([mi((1, 0)), mi((1, 0)), mi((0, 0))])
        for y in SAMPLE_POINTS:
            assert upsilon_vf(two, poly_field, ident, y) == 0.0
            assert upsilon_vf(three, poly_field, ident, y) == 0.0

    def test_linear_field_square_test(self):
        # f1 = y, psi = y^2: value at y=3 is f1 * psi' = 3 * 6 = 18
        f = VectorField.polynomial([(0,), (0, 1)])
        psi = VectorField.polynomial([(0, 0, 1)])
        assert upsilon_vf(mi((1, 0), d=1), f, psi, 3.0) == 18.0

    def test_insufficient_test_order(self, poly_field):
        psi = VectorField.from_closures([[lambda y: y, lambda y: 1.0]])
        two = Forest([mi((1, 0)), mi((2, 0))])
        with pytest.raises(DerivativeOrderError):
            upsilon_vf(two, poly_field, psi, 0.0)


# ---------------------------------------------------------------------------
# Operator composition: morphism, Leibniz, derivative identities
# ---------------------------------------------------------------------------


def _replace_component(forest, index, replacement):
    comps = list(forest.components)
    comps[index] = replacement
    return Forest(comps)


def _differentiate_rep(rep):
    """One derivative of Σ c·Υ[F]·ψ^{(s)}: product rule over components of F
    (through the raising derivation) plus the chain-rule shift of ψ."""
    out = {}
    for (forest, shift), coeff in rep.items():
        for idx, comp in enumerate(forest.components):
            for term, c in derivation_d(FormalSum.of(comp)).items():
                key = (_replace_component(forest, idx, term), shift)
                out[key] = out.get(key, Fraction(0)) + coeff * c
        key = (forest, shift + 1)
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def _apply_operator(forest, rep):
    """Compose: multiply by Υ[forest] after differentiating card(forest) times."""
    for _ in range(forest.cardinality()):
        rep = _differentiate_rep(rep)
    return {
        (forest.merge(inner), shift): coeff for (inner, shift), coeff in rep.items()
    }


def _eval_rep(rep, f, psi, y):
    total = 0.0
    for (forest, shift), coeff in rep.items():
        total += float(coeff) * upsilon(forest, f, y) * psi.derivative(0, shift, y)
    return total


def _forest_op_value(s, f, psi, y):
    """Σ c·Υ[F](ψ)(y) over a formal sum of forests."""
    total = 0.0
    for forest, coeff in s.items():
        total += float(coeff) * upsilon(forest, f, y) * psi.derivative(0, forest.cardinality(), y)
    return total


class TestOperatorIdentities:
    PSI = VectorField.polynomial([(0, 3, 1)])  # 3y + y^2
    PHI = VectorField.polynomial([(1, -2, 0, 0, 1)])  # 1 - 2y + y^4

    def test_product_morphism_exhaustive(self, poly_field):
        # value of the product forest == composition of the two operators,
        # all d=2 basis pairs of total degree <= 4, ten sample points
        basis = forest_basis(2, 4)
        checked = 0
        for u in basis:
            for v in basis:
                if u.degree() + v.degree() > 4:
                    continue
                product = gl_product(u, v)
                composed = _apply_operator(u, {(v, v.cardinality()): Fraction(1)})
                for y in SAMPLE_POINTS:
                    lhs = _forest_op_value(product, poly_field, self.PSI, y)
                    rhs = _eval_rep(composed, poly_field, self.PSI, y)
                    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
                checked += 1
        assert checked > 1000

    def test_split_leibniz_identity(self, poly_field):
        # splitting the forest against a product of test functions:
        # Σ Υ[u1](φ)·Υ[u2](ψ) == Υ[u](φ·ψ)
        phi_coeffs = (Fraction(1), Fraction(-2), Fraction(0), Fraction(0), Fraction(1))
        psi_coeffs = (Fraction(0), Fraction(3), Fraction(1))
        conv = [Fraction(0)] * (len(phi_coeffs) + len(psi_coeffs) - 1)
        for a, ca in enumerate(phi_coeffs):
            for b, cb in enumerate(psi_coeffs):
                conv[a + b] += ca * cb
        product_test = VectorField.polynomial([conv])
        for u in forest_basis(2, 4):
            for y in SAMPLE_POINTS:
                lhs = 0.0
                for (u1, u2), coeff in deshuffle(u).items():
                    lhs += (
                        float(coeff)
                        * upsilon(u1, poly_field, y) * self.PHI.derivative(0, u1.cardinality(), y)
                        * upsilon(u2, poly_field, y) * self.PSI.derivative(0, u2.cardinality(), y)
                    )
                rhs = upsilon(u, poly_field, y) * product_test.derivative(0, u.cardinality(), y)
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_derivative_identity_vs_oracle(self, poly_field):
        # d/dy Υ[z^α] == Υ[D z^α], the right side through the implementation,
        # the left side through symbolic differentiation
        cases = [
            mi((1, 0)),
            mi((1, 0), (1, 1)),
            mi((0, 0), (2, 1)),
            mi((2, 0), (2, 0), (1, 2)),
            mi((0, 1), (1, 0), (2, 2)),
        ]
        for alpha in cases:
            expr = sympy.Integer(1)
            for (i, k), m in alpha.entries:
                expr *= sympy.diff(_SYMPY_F[i], _Y, k) ** m
            d_expr = sympy.diff(expr, _Y)
            for y in SAMPLE_POINTS:
                got = upsilon_sum(derivation_d(FormalSum.of(alpha)), poly_field, y)
                ref = float(d_expr.subs(_Y, sympy.Float(y, 30)))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Translated fields
# ---------------------------------------------------------------------------


class TestTranslatedField:
    def test_identity_translation_is_f(self, poly_field):
        out = translated_field(poly_field, identity_characters(2))
        for i in range(3):
            for k in range(4):
                for y in SAMPLE_POINTS:
                    assert out.derivative(i, k, y) == poly_field.derivative(i, k, y)

    def test_ito_strat_drift_correction(self, poly_field):
        ells = identity_characters(2)
        ells[0] = ito_strat_character(2)
        out = translated_field(poly_field, ells)
        expr = _SYMPY_F[0] + sympy.Rational(1, 2) * sum(
            _SYMPY_F[j] * sympy.diff(_SYMPY_F[j], _Y) for j in (1, 2)
        )
        for k in range(3):
            want = sympy.diff(expr, _Y, k)
            for y in SAMPLE_POINTS:
                ref = float(want.subs(_Y, sympy.Float(y, 30)))
                assert out.derivative(0, k, y) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        # diffusion rows are untouched
        for j in (1, 2):
            for k in range(3):
                for y in SAMPLE_POINTS:
                    assert out.derivative(j, k, y) == poly_field.derivative(j, k, y)

    def test_translated_derivatives_match_finite_differences(self, poly_field):
        import numpy as np

        ells = identity_characters(2)
        ells[0] = ito_strat_character(2)
        out = translated_field(poly_field, ells)
        rng = np.random.default_rng(2718281828)
        points = rng.uniform(-2.0, 2.0, size=20)
        h = 1e-5
        for y in points:
            for i in range(3):
                fd = (out.derivative(i, 0, y + h) - out.derivative(i, 0, y - h)) / (2 * h)
                an = out.derivative(i, 1, y)
                assert abs(fd - an) <= 1e-6 * (1.0 + abs(an))

    def test_nontrivial_diffusion_character(self, poly_field):
        # direction-1 character with weight on z(1,0)z(1,1):
        # f1 -> f1 + c*f1*f1'
        ells = identity_characters(2)
        key = mi((1, 0), (1, 1))
        ells[1] = Character(1, {mi((1, 0)): Fraction(1), key: Fraction(1, 3)}, 2)
        out = translated_field(poly_field, ells)
        expr = _SYMPY_F[1] + sympy.Rational(1, 3) * _SYMPY_F[1] * sympy.diff(_SYMPY_F[1], _Y)
        for y in SAMPLE_POINTS:
            ref = float(expr.subs(_Y, sympy.Float(y, 30)))
            assert out.derivative(1, 0, y) == pytest.approx(ref, rel=1e-12)

    def test_wrong_character_count(self, poly_field):
        with pytest.raises(ValueError):
            translated_field(poly_field, identity_characters(1))

    def test_smoothness_budget_consumed(self):
        f = VectorField.from_closures(
            [
                [lambda y: 1.0, lambda y: 0.0, lambda y: 0.0],
                [lambda y: y, lambda y: 1.0, lambda y: 0.0],
            ]
        )
        ells = identity_characters(1)
        ells[0] = ito_strat_character(1)
        out = translated_field(f, ells)
        # a degree-2 character consumes one derivative order
        assert out.max_order == f.max_order - 1
        out.derivative(0, 1, 0.0)
        with pytest.raises(DerivativeOrderError):
            out.derivative(0, 2, 0.0)

    def test_budget_exhaustion_rejected_up_front(self):
        f = VectorField.from_closures([[lambda y: 1.0], [lambda y: y]])
        ells = identity_characters(1)
        ells[0] = ito_strat_character(1)
        with pytest.raises(DerivativeOrderError):
            translated_field(f, ells)

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_closure_twin_translates_like_its_polynomial(self, data):
        # P is a polynomial field and `twin` reads P's own derivatives through
        # closures up to order K, so only the translation paths differ: exact
        # rows for P, a float sum of Υ_P over T_ℓ z(i,k) for the twin.  The
        # twin's budget is K − (max(1, support degree) − 1); every order
        # within it agrees to 1e-12 relative to the majorant (|P| translated
        # by |ℓ| at |y|, which bounds every term either side sums, so
        # cancellation cannot fake a failure), and the next order raises.
        d = data.draw(st.integers(1, 2), label="d")
        coeff = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
        rows = [data.draw(st.lists(coeff, min_size=1, max_size=4)) for _ in range(d + 1)]
        pool = enumerate_populated(d, 3)
        ells = []
        for i in range(d + 1):
            keys = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
            ells.append(Character(i, {key: data.draw(coeff) for key in keys}, d))
        support = max(1, max(ell.support_degree() for ell in ells))
        K = data.draw(st.integers(support - 1, support + 2), label="K")

        P = VectorField.polynomial(rows)
        twin = VectorField.from_closures(
            [[lambda y, i=i, k=k: P.derivative(i, k, y) for k in range(K + 1)]
             for i in range(d + 1)]
        )
        exact = translated_field(P, ells)
        generic = translated_field(twin, ells)
        majorant = translated_field(
            VectorField.polynomial([[abs(c) for c in row] for row in rows]),
            [Character(i, {key: abs(v) for key, v in ell.terms.items()}, d)
             for i, ell in enumerate(ells)],
        )
        budget = K - (support - 1)
        assert generic.max_order == budget
        for y in (-1.3, -0.4, 0.0, 0.7, 1.9):
            for i in range(d + 1):
                for k in range(budget + 1):
                    got = generic.derivative(i, k, y)
                    want = exact.derivative(i, k, y)
                    scale = majorant.derivative(i, k, abs(y))
                    assert abs(got - want) <= 1e-12 * scale, (i, k, y, got, want)
                with pytest.raises(DerivativeOrderError):
                    generic.derivative(i, budget + 1, y)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


#: Wall-clock budget for reading one field row of 300 coefficients.
LONG_ROW_BUDGET_S = 3.0


class TestVectorFieldJson:
    def test_round_trip(self, poly_field):
        text = json.dumps(vector_field_payload(poly_field))
        back = vector_field_from_json(text)
        assert back.poly_coeffs == poly_field.poly_coeffs

    def test_decimal_and_rational_rendering(self):
        f = VectorField.polynomial([(Fraction(1, 2),), (Fraction(1, 3), 2)])
        text = json.dumps(vector_field_payload(f))
        assert '"0.5"' in text
        assert '"1/3"' in text
        assert vector_field_from_json(text).poly_coeffs == f.poly_coeffs

    def test_non_polynomial_rejected(self):
        f = VectorField.from_closures([[lambda y: 1.0], [lambda y: y]])
        with pytest.raises(ValueError):
            vector_field_payload(f)

    def test_linear_field_round_trips(self):
        f = VectorField.linear([0.5, -2.0])
        assert f.poly_coeffs == ((0, Fraction(1, 2)), (0, -2))
        doc = vector_field_payload(f)
        assert doc == {
            "d": 1,
            "fields": [{"i": 0, "coeffs": ["0", "0.5"]}, {"i": 1, "coeffs": ["0", "-2"]}],
        }
        back = vector_field_from_json(doc)
        assert back.poly_coeffs == f.poly_coeffs
        assert back.derivative(1, 0, 3.0) == f.derivative(1, 0, 3.0) == -6.0

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            vector_field_from_json('{"d": 1, "fields": [{"i": 5, "coeffs": ["1"]}]}')

    def test_text_repeating_a_key_is_refused(self):
        doc = '{"d": 1, "fields": [{"i": 1, "coeffs": ["1"], "coeffs": ["2"]}]}'
        with pytest.raises(ValueError, match="the key 'coeffs' appears twice"):
            vector_field_from_json(doc)

    def test_d_above_its_bound_is_refused(self):
        # the reader used to build d + 1 rows first: 47 MB at d = 200000
        assert vector_field_from_json({"d": 6, "fields": []}).d == 6
        with pytest.raises(ValueError, match="^d must be at most 6, got 200000$"):
            vector_field_from_json({"d": 200000, "fields": []})

    def test_long_coefficient_row_reads_within_budget(self):
        # each derivative of a row is checked against the float range; taking
        # every order from scratch made this row take about 30 s, against
        # 0.2 s for taking each order from the one before
        start = time.perf_counter()
        f = vector_field_from_json({"d": 1, "fields": [{"i": 1, "coeffs": ["1e-1000"] * 300}]})
        assert time.perf_counter() - start < LONG_ROW_BUDGET_S
        assert f.poly_coeffs[1] == (Fraction(1, 10**1000),) * 300
