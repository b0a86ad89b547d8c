"""Vector fields, their elementary differentials, and translated fields.

The state space is scalar throughout.  A :class:`VectorField` bundles one
scalar coefficient function per letter — f₀ for the time letter, f₁…f_d for
the driving signals — together with a derivative provider ``(i, k, y) ↦
f_i^{(k)}(y)``.  Three variants cover the use cases: exact polynomials
(differentiated symbolically over ℚ, evaluated in binary64), closures with
caller-supplied derivatives up to a declared order, and linear fields with
all orders in closed form.

``upsilon`` evaluates the elementary differential of a monomial or forest:
the product Π f_i^{(k)}(y)^{β(i,k)} over the variables, multiplied across
components.  ``translated_field`` builds f^ℓ from per-direction characters;
its derivatives come from the raising derivation — (Υ_f[z^α])′ = Υ_f[D z^α]
— never from numerical differentiation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import Forest, FormalSum, MultiIndex, derivation_d
from .grammar import _json_int

__all__ = [
    "DerivativeOrderError",
    "VectorField",
    "SmoothTest",
    "upsilon",
    "upsilon_sum",
    "upsilon_vf",
    "translated_field",
    "vector_field_to_json",
    "vector_field_from_json",
]


class DerivativeOrderError(ValueError):
    """A derivative beyond the declared smoothness order was requested."""


def _poly_derivative(coeffs: tuple[Fraction, ...], k: int) -> tuple[Fraction, ...]:
    out = coeffs
    for _ in range(k):
        out = tuple(out[j] * j for j in range(1, len(out)))
    return out


def _horner_rows(exact_row: Callable) -> Callable[[int, int, float], float]:
    """(i, k, y) ↦ the polynomial ``exact_row(i, k)`` at y by Horner's rule,
    over a float copy of its coefficients made once per (i, k)."""
    rows: dict[tuple[int, int], tuple[float, ...]] = {}

    def at(i: int, k: int, y: float) -> float:
        row = rows.get((i, k))
        if row is None:
            row = rows[i, k] = tuple(float(c) for c in exact_row(i, k))
        acc = 0.0
        for c in reversed(row):
            acc = acc * y + c
        return acc

    return at


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def _poly_monomial_upsilon(
    key: MultiIndex, table: tuple[tuple[Fraction, ...], ...]
) -> tuple[Fraction, ...]:
    """Exact coefficients of Υ_f[z^β] for a polynomial field table."""
    out: tuple[Fraction, ...] = (Fraction(1),)
    for (i, k), m in key.entries:
        factor = _poly_derivative(table[i], k)
        for _ in range(m):
            out = _poly_mul(out, factor)
    return out


@dataclass(frozen=True)
class VectorField:
    """Scalar coefficient functions f_0..f_d with a derivative provider.

    ``max_order`` is the largest usable derivative order (None = unlimited);
    requests beyond it raise :class:`DerivativeOrderError`.  ``bounded``
    is a declaration consumed by solution reports, not enforced here.
    """

    d: int
    variant: str
    provider: Callable[[int, int, float], float]
    max_order: int | None = None
    bounded: bool = False
    poly_coeffs: tuple[tuple[Fraction, ...], ...] | None = None

    def derivative(self, i: int, k: int, y: float) -> float:
        if not 0 <= i <= self.d:
            raise ValueError(f"letter {i} outside 0..{self.d}")
        if k < 0:
            raise ValueError(f"negative derivative order {k}")
        if self.max_order is not None and k > self.max_order:
            raise DerivativeOrderError(
                f"order-{k} derivative of f_{i} requested, but only "
                f"{self.max_order} orders are available"
            )
        return self.provider(i, k, y)

    def __call__(self, i: int, y: float) -> float:
        return self.derivative(i, 0, y)

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, *, bounded: bool = False) -> "VectorField":
        """Exact polynomial fields: ``coeffs[i][j]`` is the yʲ coefficient of
        f_i (anything Fraction() accepts).  Derivatives of order beyond the
        degree are exactly 0.0."""
        table = tuple(tuple(Fraction(c) for c in row) for row in coeffs)
        if len(table) < 1:
            raise ValueError("need at least the drift row f_0")
        return cls(
            d=len(table) - 1,
            variant="polynomial",
            provider=_horner_rows(lambda i, k: _poly_derivative(table[i], k)),
            max_order=None,
            bounded=bounded,
            poly_coeffs=table,
        )

    @classmethod
    def linear(cls, slopes, *, bounded: bool = False) -> "VectorField":
        """f_i(y) = a_i · y with every derivative order in closed form."""
        a = tuple(float(s) for s in slopes)
        if len(a) < 1:
            raise ValueError("need at least the drift slope a_0")

        def provider(i: int, k: int, y: float) -> float:
            if k == 0:
                return a[i] * y
            if k == 1:
                return a[i]
            return 0.0

        return cls(d=len(a) - 1, variant="linear", provider=provider, bounded=bounded)

    @classmethod
    def from_closures(
        cls, derivative_lists: Sequence[Sequence[Callable[[float], float]]],
        *, bounded: bool = False,
    ) -> "VectorField":
        """``derivative_lists[i] = [f_i, f_i′, f_i″, …]``; the usable order is
        the shortest list minus one."""
        rows = tuple(tuple(row) for row in derivative_lists)
        if len(rows) < 1 or any(len(r) < 1 for r in rows):
            raise ValueError("every letter needs at least the order-0 function")
        max_order = min(len(r) for r in rows) - 1

        def provider(i: int, k: int, y: float) -> float:
            return rows[i][k](y)

        return cls(
            d=len(rows) - 1,
            variant="closure",
            provider=provider,
            max_order=max_order,
            bounded=bounded,
        )


@dataclass(frozen=True)
class SmoothTest:
    """A scalar test function with derivatives up to ``max_order``."""

    provider: Callable[[int, float], float]
    max_order: int | None = None

    def derivative(self, k: int, y: float) -> float:
        if self.max_order is not None and k > self.max_order:
            raise DerivativeOrderError(
                f"test function provides {self.max_order} orders, order {k} requested"
            )
        return self.provider(k, y)

    @classmethod
    def identity(cls) -> "SmoothTest":
        def provider(k: int, y: float) -> float:
            if k == 0:
                return y
            if k == 1:
                return 1.0
            return 0.0

        return cls(provider=provider)

    @classmethod
    def polynomial(cls, coeffs) -> "SmoothTest":
        table = tuple(Fraction(c) for c in coeffs)
        at = _horner_rows(lambda _, k: _poly_derivative(table, k))
        return cls(provider=lambda k, y: at(0, k, y))


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------


def upsilon(u: Forest | MultiIndex, f: VectorField, y: float) -> float:
    """Π_{(i,k)} f_i^{(k)}(y)^{β(i,k)} per monomial, multiplied over forest
    components; 1 on the empty forest.

    Defined for arbitrary monomials — the derivative identity evaluates it on
    images of D, whose terms are deliberately not populated.
    """
    if isinstance(u, MultiIndex):
        out = 1.0
        for (i, k), m in u.entries:
            out *= f.derivative(i, k, y) ** m
        return out
    prod = 1.0
    for c in u.components:
        prod *= upsilon(c, f, y)
    return prod


def upsilon_sum(s: FormalSum, f: VectorField, y: float) -> float:
    """Linear extension of :func:`upsilon` to formal sums of monomials."""
    total = 0.0
    for mi, coeff in s.items():
        total += float(coeff) * upsilon(mi, f, y)
    return total


def upsilon_vf(u: Forest | MultiIndex, f: VectorField, psi: SmoothTest, y: float) -> float:
    """Elementary vector field applied to a test function:
    Υ[Π z^{β_j}](ψ)(y) = Π Υ[z^{β_j}](y) · ψ^{(card)}(y)."""
    if isinstance(u, MultiIndex):
        u = Forest([u]) if not u.is_empty else Forest()
    return upsilon(u, f, y) * psi.derivative(u.cardinality(), y)


# ---------------------------------------------------------------------------
# Translated fields
# ---------------------------------------------------------------------------


def translated_field(
    f: VectorField, ells: Sequence, max_norm: int
) -> VectorField:
    """Replace each coefficient function by its character-weighted expansion

        f_i^ℓ(y) = Σ_{z^β ∈ supp ℓ_i} ℓ_i(z^β)/S(z^β) · Υ_f[z^β](y),

    with derivatives produced algebraically: ∂^k Υ_f[z^β] = Υ_f[D^k z^β].

    ``ells`` supplies one character per letter 0..d (objects with a
    ``direction`` and a ``terms`` mapping of populated multi-indices to exact
    rationals).  Support outside degree ``max_norm`` is rejected.

    A polynomial input yields a polynomial output with exact coefficient
    rows (the expansion is a ℚ-linear combination of products of exact
    polynomial derivatives), so translated polynomial fields serialize and
    differentiate to any order.  Other variants keep their providers and
    pay one derivative order per extra character degree.
    """
    if len(ells) != f.d + 1:
        raise ValueError(f"need {f.d + 1} characters (letters 0..{f.d}), got {len(ells)}")
    support_degree = 1
    for i, ell in enumerate(ells):
        if getattr(ell, "direction", i) != i:
            raise ValueError(f"character at slot {i} has direction {ell.direction}")
        for key in ell.terms:
            if key.degree() > max_norm:
                raise ValueError(
                    f"character for letter {i} supported on {key!r} of degree "
                    f"{key.degree()}, beyond truncation {max_norm}"
                )
            support_degree = max(support_degree, key.degree())

    if f.variant == "polynomial" and f.poly_coeffs is not None:
        rows = []
        for i in range(f.d + 1):
            total: tuple[Fraction, ...] = (Fraction(0),)
            for key, coeff in ells[i].terms.items():
                weight = Fraction(coeff) / key.symmetry_factor()
                scaled = tuple(
                    weight * c for c in _poly_monomial_upsilon(key, f.poly_coeffs)
                )
                total = _poly_add(total, scaled)
            rows.append(total)
        return VectorField.polynomial(rows, bounded=f.bounded)

    # exact expansion of ∂^k f_i^ℓ as a formal sum of monomials, built once
    expansions: dict[tuple[int, int], FormalSum] = {}

    def expansion(i: int, k: int) -> FormalSum:
        got = expansions.get((i, k))
        if got is not None:
            return got
        if k == 0:
            total = FormalSum(
                {
                    key: Fraction(coeff, key.symmetry_factor())
                    for key, coeff in ells[i].terms.items()
                }
            )
        else:
            total = derivation_d(expansion(i, k - 1))
        expansions[(i, k)] = total
        return total

    def provider(i: int, k: int, y: float) -> float:
        return upsilon_sum(expansion(i, k), f, y)

    max_order = None
    if f.max_order is not None:
        max_order = f.max_order - (support_degree - 1)
        if max_order < 0:
            raise DerivativeOrderError(
                f"translating a field with {f.max_order} derivative orders by "
                f"characters of degree {support_degree} leaves no usable orders"
            )
    return VectorField(
        d=f.d,
        variant="translated",
        provider=provider,
        max_order=max_order,
        bounded=f.bounded,
    )


# ---------------------------------------------------------------------------
# Serialization (polynomial variant)
# ---------------------------------------------------------------------------


def _fraction_string(x: Fraction) -> str:
    num, den = x.numerator, x.denominator
    scale = 0
    while den % 2 == 0:
        den //= 2
        scale += 1
    tens = 0
    while den % 5 == 0:
        den //= 5
        tens += 1
    if den == 1:
        # exact decimal representation exists
        shift = max(scale, tens)
        digits = num * 10**shift // x.denominator
        if shift == 0:
            return str(digits)
        text = f"{abs(digits):0{shift + 1}d}"
        sign = "-" if digits < 0 else ""
        return f"{sign}{text[:-shift]}.{text[-shift:]}"
    return f"{x.numerator}/{x.denominator}"


def vector_field_to_json(f: VectorField) -> str:
    if f.variant != "polynomial" or f.poly_coeffs is None:
        raise ValueError(f"only polynomial fields serialize to JSON, got {f.variant!r}")
    payload = {
        "d": f.d,
        "fields": [
            {"i": i, "coeffs": [_fraction_string(c) for c in row]}
            for i, row in enumerate(f.poly_coeffs)
            if any(c != 0 for c in row)
        ],
    }
    return json.dumps(payload, indent=2)


def vector_field_from_json(doc: str | Mapping) -> VectorField:
    """Read a polynomial field from its JSON text or the already-parsed document."""
    payload = json.loads(doc) if isinstance(doc, str) else doc
    d = _json_int(payload, "d")
    rows: list[list[Fraction]] = [[Fraction(0)] for _ in range(d + 1)]
    for entry in payload.get("fields", []):
        i = _json_int(entry, "i")
        if not 0 <= i <= d:
            raise ValueError(f"field letter {i} outside 0..{d}")
        if not isinstance(entry["coeffs"], list):
            raise ValueError(f"field letter {i}: coeffs must be a JSON list")
        rows[i] = [Fraction(str(c)) for c in entry["coeffs"]]
        try:
            for k in range(len(rows[i])):
                for c in _poly_derivative(tuple(rows[i]), k):
                    float(c)  # OverflowError beyond the float range
        except OverflowError:
            raise ValueError(
                f"field letter {i}: a coefficient of f_{i} or of one of its "
                "derivatives is not finite as a float"
            ) from None
    return VectorField.polynomial(rows)
