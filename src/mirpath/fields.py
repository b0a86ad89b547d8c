"""Vector fields and their elementary differentials.

The state space is scalar throughout.  A :class:`VectorField` bundles one
scalar coefficient function per letter — f₀ for the time letter, f₁…f_d for
the driving signals — together with a derivative provider ``(i, k, y) ↦
f_i^{(k)}(y)``.  A field is polynomial exactly when it carries exact rows
``poly_coeffs`` (differentiated symbolically over ℚ, evaluated in binary64;
a linear field is the polynomial with rows (0, a_i)); any other field reads
caller-supplied derivatives up to a declared order.  A scalar test function
ψ is a one-row field, read as ``psi.derivative(0, k, y)``.

``upsilon`` evaluates the elementary differential of a monomial or forest:
the product Π f_i^{(k)}(y)^{β(i,k)} over the variables, multiplied across
components.  The translated field f^ℓ is built in
:mod:`mirpath.translation`, from the translated generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import Forest, FormalSum, MultiIndex
from .grammar import _MISSING, _json_int, _json_value

__all__ = [
    "DerivativeOrderError",
    "VectorField",
    "upsilon",
    "upsilon_sum",
    "upsilon_vf",
    "vector_field_payload",
    "vector_field_from_json",
]


class DerivativeOrderError(ValueError):
    """A derivative beyond the declared smoothness order was requested."""


def _poly_derivative(coeffs: tuple[Fraction, ...], k: int) -> tuple[Fraction, ...]:
    out = coeffs
    for _ in range(k):
        out = tuple(out[j] * j for j in range(1, len(out)))
    return out


def _horner_rows(
    table: tuple[tuple[Fraction, ...], ...]
) -> Callable[[int, int, float], float]:
    """(i, k, y) ↦ the k-th derivative of the exact row ``table[i]`` at y by
    Horner's rule, over a float copy of its coefficients made once per (i, k)."""
    rows: dict[tuple[int, int], tuple[float, ...]] = {}

    def at(i: int, k: int, y: float) -> float:
        row = rows.get((i, k))
        if row is None:
            row = rows[i, k] = tuple(float(c) for c in _poly_derivative(table[i], k))
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
    requests beyond it raise :class:`DerivativeOrderError`.  ``poly_coeffs``
    holds the exact rows of a polynomial field and is None for any other.
    """

    d: int
    provider: Callable[[int, int, float], float]
    max_order: int | None = None
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "VectorField":
        """Exact polynomial fields: ``coeffs[i][j]`` is the yʲ coefficient of
        f_i (anything Fraction() accepts).  Derivatives of order beyond the
        degree are exactly 0.0."""
        table = tuple(tuple(Fraction(c) for c in row) for row in coeffs)
        if len(table) < 1:
            raise ValueError("need at least the drift row f_0")
        return cls(d=len(table) - 1, provider=_horner_rows(table), poly_coeffs=table)

    @classmethod
    def linear(cls, slopes) -> "VectorField":
        """f_i(y) = a_i · y: the polynomial field with rows (0, a_i)."""
        return cls.polynomial([(0, a) for a in slopes])

    @classmethod
    def from_closures(
        cls, derivative_lists: Sequence[Sequence[Callable[[float], float]]]
    ) -> "VectorField":
        """``derivative_lists[i] = [f_i, f_i′, f_i″, …]``; the usable order is
        the shortest list minus one."""
        rows = tuple(tuple(row) for row in derivative_lists)
        if len(rows) < 1 or any(len(r) < 1 for r in rows):
            raise ValueError("every letter needs at least the order-0 function")
        max_order = min(len(r) for r in rows) - 1

        def provider(i: int, k: int, y: float) -> float:
            return rows[i][k](y)

        return cls(d=len(rows) - 1, provider=provider, max_order=max_order)


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


def upsilon_vf(u: Forest | MultiIndex, f: VectorField, psi: VectorField, y: float) -> float:
    """Elementary vector field applied to the test function ψ, the one-row
    field ``psi``: Υ[Π z^{β_j}](ψ)(y) = Π Υ[z^{β_j}](y) · ψ^{(card)}(y)."""
    if isinstance(u, MultiIndex):
        u = Forest([u]) if not u.is_empty else Forest()
    return upsilon(u, f, y) * psi.derivative(0, u.cardinality(), y)


# ---------------------------------------------------------------------------
# Serialization (polynomial fields)
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


def vector_field_payload(f: VectorField) -> dict:
    """The JSON document of a polynomial field, as a dict: one exact
    coefficient row per letter whose polynomial is not zero."""
    if f.poly_coeffs is None:
        raise ValueError("only polynomial fields serialize to JSON")
    return {
        "d": f.d,
        "fields": [
            {"i": i, "coeffs": [_fraction_string(c) for c in row]}
            for i, row in enumerate(f.poly_coeffs)
            if any(c != 0 for c in row)
        ],
    }


def vector_field_from_json(doc: str | Mapping) -> VectorField:
    """Read a polynomial field from its JSON text or the already-parsed document."""
    payload = _json_value(doc, "document", "a vector field")
    d = _json_int(payload, "d")
    rows: list[list[Fraction]] = [[Fraction(0)] for _ in range(d + 1)]
    listed: set[int] = set()
    for n, entry in enumerate(_json_value(payload.get("fields", []), "list", "fields")):
        i = _json_int(_json_value(entry, "object", f"field entry {n}"), "i")
        if not 0 <= i <= d:
            raise ValueError(f"field letter {i} outside 0..{d}")
        if i in listed:
            raise ValueError(f"field letter {i} is listed twice")
        listed.add(i)
        coeffs = _json_value(entry.get("coeffs", _MISSING), "list", "coeffs")
        rows[i] = [_json_value(c, "rational", f"coefficient {k} of field letter {i}")
                   for k, c in enumerate(coeffs)]
        derivative = rows[i]
        try:
            while derivative:
                for c in derivative:
                    float(c)  # OverflowError beyond the float range
                derivative = _poly_derivative(derivative, 1)
        except OverflowError:
            raise ValueError(
                f"field letter {i}: a coefficient of f_{i} or of one of its "
                "derivatives is not finite as a float"
            ) from None
    return VectorField.polynomial(rows)
