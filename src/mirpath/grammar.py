"""Canonical text form for multi-indices, forests, and formal sums.

The surface syntax is deliberately tiny:

* a multi-index is a concatenation of factors ``z(i,k)`` or ``z(i,k)^m``
  with ``m >= 1``, e.g. ``z(1,0)z(1,1)^2``;
* a forest joins its components with ``*``; the bare token ``1`` denotes
  the empty forest (equally the empty multi-index);
* a formal sum is a run of signed summands ``+(p/q) term`` / ``-(p/q) term``
  (the denominator may be omitted when it is 1), or the single token ``0``;
* whitespace is ignored everywhere.

Formatting always emits the canonical order, so ``format(parse(s))`` is a
normal form and ``parse(format(x)) == x`` exactly.  These strings double as
the keys of every JSON payload elsewhere in the package, which is why the
formatter never emits whitespace inside a term.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import EMPTY_FOREST, Forest, FormalSum, MultiIndex

__all__ = [
    "ParseError",
    "parse_multi_index",
    "parse_forest",
    "parse_formal_sum",
    "format_multi_index",
    "format_forest",
    "format_formal_sum",
]


class ParseError(ValueError):
    """Raised on malformed input; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def integer(self, *, allow_sign: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _scan_factor(sc: _Scanner) -> tuple[int, int, int]:
    """One ``z(i,k)`` or ``z(i,k)^m`` factor → (i, k, m)."""
    start = sc.pos
    sc.take("z")
    sc.take("(")
    i = sc.integer(allow_sign=True)
    if i < 0:
        raise ParseError(f"negative letter {i}", start)
    sc.take(",")
    k = sc.integer(allow_sign=True)
    if k < 0:
        raise ParseError(f"negative arity {k}", start)
    sc.take(")")
    m = 1
    if sc.peek() == "^":
        sc.take("^")
        mstart = sc.pos
        m = sc.integer()
        if m == 0:
            raise ParseError("zero exponent", mstart)
    return i, k, m


def _scan_multi_index(sc: _Scanner, d: int | None) -> MultiIndex:
    entries: dict[tuple[int, int], int] = {}
    saw = False
    max_letter = 0
    while sc.peek() == "z":
        i, k, m = _scan_factor(sc)
        entries[(i, k)] = entries.get((i, k), 0) + m
        max_letter = max(max_letter, i)
        saw = True
    if not saw:
        raise ParseError("expected a factor z(i,k)", sc.pos)
    letters = (d + 1) if d is not None else max(max_letter + 1, 2)
    if d is not None and max_letter > d:
        raise ParseError(f"letter {max_letter} exceeds alphabet 0..{d}", sc.pos)
    return MultiIndex(entries, letters)


def parse_multi_index(text: str, d: int | None = None) -> MultiIndex:
    """Parse a single multi-index; ``1`` gives the empty monomial.

    With ``d`` given, letters are validated against the alphabet ``0..d``;
    otherwise the smallest alphabet containing the input (at least ``d=1``)
    is inferred.
    """
    sc = _Scanner(text)
    if sc.peek() == "1":
        sc.take("1")
        out = MultiIndex((), (d + 1) if d is not None else 2)
    else:
        out = _scan_multi_index(sc, d)
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    return out


def parse_forest(text: str, d: int | None = None) -> Forest:
    """Parse ``mi * mi * …`` into a forest; ``1`` is the empty forest."""
    sc = _Scanner(text)
    if sc.peek() == "1":
        sc.take("1")
        if not sc.at_end():
            raise ParseError("trailing input", sc.pos)
        return EMPTY_FOREST
    comps = [_scan_multi_index(sc, d)]
    while sc.peek() == "*":
        sc.take("*")
        comps.append(_scan_multi_index(sc, d))
    if not sc.at_end():
        raise ParseError("trailing input", sc.pos)
    if d is None:
        letters = max(c.letters for c in comps)
        comps = [MultiIndex(c.entries, letters) for c in comps]
    return Forest(comps)


def parse_formal_sum(text: str, d: int | None = None) -> FormalSum:
    """Parse ``+(p/q) term -(p/q) term …`` into a sum of forests."""
    sc = _Scanner(text)
    if sc.peek() == "0":
        sc.take("0")
        if not sc.at_end():
            raise ParseError("trailing input", sc.pos)
        return FormalSum.zero()
    terms: dict[Forest, Fraction] = {}
    comps_seen: list[Forest] = []
    while not sc.at_end():
        sign_pos = sc.pos
        ch = sc.peek()
        if ch not in "+-":
            raise ParseError("expected '+' or '-' before a summand", sign_pos)
        sc.take(ch)
        sign = 1 if ch == "+" else -1
        sc.take("(")
        num = sc.integer(allow_sign=True)
        den = 1
        if sc.peek() == "/":
            sc.take("/")
            dstart = sc.pos
            den = sc.integer()
            if den == 0:
                raise ParseError("zero denominator", dstart)
        sc.take(")")
        if sc.peek() == "1":
            sc.take("1")
            forest = EMPTY_FOREST
        else:
            comps = [_scan_multi_index(sc, d)]
            while sc.peek() == "*":
                sc.take("*")
                comps.append(_scan_multi_index(sc, d))
            forest = Forest(comps)
        comps_seen.append(forest)
        terms[forest] = terms.get(forest, 0) + Fraction(sign * num, den)
    if d is None and comps_seen:
        letters = max(
            (c.letters for f in comps_seen for c in f.components), default=2
        )
        rebuilt: dict[Forest, Fraction] = {}
        for f, c in terms.items():
            key = Forest(MultiIndex(x.entries, letters) for x in f.components)
            rebuilt[key] = rebuilt.get(key, 0) + c
        terms = rebuilt
    return FormalSum(terms)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _json_int(payload: dict, key: str) -> int:
    """``payload[key]``, which must be a JSON integer: ``true``, ``2.7`` and
    ``"3"`` raise instead of being read as 1, 2 and 3."""
    value = payload[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def format_multi_index(mi: MultiIndex) -> str:
    if mi.is_empty:
        return "1"
    parts = []
    for (i, k), m in mi.entries:
        parts.append(f"z({i},{k})" if m == 1 else f"z({i},{k})^{m}")
    return "".join(parts)


def format_forest(f: Forest) -> str:
    if f.is_empty:
        return "1"
    return "*".join(format_multi_index(c) for c in f.components)


def _format_basis(b) -> str:
    if isinstance(b, MultiIndex):
        return format_multi_index(b)
    if isinstance(b, Forest):
        return format_forest(b)
    if isinstance(b, tuple):  # tensor factors, repr convenience only
        return " ⊗ ".join(_format_basis(x) for x in b)
    return repr(b)


def _sort_key(b):
    if isinstance(b, MultiIndex):
        return (0, b.degree(), b.entries)
    if isinstance(b, Forest):
        return (1, b.degree(), tuple(c.entries for c in b.components))
    return (2, 0, tuple(_sort_key(x) for x in b))


def format_formal_sum(s: FormalSum) -> str:
    """Deterministic rendering, summands ordered by (degree, canonical)."""
    if not s:
        return "0"
    chunks = []
    for b in sorted(s.terms, key=_sort_key):
        c = s.terms[b]
        sign = "+" if c >= 0 else "-"
        mag = -c if c < 0 else c
        coeff = f"({mag.numerator}/{mag.denominator})" if mag.denominator != 1 else f"({mag.numerator})"
        chunks.append(f"{sign}{coeff} {_format_basis(b)}")
    return " ".join(chunks)
