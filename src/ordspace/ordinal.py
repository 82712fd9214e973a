"""Exact arithmetic for ordinals below epsilon-zero, in Cantor normal form.

An ordinal is the tuple of its CNF terms: (exponent, coefficient) pairs
with exponents (themselves ordinals) strictly decreasing and integer
coefficients >= 1.  The empty tuple is 0, and the denoted ordinal is
sum of w^exponent_i * coefficient_i.  Tuple equality, hashing and order
are therefore the ordinal ones (see compare).

Text notation (whitespace insignificant):

    ordinal := "0" | term ("+" term)*
    term    := "w^(" ordinal ")" ("*" nat)? | "w" ("*" nat)? | nat
    nat     := [1-9][0-9]*

"w" alone is accepted as shorthand for "w^(1)", and "w^(" may nest at most
MAX_NESTING deep.  The formatter emits terms in strictly decreasing exponent
order, writing "w" for the exponent-1 term and omitting "*1" coefficients,
so formatting is canonical.
"""

from __future__ import annotations

import copyreg
from collections.abc import Iterable


class ParseError(ValueError):
    """Ordinal notation syntax error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Ordinal(tuple):
    """An ordinal below epsilon-zero in Cantor normal form: the tuple of its terms.

    ``len(a)`` is the number of terms, iteration yields the pairs and
    ``a == tuple(a)``, so ``ZERO == ()``.  ``+`` and ``*`` raise TypeError
    instead of joining or repeating terms: use :func:`add` and :func:`mul_nat`.
    ``Ordinal(terms)`` checks CNF; copy and every pickle protocol rebuild
    through it.
    Construct via :func:`from_int`, :func:`omega_pow`, :func:`parse` or the
    arithmetic functions rather than by passing raw term tuples.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple["Ordinal", int]] = ()):
        return tuple.__new__(cls, _validated(terms))

    @property
    def terms(self) -> "Ordinal":
        """The CNF term tuple, which is the ordinal itself."""
        return self

    def _no_arithmetic(self, other):
        raise TypeError("use add() and mul_nat() for ordinal arithmetic")

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    # ---- structural predicates ------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def is_successor(self) -> bool:
        return bool(self) and not self[-1][0]

    def __int__(self) -> int:
        if not self:
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self[0][1]

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


# protocols 0 and 1 would otherwise rebuild a tuple subclass with tuple.__new__
copyreg.pickle(Ordinal, lambda a: (Ordinal, (tuple(a),)))


def _validated(terms: Iterable[tuple[Ordinal, int]]) -> tuple:
    """The terms as a tuple, after checking that they are in CNF."""
    terms = tuple(terms)
    for exp, coeff in terms:
        if not isinstance(exp, Ordinal) or type(coeff) is not int:
            raise TypeError("terms must be (Ordinal, int) pairs")
        if coeff < 1:
            raise ValueError("coefficients must be >= 1")
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e1 <= e2:
            raise ValueError("exponents must be strictly decreasing")
    return terms


# Exponents nest at most this deep in notation: w^(w^(...)) with at most
# MAX_NESTING open "w^(".  It keeps the recursive tuple compare, formatter
# and encoders far from Python's recursion limit.
MAX_NESTING = 100

ZERO = Ordinal()
# The naturals below _SMALL, built once: every small natural a constructor
# below returns is one of these objects, so equal small exponents are
# identical and tuple comparison stops at the identity check.
_SMALL = 256
_NATURALS = (ZERO,) + tuple(Ordinal(((ZERO, n),)) for n in range(1, _SMALL))
ONE = _NATURALS[1]
OMEGA = Ordinal(((ONE, 1),))


def _trusted(terms: tuple) -> Ordinal:
    """The Ordinal with these terms, which must already be in CNF; checks nothing."""
    if not terms:
        return ZERO
    if len(terms) == 1:
        e, c = terms[0]
        if not e and c < _SMALL:
            return _NATURALS[c]
    return tuple.__new__(Ordinal, terms)


def from_int(n: int) -> Ordinal:
    if type(n) is not int:
        raise TypeError(f"cannot interpret {n!r} as a natural number")
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return _NATURALS[n] if n < _SMALL else _trusted(((ZERO, n),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on ordinals: -1, 0 or 1.

    CNF order is lexicographic on the terms, exponents first (recursively),
    then coefficients, with a proper prefix smaller.  That is tuple order on
    the (exponent, coefficient) pairs, since every constructor yields CNF.
    """
    return (a > b) - (a < b)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (non-commutative, absorbs small left terms)."""
    # Slices of an ordinal are plain tuples, so a[:i] + b joins terms.
    if not b:
        return a
    eb, cb = b[0]
    for i, (ea, ca) in enumerate(a):
        c = compare(ea, eb)
        if c < 0:
            return _trusted(a[:i] + b)
        if c == 0:
            return _trusted(a[:i] + ((eb, ca + cb),) + b[1:])
    return _trusted(a[:] + b)


def mul_nat(a: Ordinal, k: int) -> Ordinal:
    """Ordinal product a * k for a natural k >= 1."""
    if type(k) is not int:
        raise TypeError("k must be an int")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not a:
        return ZERO
    (e0, c0), tail = a[0], a[1:]
    return _trusted(((e0, c0 * k),) + tail)


def omega_pow(a: Ordinal) -> Ordinal:
    """w^a as a single-term CNF ordinal."""
    return _trusted(((a, 1),))


def omega_mul(mu: Ordinal, x: Ordinal) -> Ordinal:
    """Left product w^mu * x; shifts every CNF exponent of x up by mu."""
    return _trusted(tuple([(add(mu, e), c) for e, c in x]))


def leading_exponent(a: Ordinal) -> Ordinal:
    if a.is_zero():
        raise ValueError("zero has no leading exponent")
    return a[0][0]


def last_exponent(a: Ordinal) -> Ordinal:
    if a.is_zero():
        raise ValueError("zero has no last exponent")
    return a[-1][0]


def successor(a: Ordinal) -> Ordinal:
    return add(a, ONE)


def predecessor(a: Ordinal) -> Ordinal:
    """The b with b + 1 = a; defined for successor ordinals only."""
    if not a.is_successor():
        raise ValueError(f"{a} is not a successor ordinal")
    head, (_, c) = a[:-1], a[-1]
    if c == 1:
        return _trusted(head)
    return _trusted(head + ((ZERO, c - 1),))


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c = b; requires a <= b."""
    if a.is_zero():
        return b
    if b.is_zero() or a > b:
        raise ValueError(f"cannot left-subtract {a} from smaller {b}")
    (ea, ca), (eb, cb) = a[0], b[0]
    c = compare(ea, eb)
    if c < 0:
        return b  # a is absorbed entirely
    if ca < cb:
        return _trusted(((eb, cb - ca),) + b[1:])
    # equal head terms: recurse on the tails
    return left_subtract(_trusted(a[1:]), _trusted(b[1:]))


def divide_by_omega_pow(g: Ordinal, mu: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Split g = w^mu * quotient + remainder with remainder < w^mu.

    Terms with exponent >= mu feed the quotient (exponent shifted down by
    mu on the left), the rest form the remainder.  g is a multiple of w^mu
    exactly when the remainder is 0.
    """
    quot, rem = [], []
    for e, c in g:
        if e >= mu:
            quot.append((left_subtract(mu, e), c))
        else:
            rem.append((e, c))
    return _trusted(tuple(quot)), _trusted(tuple(rem))


def tower_index(z: Ordinal) -> Ordinal:
    """The unique xi with w^(w^xi) <= z < w^(w^(xi+1)); requires z >= w.

    Equivalently the leading exponent of the leading exponent of z.
    """
    if z < OMEGA:
        raise ValueError(f"tower index needs z >= w, got {z}")
    return leading_exponent(leading_exponent(z))


# ---- text notation ---------------------------------------------------------


def parse(text: str) -> Ordinal:
    """Parse ordinal notation; raises ParseError with the failing position."""
    parser = _Parser(text)
    value = parser.parse_ordinal()
    parser.skip_ws()
    if parser.pos < len(parser.text):
        raise ParseError("unexpected trailing input", parser.pos)
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_ordinal(self) -> Ordinal:
        if self.peek() == "0":
            self.pos += 1
            return ZERO
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.parse_term())
        for (e1, _, _), (e2, _, pos2) in zip(terms, terms[1:]):
            if e1 <= e2:
                raise ParseError("exponents must be strictly decreasing", pos2)
        return _trusted(tuple([(e, c) for e, c, _ in terms]))

    def parse_term(self) -> tuple[Ordinal, int, int]:
        start = self.pos
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                self.expect("(")
                self.depth += 1
                if self.depth > MAX_NESTING:
                    raise ParseError(f"exponents nested deeper than {MAX_NESTING}", self.pos)
                exponent = self.parse_ordinal()
                self.depth -= 1
                self.expect(")")
            else:
                exponent = ONE
            coeff = 1
            if self.peek() == "*":
                self.pos += 1
                coeff = self.parse_nat()
            return exponent, coeff, start
        if ch.isdigit():
            return ZERO, self.parse_nat(), start
        raise ParseError("expected a term", self.pos)

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            raise ParseError("expected a number", self.pos)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[start : self.pos]
        if digits[0] == "0":
            raise ParseError("numbers may not start with 0", start)
        try:
            return int(digits)
        except ValueError:  # longer than Python's int-to-string limit
            raise ParseError(f"number too long ({len(digits)} digits)", start) from None


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a:
        if e.is_zero():
            parts.append(str(c))
            continue
        base = "w" if e == ONE else f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


# ---- JSON encoding: nested arrays [[exp, coeff], ...], 0 = [] --------------


def to_json(a: Ordinal) -> list:
    return [[to_json(e), c] for e, c in a]


def from_json(data, _depth: int = 0) -> Ordinal:
    """Decode and validate; exponents may nest MAX_NESTING + 2 arrays deep,
    since the JSON spells out the exponents 1 of w and 0 of a natural."""
    if not isinstance(data, list):
        raise ValueError("ordinal JSON must be an array")
    if _depth > MAX_NESTING + 2:
        raise ValueError(f"ordinal JSON exponents nested deeper than {MAX_NESTING + 2}")
    terms = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int):
            raise ValueError("ordinal JSON terms must be [exponent, integer coefficient]")
        terms.append((from_json(item[0], _depth + 1), item[1]))
    return _trusted(_validated(terms))


def validate(a: Ordinal) -> None:
    """Assert the CNF invariants recursively; for tests."""
    for e, c in a:
        if type(c) is not int or c < 1:
            raise AssertionError("coefficient not an int >= 1")
        validate(e)
    for (e1, _), (e2, _) in zip(a, a[1:]):
        if e1 <= e2:
            raise AssertionError("exponents not strictly decreasing")
