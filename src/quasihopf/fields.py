"""Exact scalar arithmetic over the rationals or a prime field.

Scalars are plain Python objects: ``fractions.Fraction`` over the
rationals, ``int`` residues in ``[0, p)`` over a prime field.  A
``Field`` instance supplies the arithmetic, parsing and formatting.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


# Miller-Rabin with the first 13 primes as bases is deterministic for
# every n below this bound (Sorenson and Webster, 2015)
MAX_MODULUS = 3317044064679887385961981 - 1
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# scalar text: [+-] ASCII digits, over the rationals then [/digits]
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# the longest repr an error message quotes whole
QUOTE_LIMIT = 100


def quote(value) -> str:
    """``repr(value)`` for an error message: whole when it has at most
    QUOTE_LIMIT characters, else its first QUOTE_LIMIT and "...", so
    that a huge input never makes a huge message."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def _is_prime(p: int) -> bool:
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {quote(p)} exceeds the supported maximum "
                         f"{MAX_MODULUS}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``p is None``) or the integers mod a prime ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {quote(p)} is not prime")
        self.p = p

    # -- identity / comparison ------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    @property
    def is_rational(self) -> bool:
        return self.p is None

    # -- constants -------------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    # -- arithmetic ------------------------------------------------------

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    # -- text encoding ---------------------------------------------------

    def parse_ratio(self, text: str) -> tuple[int, int]:
        """``text`` as ``(n, d)`` in lowest terms with d > 0; over a prime
        field n is a residue and d is 1."""
        m = _SCALAR.fullmatch(text := text.strip())
        if m and (self.p is None or m[2] is None):
            try:
                n, d = int(m[1]), int(m[2] or 1)
            except ValueError:          # past the int digit limit
                d = 0
            if d:
                g = gcd(n, d)
                return (n // g, d // g) if self.p is None else (n % self.p, 1)
        kind = "rational" if self.p is None else "prime-field"
        raise ValueError(f"bad {kind} scalar {quote(text)}")

    def parse(self, text: str):
        """The field scalar of ``text`` (see ``parse_ratio``)."""
        n, d = self.parse_ratio(text)
        return Fraction(n, d) if self.p is None else n

    def fmt(self, a) -> str:
        return str(a)


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)
