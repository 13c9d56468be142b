"""Scalar arithmetic over the supported local fields.

Three kinds of scalars circulate in the library:

* exact rationals (``fractions.Fraction``, or plain ``int``),
* elements ``a + b*sqrt(r)`` of a real quadratic field (`QuadElement`),
* floating real/complex values (``float`` / ``complex``).

A `FieldDesc` names the field a matrix lives over and fixes the absolute
value used on it: the usual one for real/complex, ``q**(-valuation)`` for
p-adic rationals, and the real embedding with ``sqrt(r) > 0`` for
quadratic fields.  Exact scalars are never truncated: valuations of
rational matrix entries are always exact integers.

Formal Laurent series fields are representable in the design space but
rejected at construction; see `FieldDesc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, UnsupportedFieldError

INF = math.inf

PRIME_BOUND = 3_317_044_064_679_887_385_961_981
SQUAREFREE_BOUND = 10 ** 18  # trial division runs to its cube root, 10**6
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int, key: str = "n") -> bool:
    """Miller-Rabin to the prime bases up to 41, deterministic for n <
    PRIME_BOUND, about 3.3e24 (Sorenson and Webster, 2015); a larger n is a
    PreconditionError that names it key."""
    if n >= PRIME_BOUND:
        raise PreconditionError(f"{key} = {n} is out of range: {key} must be below {PRIME_BOUND}")
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2**s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _BASES)


def is_squarefree(n: int, key: str = "n") -> bool:
    """Whether no prime square divides n >= 1, for n < SQUAREFREE_BOUND
    (10**18); a larger n is a PreconditionError that names it key.  Once
    every prime below the cube root of what is left is divided out, the
    rest has at most two prime factors: square-free unless a square."""
    if n >= SQUAREFREE_BOUND:
        raise PreconditionError(f"{key} = {n} is out of range: {key} must be below 10**18")
    if n < 1:
        return False
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 1
    return n == 1 or math.isqrt(n) ** 2 != n


@dataclass(frozen=True)
class FieldDesc:
    """Tag naming a supported local field.

    kind is one of ``"real"``, ``"complex"``, ``"padic"`` (with prime
    ``p``), or ``"quadratic"`` (with square-free ``r >= 2``, viewed inside
    the reals).  ``kind="laurent"`` is recognized and refused: the
    architecture admits formal Laurent series but they are out of scope.
    """

    kind: str
    p: int | None = None
    r: int | None = None

    def __post_init__(self):
        if self.kind == "laurent":
            raise UnsupportedFieldError(
                "formal Laurent series fields are not implemented "
                "(recognized but out of scope)"
            )
        if self.kind not in ("real", "complex", "padic", "quadratic"):
            raise UnsupportedFieldError(f"unknown field kind {self.kind!r}")
        if self.kind == "padic":
            if self.p is None or not is_prime(self.p, "p"):
                raise UnsupportedFieldError(f"p = {self.p!r} is not prime")
        elif self.p is not None:
            raise UnsupportedFieldError("p only makes sense for padic fields")
        if self.kind == "quadratic":
            if self.r is None or self.r < 2 or not is_squarefree(self.r, "r"):
                raise UnsupportedFieldError(
                    f"r = {self.r!r} must be a square-free integer >= 2"
                )
        elif self.r is not None:
            raise UnsupportedFieldError("r only makes sense for quadratic fields")

    @property
    def is_exact(self) -> bool:
        return self.kind in ("padic", "quadratic")

    @property
    def is_archimedean(self) -> bool:
        return self.kind in ("real", "complex", "quadratic")


REAL = FieldDesc("real")
COMPLEX = FieldDesc("complex")


def padic(p: int) -> FieldDesc:
    return FieldDesc("padic", p=p)


def quadratic(r: int) -> FieldDesc:
    return FieldDesc("quadratic", r=r)


def _sqrt_floor(n: int, bits: int) -> Fraction:
    """Largest multiple of 2**-bits whose square is <= n."""
    return Fraction(math.isqrt(n << (2 * bits)), 1 << bits)


def sqrt_bounds(r: int, bits: int) -> tuple[Fraction, Fraction]:
    """Exact enclosure lo <= sqrt(r) <= hi with hi - lo <= 2**-bits.

    Lower bounds are monotone non-decreasing in ``bits`` (they refine a
    binary expansion), which is what the embedding tests rely on.
    """
    lo = _sqrt_floor(r, bits)
    return lo, lo + Fraction(1, 1 << bits)


class QuadElement:
    """Element a + b*sqrt(r) of the real quadratic field Q(sqrt(r)).

    a, b are exact rationals; comparisons and equality tests are exact
    (sqrt(r) is irrational, so a1 + b1*sqrt(r) = a2 + b2*sqrt(r) iff the
    pairs agree).  Ordering uses the real embedding with sqrt(r) > 0,
    decided by exact sign arithmetic, never by floating evaluation.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b, r: int):
        if not is_squarefree(r) or r < 2:
            raise UnsupportedFieldError(f"r = {r!r} must be square-free and >= 2")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.r = r

    @classmethod
    def _of(cls, a, b, r: int):  # a ring result: its operands' r was checked
        out = object.__new__(cls)
        out.a, out.b, out.r = Fraction(a), Fraction(b), r
        return out

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.r != self.r:
                raise UnsupportedFieldError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement._of(other, 0, self.r)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement._of(self.a + o.a, self.b + o.b, self.r)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement._of(-self.a, -self.b, self.r)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement._of(self.a - o.a, self.b - o.b, self.r)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement._of(
            self.a * o.a + self.r * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.r,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - self.r * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        conj = QuadElement._of(o.a / norm, -o.b / norm, self.r)
        return self * conj

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return QuadElement._of(1, 0, self.r) / self ** (-n)
        out = QuadElement._of(1, 0, self.r)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order structure ------------------------------------------

    def sign(self) -> int:
        """Sign of the real embedding, computed exactly."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with r b^2
        if a * a > self.r * b * b:
            return (a > 0) - (a < 0)
        return (b > 0) - (b < 0)

    def __eq__(self, other):
        if isinstance(other, QuadElement) and other.r != self.r:
            # distinct irrational parts never coincide; rational parts may
            return self.b == 0 and other.b == 0 and self.a == other.a
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        return self._coerce(other) is not None and not self <= other

    def __ge__(self, other):
        return self._coerce(other) is not None and not self < other

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.r))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def embed(self, bits: int = 80) -> Fraction:
        """Exact rational approximation of the real embedding.

        Accurate to |b| * 2**-bits; refining bits tightens the enclosure
        monotonically.
        """
        lo, hi = sqrt_bounds(self.r, bits)
        mid = (lo + hi) / 2
        return self.a + self.b * mid

    def __float__(self):
        return float(self.embed())

    def __repr__(self):
        return f"QuadElement({self.a}, {self.b}, r={self.r})"

    def __str__(self):  # the text serialize.scalar_from_str reads back
        if not self.b:  # a rational value has one text, however it was formed
            return str(self.a)
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.r})"


def real_sign(x) -> int:
    """Sign of a real scalar; exact for rationals and QuadElements."""
    if isinstance(x, QuadElement):
        return x.sign()
    return (x > 0) - (x < 0)


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _int_content(ints, p: int):
    """The content of an integer vector: its least p-adic valuation, read
    as the valuation of the gcd of its entries; +inf for the zero vector."""
    g = math.gcd(*ints)
    return int_valuation(g, p) if g else INF


def _content(vec, p: int):
    """The content of a vector of Fractions or ints: that of the numerators
    less v_p(lcm of the denominators); p divides no entry's both parts."""
    return (_int_content([x.numerator for x in vec], p)
            - int_valuation(math.lcm(*(x.denominator for x in vec)), p))


def rational_valuation(x, p: int):
    """p-adic valuation of an exact rational; +inf for zero."""
    x = Fraction(x)
    if x == 0:
        return INF
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def valuation(x, field: FieldDesc):
    """Additive valuation of ``x`` in a p-adic field.

    Returns an integer, or +inf for x = 0.  Only exact rationals are
    accepted; any other field kind is an unsupported operation.
    """
    if field.kind != "padic":
        raise UnsupportedFieldError(
            f"valuation is only defined for padic fields, not {field.kind}"
        )
    if isinstance(x, float) or isinstance(x, complex) or isinstance(x, QuadElement):
        raise UnsupportedFieldError("p-adic valuation needs an exact rational")
    return rational_valuation(x, field.p)


def abs_value(x, field: FieldDesc):
    """Absolute value of ``x`` in the given field.

    Archimedean fields use the usual absolute value or modulus; p-adic
    fields use q**(-valuation) and return an exact Fraction; quadratic
    fields use the real embedding with sqrt(r) > 0.
    """
    if field.kind == "padic":
        w = valuation(x, field)
        if w is INF:
            return Fraction(0)
        return Fraction(field.p) ** (-w)
    if field.kind == "quadratic":
        if isinstance(x, QuadElement):
            return abs(float(x))
        return abs(float(Fraction(x)))
    if field.kind == "complex":
        return abs(complex(x))
    if isinstance(x, QuadElement):
        raise UnsupportedFieldError("quadratic scalar over a plain real field")
    if isinstance(x, complex):
        raise UnsupportedFieldError("complex scalar over the real field")
    if isinstance(x, Fraction):
        return abs(float(x))
    return abs(x)


def quad_embed(x, bits: int = 80) -> float:
    """Float value of a quadratic (or rational) scalar.

    The internal sqrt(r) enclosure is computed to ``bits`` fractional
    bits, so the result is correctly rounded well below float precision
    for the default; exactness of the enclosure is monotone in ``bits``.
    """
    if isinstance(x, QuadElement):
        return float(x.embed(bits))
    return float(Fraction(x))


def as_exact(x):
    """Coerce ints to Fraction, leave Fractions/QuadElements alone."""
    if isinstance(x, QuadElement) or isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QuadElement))
