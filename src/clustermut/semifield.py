"""The concrete semifields used by the engine.

* tropical: free multiplicative group on g1..gm with a (+) b = componentwise
  minimum of exponent vectors; defines geometric type.  Rank 0, Trop() = {1},
  is the trivial semifield of coefficient-free algebras (TrivialSemifield).
* subtraction-free rationals: ratios of polynomials with nonnegative integer
  coefficients in y1..yn; carries Y-patterns.  An element is a Laurent
  fraction with its common monomial and integer content stripped.

Elements are immutable values; the semifield objects are small stateless
descriptors used to build identities and evaluate Y-pattern expressions.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ContextMismatch, ParseError
from .laurent import LaurentFraction, LaurentPolynomial, fold_terms, parse_poly, render_monomial, strip_content

Y_PREFIX = "y"


def y_vars(n: int) -> tuple[str, ...]:
    return tuple(f"{Y_PREFIX}{i}" for i in range(1, n + 1))


def g_vars(rank: int) -> tuple[str, ...]:
    """Names of the tropical generators g1..g{rank}."""
    return tuple(f"g{j}" for j in range(1, rank + 1))


class TropicalElement:
    """Monomial g1^a1*...*gm^am; the group operation adds exponent vectors."""

    __slots__ = ("exps",)

    def __init__(self, exps: Sequence[int]):
        object.__setattr__(self, "exps", tuple(int(e) for e in exps))

    def __setattr__(self, name, value):
        raise AttributeError("TropicalElement is immutable")

    def _check(self, other: "TropicalElement"):
        if not isinstance(other, TropicalElement) or len(self.exps) != len(other.exps):
            raise ContextMismatch("tropical rank mismatch")

    def __mul__(self, other: "TropicalElement") -> "TropicalElement":
        self._check(other)
        return TropicalElement(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inv(self) -> "TropicalElement":
        return TropicalElement(tuple(-a for a in self.exps))

    def pow(self, k: int) -> "TropicalElement":
        return TropicalElement(tuple(a * k for a in self.exps))

    def oplus(self, other: "TropicalElement") -> "TropicalElement":
        self._check(other)
        return TropicalElement(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        return isinstance(other, TropicalElement) and self.exps == other.exps

    def __hash__(self):
        return hash(("trop", self.exps))

    def __str__(self):
        return render_monomial(g_vars(len(self.exps)), self.exps)

    def __repr__(self):
        return f"TropicalElement({self.exps})"


class TrivialElement(TropicalElement):
    """TropicalElement(()), the 1 of Trop(); its operations return self,
    after the rank check of TropicalElement."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "exps", ())

    def __mul__(self, other):
        self._check(other)
        return self

    def inv(self):
        return self

    def pow(self, k):
        return self

    def oplus(self, other):
        self._check(other)
        return self

    def __str__(self):
        return "1"


class SubtractionFreeRational(LaurentFraction):
    """num/den with nonnegative integer coefficients, both nonzero.

    A Laurent fraction whose canonical form strips common monomial and
    integer content only; equality is the inherited cross-multiplication
    test, so polynomial GCDs never happen.
    """

    __slots__ = ()

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        if num.is_zero() or den.is_zero():
            raise ContextMismatch("subtraction-free elements are nonzero")
        if any(c < 0 for c in num.terms.values()) or any(c < 0 for c in den.terms.values()):
            raise ContextMismatch("subtraction-free elements have nonnegative coefficients")
        num._check_context(den)
        super().__init__(*strip_content(num, den))

    def _check(self, other: "SubtractionFreeRational"):
        if not isinstance(other, SubtractionFreeRational) or self.num.vars != other.num.vars:
            raise ContextMismatch("subtraction-free context mismatch")

    def __mul__(self, other: "SubtractionFreeRational") -> "SubtractionFreeRational":
        self._check(other)
        return SubtractionFreeRational(self.num * other.num, self.den * other.den)

    def inv(self) -> "SubtractionFreeRational":
        return SubtractionFreeRational(self.den, self.num)

    def pow(self, k: int) -> "SubtractionFreeRational":
        if k < 0:
            return self.inv().pow(-k)
        return SubtractionFreeRational(self.num ** k, self.den ** k)

    def oplus(self, other: "SubtractionFreeRational") -> "SubtractionFreeRational":
        self._check(other)
        return SubtractionFreeRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )


class TropicalSemifield:
    """Descriptor for the rank-m tropical semifield."""

    kind = "tropical"

    def __init__(self, rank: int):
        self.rank = rank
        self.vars = g_vars(rank)

    def one(self) -> TropicalElement:
        return TropicalElement((0,) * self.rank)

    def generator(self, j: int) -> TropicalElement:
        """g_j, 1-based."""
        e = [0] * self.rank
        e[j - 1] = 1
        return TropicalElement(e)

    def nat(self, c: int) -> TropicalElement:
        # 1 (+) 1 (+) ... = 1: tropical addition is idempotent
        return self.one()

    def __eq__(self, other):
        return isinstance(other, TropicalSemifield) and self.rank == other.rank

    def __hash__(self):
        return hash(("tropical", self.rank))

    def __repr__(self):
        return f"TropicalSemifield(rank={self.rank})"


class TrivialSemifield(TropicalSemifield):
    """Trop() = {1}, coefficient-free; "trivial" is its JSON label."""

    kind = "trivial"

    def __init__(self):
        super().__init__(0)

    def one(self) -> TrivialElement:
        return TrivialElement()


class SubtractionFreeSemifield:
    """Subtraction-free rational functions in y1..yn."""

    kind = "subtraction-free"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.vars = y_vars(nvars)

    @property
    def rank(self) -> int:
        return self.nvars

    def one(self) -> SubtractionFreeRational:
        unit = LaurentPolynomial.one(self.vars)
        return SubtractionFreeRational(unit, unit)

    def generator(self, j: int) -> SubtractionFreeRational:
        return SubtractionFreeRational(
            LaurentPolynomial.variable(self.vars, j - 1), LaurentPolynomial.one(self.vars)
        )

    def identity_tuple(self) -> tuple[SubtractionFreeRational, ...]:
        """(y1, ..., yn): the initial coefficients as formal expressions."""
        return tuple(self.generator(j) for j in range(1, self.nvars + 1))

    def nat(self, c: int) -> SubtractionFreeRational:
        return SubtractionFreeRational(
            LaurentPolynomial.const(self.vars, c), LaurentPolynomial.one(self.vars)
        )

    def __eq__(self, other):
        return isinstance(other, SubtractionFreeSemifield) and self.nvars == other.nvars

    def __hash__(self):
        return hash(("subtraction-free", self.nvars))

    def __repr__(self):
        return f"SubtractionFreeSemifield({self.nvars})"


def sf_mul(a, b):
    return a * b


def sf_inv(a):
    return a.inv()


def sf_oplus(a, b):
    return a.oplus(b)


def evaluate_y_pattern(expr: SubtractionFreeRational, target, images: Sequence) -> object:
    """Evaluate a subtraction-free expression in another semifield.

    Replaces y_i by images[i] and reinterprets +, *, / in the target; any
    subtraction-free identity stays valid under this map, which is what
    makes Y-patterns transportable between semifields.
    """
    if len(images) != len(expr.num.vars):
        raise ContextMismatch(f"need {len(expr.num.vars)} images, got {len(images)}")
    return fold_terms(expr.num, target.nat, images) * fold_terms(expr.den, target.nat, images).inv()


def parse_tropical(rank: int, text: str) -> TropicalElement:
    """Parse `g1^2*g3^-1` style tropical monomials: one term, coefficient 1."""
    p = parse_poly(g_vars(rank), text)
    if list(p.terms.values()) != [1]:
        raise ParseError(f"not a tropical monomial: {text!r}")
    (exps,) = p.terms
    return TropicalElement(exps)
