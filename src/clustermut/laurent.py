"""Exact multivariate Laurent polynomial arithmetic over Python integers.

A polynomial is a map from exponent vectors (one integer per ambient
variable, negatives allowed) to nonzero integer coefficients.  The ambient
context is the tuple of variable names; two values interoperate only when
their contexts are identical.  Values are immutable; polynomials are
hashable, fractions are not (their equality is cross-multiplication).

The term order is graded lexicographic on exponent vectors (total degree
first, then lex), fixed once per context.  It gives unique canonical forms
and a deterministic exact-division algorithm.

Exact division and exchange relations run on packed monomials (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007; Johnson, "Sparse polynomial arithmetic",
SIGSAM Bull. 1974).  An exponent vector, shifted to nonnegative entries,
becomes one integer of fixed-width fields under a top field holding its
total degree, so integer order is the graded-lex order and adding two
packed monomials multiplies them.  The field width comes from the
operands' exponent spans, and exact division refuses any quotient
exponent outside the range the Newton polytopes allow, so no field ever
wraps into its neighbour.  Division keeps its remainder on a max-heap of
packed monomials and pops each leading term instead of rescanning.
``*`` runs on exponent tuples; a product with the constant 1 returns the
other operand itself, which is safe because values are immutable.

``exchange_quotient`` is the one entry point for an exchange relation
x_k x_k' = P+ + P-, and every relation runs one packed pass: one field
width for the whole relation, each factor packed once, powers by packed
squaring, both products accumulated into the remainder map of the
division, monomial factors as shifts, and only the quotient unpacked.
Each quotient, of ``exact_div`` too, takes its sort key from the order in
which the division produced its terms.
"""

from __future__ import annotations

import heapq
import math
import re
from operator import add, mul, sub
from typing import Mapping, Sequence

from .errors import ContextMismatch, DivisionByZero, NotDivisible, ParseError

Exps = tuple[int, ...]


def grlex_key(exps: Exps) -> tuple[int, Exps]:
    """Sort key realizing the graded-lex term order (larger key = larger term)."""
    return (sum(exps), exps)


def _exponent_box(terms: Mapping[Exps, int]) -> tuple[Exps, Exps]:
    """Componentwise minimum and maximum exponents of a nonempty term map."""
    cols = list(zip(*terms))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _weights(n: int, width: int) -> list[int]:
    """What a unit exponent of each of n variables adds to a packed
    monomial: ``width``-bit fields, first variable highest, under a top
    field holding the total degree, so integer order is the graded-lex
    order and adding packed monomials multiplies them.  The caller picks
    ``width`` so that no field of any value it forms can overflow."""
    top = 1 << (width * n)
    return [(1 << (width * i)) + top for i in reversed(range(n))]


def _pack(terms: Mapping[Exps, int], low: Exps, weights: list[int]) -> list[tuple[int, int]]:
    """(packed monomial, coefficient) pairs: each exponent vector less
    ``low``, laid out by the ``_weights`` of one field width, which a
    quotient computes once for all its packs."""
    base = sum(map(mul, low, weights))
    return [(sum(map(mul, e, weights)) - base, c) for e, c in terms.items()]


def _unpack(packed: Mapping[int, int], low: Exps, width: int) -> dict[Exps, int]:
    """Inverse of ``_pack``: the term map keyed by exponent tuples."""
    mask = (1 << width) - 1
    fields = [(width * i, m) for i, m in zip(reversed(range(len(low))), low)]
    return {tuple([((key >> s) & mask) + m for s, m in fields]): c for key, c in packed.items()}


def _mul_into(out: dict[int, int], pa, pb) -> dict[int, int]:
    """Add the product of two packed term lists into ``out``."""
    get = out.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _square_into(out: dict[int, int], pa) -> dict[int, int]:
    """Add the square of a packed term list into ``out``, forming each
    cross term once, doubled: the triangle j >= i meets every key first
    where the full loop does, so the term order is the same."""
    get = out.get
    for i, (ka, ca) in enumerate(pa):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in pa[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _nonzero(packed: dict[int, int]) -> list[tuple[int, int]]:
    return [(k, c) for k, c in packed.items() if c]


def _packed_power(pa: list[tuple[int, int]], e: int) -> list[tuple[int, int]]:
    """pa ** e for e >= 1 by the binary method of ``__pow__``, squaring on
    the triangle."""
    result = None
    while True:
        if e & 1:
            result = pa if result is None else _nonzero(_mul_into({}, result, pa))
        e >>= 1
        if not e:
            return result
        pa = _nonzero(_square_into({}, pa))


def _divide(rem: dict[int, int], low: Exps, high: Exps, width: int, weights: list, den) -> LaurentPolynomial:
    """The exact quotient of a dividend by ``den``, with its sort key read
    off the order in which its terms were found, descending; NotDivisible
    unless the remainder ends at zero.

    ``rem``, which is consumed, maps the dividend's packed monomials to
    their nonzero coefficients.  They are packed less ``low`` in fields of
    ``width`` bits, by ``weights``, and all lie in the box [low, high],
    whose shifted total degree must leave the top bit of every field
    free.  The box may be larger than the dividend's own: the
    Newton-polytope refusals of ``exact_div`` stay proofs, only looser
    ones.
    """
    md, hd = _exponent_box(den.terms)
    room = tuple((a - b) - (c - d) for a, b, c, d in zip(high, low, hd, md))
    if any(r < 0 for r in room):
        raise NotDivisible("leading monomial not divisible")
    guard = sum(1 << (width * i + width - 1) for i in range(len(room) + 1))
    limit = sum(map(mul, room, weights))
    den_p = sorted(_pack(den.terms, md, weights), reverse=True)
    (den_lead, den_lc), den_rest = den_p[0], den_p[1:]
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo: dict[int, int] = {}
    while heap:
        lead = -heapq.heappop(heap)
        lc = rem.pop(lead, None)
        if lc is None:
            continue  # cancelled after it was pushed
        e = lead - den_lead
        if e & guard or (limit - e) & guard:
            raise NotDivisible("leading monomial not divisible")
        q, r = divmod(lc, den_lc)
        if r:
            raise NotDivisible(f"coefficient {lc} not divisible by {den_lc}")
        quo[e] = q
        for kb, cb in den_rest:
            t = e + kb
            c = rem.get(t)
            if c is None:
                rem[t] = -q * cb
                heapq.heappush(heap, -t)
            else:
                c -= q * cb
                if c:
                    rem[t] = c
                else:
                    del rem[t]
    # the quotient's terms came off the heap in descending order: no sort for its key
    out = LaurentPolynomial(den.vars, _unpack(quo, tuple(map(sub, low, md)), width))
    object.__setattr__(out, "_key", tuple((grlex_key(e), c) for e, c in out.terms.items()))
    return out


def _packed_quotient(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    """exact_div of nonzero operands by ``_divide``, on the dividend's own box."""
    mn, hn = _exponent_box(num.terms)
    width = (sum(hn) - sum(mn)).bit_length() + 1
    weights = _weights(len(mn), width)
    return _divide(dict(_pack(num.terms, mn, weights)), mn, hn, width, weights, den)


def _divide_by_term(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    """exact_div of a nonzero dividend by a one-term divisor c*x^d: each
    term shifts by -d and its coefficient divides exactly by c, in
    descending order, so the quotient, its term order and its sort key,
    and the first coefficient refused, are those of ``_packed_quotient``."""
    ((d, dc),) = den.terms.items()
    terms = {}
    for e, c in num.sorted_terms():
        q, r = divmod(c, dc)
        if r:
            raise NotDivisible(f"coefficient {c} not divisible by {dc}")
        terms[tuple(map(sub, e, d))] = q
    out = LaurentPolynomial(num.vars, terms)
    object.__setattr__(out, "_key", tuple((grlex_key(e), c) for e, c in terms.items()))
    return out


def ambient_vars(n: int, m: int = 0, extra: Sequence[str] = ()) -> tuple[str, ...]:
    """Standard context: x1..xn mutable, x{n+1}..x{n+m} stable, then extras."""
    return tuple(f"x{i}" for i in range(1, n + m + 1)) + tuple(extra)


def fold_terms(p: LaurentPolynomial, const, images: Sequence):
    """p evaluated at the images, wherever const's values and the images
    live: each term, in descending term order, is const(coeff) times
    images[i].pow(e_i) for its nonzero exponents, and the terms are folded
    left with oplus.  None for the zero polynomial."""
    acc = None
    for exps, coeff in p.sorted_terms():
        val = const(coeff)
        for im, e in zip(images, exps):
            if e:
                val = val * im.pow(e)
        acc = val if acc is None else acc.oplus(val)
    return acc


class LaurentPolynomial:
    """Canonical-form sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("vars", "terms", "_key", "_hash")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Exps, int]):
        clean = {e: c for e, c in terms.items() if c != 0}
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPolynomial":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, ...], c: int) -> "LaurentPolynomial":
        return cls(vars, {(0,) * len(vars): int(c)})

    @classmethod
    def one(cls, vars: tuple[str, ...]) -> "LaurentPolynomial":
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars: tuple[str, ...], index: int) -> "LaurentPolynomial":
        """The single variable at 0-based ``index``."""
        e = [0] * len(vars)
        e[index] = 1
        return cls(vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], exps: Sequence[int], coeff: int = 1) -> "LaurentPolynomial":
        return cls(vars, {tuple(int(e) for e in exps): int(coeff)})

    # -- canonical order and hashing --------------------------------------

    def _sort_key(self):
        # descending-term sequence of ((degree, exps), coeff); cached
        key = self._key
        if key is None:
            key = tuple(
                (grlex_key(e), self.terms[e])
                for e in sorted(self.terms, key=grlex_key, reverse=True)
            )
            object.__setattr__(self, "_key", key)
        return key

    def sorted_terms(self) -> list[tuple[Exps, int]]:
        """Terms in descending graded-lex order."""
        return [(k[1], c) for k, c in self._sort_key()]

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, self._sort_key()))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def compare(self, other: "LaurentPolynomial") -> int:
        """Total order on canonical forms: -1, 0, or +1."""
        self._check_context(other)
        a, b = self._sort_key(), other._sort_key()
        if a == b:
            return 0
        return -1 if a < b else 1

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.vars): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def max_coeff_bits(self) -> int:
        """Bit length of the largest coefficient magnitude (0 for the zero polynomial)."""
        return max((abs(c).bit_length() for c in self.terms.values()), default=0)

    def _check_context(self, other: "LaurentPolynomial"):
        if self.vars != other.vars:
            raise ContextMismatch(f"contexts differ: {self.vars} vs {other.vars}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_context(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPolynomial(self.vars, terms)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_context(other)
        a, b = self.terms, other.terms
        # values are immutable, so a product with the constant 1 is the other operand
        if len(a) == 1 and self.is_one():
            return other
        if len(b) == 1 and other.is_one():
            return self
        terms: dict = {}
        get = terms.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                terms[e] = get(e, 0) + ca * cb
        return LaurentPolynomial(self.vars, terms)

    def shift(self, exps: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by the monomial with the given exponent vector."""
        d = tuple(exps)
        return LaurentPolynomial(
            self.vars, {tuple(x + y for x, y in zip(e, d)): c for e, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            if not self.is_monomial():
                raise DivisionByZero("negative power of a non-monomial")
            (e, c), = self.terms.items()
            if abs(c) != 1:
                raise NotDivisible(f"cannot invert coefficient {c} over the integers")
            return LaurentPolynomial(self.vars, {tuple(x * k for x in e): c if k % 2 else 1})
        result = LaurentPolynomial.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- exact division ----------------------------------------------------

    def min_exps(self) -> Exps:
        """Componentwise minimum exponent over all terms (zero vector if empty)."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(min(col) for col in zip(*self.terms))

    def exact_div(self, den: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient in the Laurent ring; raises NotDivisible otherwise.

        Both operands are shifted into the polynomial range by their
        componentwise-minimum monomials, then ordinary multivariate division
        runs under the graded-lex order demanding an exact step every time.
        The Laurent phenomenon guarantees success in all legal mutation uses,
        so a failure here must abort the caller loudly.

        The remainder is a map on packed monomials plus a max-heap of its
        keys, so each leading term costs O(log) rather than a rescan.  The
        Newton polytopes satisfy N(num) = N(quo) + N(den), so a quotient
        exponent outside [0, span(num) - span(den)] in any coordinate
        proves the division inexact; refusing it keeps every remainder
        monomial inside the box of the shifted dividend, which the field
        width covers, and a guard bit per field detects a negative or
        out-of-box quotient exponent without unpacking it.  A one-term
        divisor is a shift: its quotient is taken term by term instead.
        """
        self._check_context(den)
        if den.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return self
        if len(den.terms) == 1:
            return _divide_by_term(self, den)
        return _packed_quotient(self, den)

    def derivative(self, index: int) -> "LaurentPolynomial":
        """Formal partial derivative with respect to the variable at
        0-based ``index`` (Laurent terms differentiate the same way)."""
        terms = {
            e[:index] + (e[index] - 1,) + e[index + 1 :]: c * e[index]
            for e, c in self.terms.items()
            if e[index]
        }
        return LaurentPolynomial(self.vars, terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Sequence["LaurentFraction | LaurentPolynomial"]) -> "LaurentFraction":
        """Exact composition; images are fractions over a common target context.

        One image per ambient variable.  Substituting something with zero
        numerator into a negatively-exponented variable raises DivisionByZero.
        """
        if len(images) != len(self.vars):
            raise ContextMismatch(
                f"{len(self.vars)} variables but {len(images)} images"
            )
        fracs = [im if isinstance(im, LaurentFraction) else LaurentFraction.from_polynomial(im) for im in images]
        if not fracs:
            raise ContextMismatch("empty context cannot be substituted")
        target = fracs[0].num.vars
        total = fold_terms(self, lambda c: LaurentFraction.from_polynomial(LaurentPolynomial.const(target, c)), fracs)
        return (total or LaurentFraction.from_polynomial(LaurentPolynomial.zero(target))).normalized()

    # -- context projection ------------------------------------------------

    def with_vars(self, new_vars: tuple[str, ...]) -> "LaurentPolynomial":
        """Re-express over another context, matching variables by name.

        Every variable actually used must exist in the new context; this
        covers both extension (adding fresh variables) and restriction
        (dropping unused ones).
        """
        if new_vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(new_vars)}
        width = len(new_vars)
        mapping = []
        for i, v in enumerate(self.vars):
            j = pos.get(v)
            if j is None and any(e[i] for e in self.terms):
                raise ContextMismatch(f"variable {v} used but absent from target context")
            mapping.append(j)
        terms: dict[Exps, int] = {}
        for e, c in self.terms.items():
            out = [0] * width
            for i, x in enumerate(e):
                if x:
                    out[mapping[i]] = x
            terms[tuple(out)] = c
        return LaurentPolynomial(new_vars, terms)

    # -- rendering and parsing ---------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({render_poly(self)!r})"


def product(vars: tuple[str, ...], factors: Sequence[tuple[LaurentPolynomial, int]]) -> LaurentPolynomial:
    """prod p^e over (polynomial, exponent >= 0) pairs over ``vars``, left
    to right with ``*`` and ``**``; 1 for the empty list.  The first factor
    starts the product, and e == 1 takes no power."""
    acc = None
    for p, e in factors:
        if e != 1:
            p = p ** e
        acc = p if acc is None else acc * p
    return LaurentPolynomial.one(vars) if acc is None else acc


def exchange_quotient(
    vars: tuple[str, ...],
    plus: Sequence[tuple[LaurentPolynomial, int]],
    minus: Sequence[tuple[LaurentPolynomial, int]],
    den: LaurentPolynomial,
) -> LaurentPolynomial:
    """(prod p^e over plus + prod q^f over minus) / den for lists of
    (polynomial, exponent >= 0) pairs over ``vars``: the exchange relation
    x_k x_k' = P+ + P- solved for x_k'.  The quotient equals the sum of
    the two ``product``s divided by ``exact_div``, in its terms and their
    order, and NotDivisible is raised exactly where that division raises
    it.

    The relation runs on packed monomials of one field width, from
    the hull of both products' exponent boxes (each the sum of its
    factors' boxes times their exponents).  The hull contains every
    factor power, partial product and remainder monomial, so no field
    wraps.  Each factor is packed once and its power formed by packed
    squaring; both products accumulate into the remainder map of the
    division, and only the quotient is unpacked.  Monomial factors are
    not multiplied: they shift and scale their side.
    """
    for p, e in (*plus, *minus, (den, 1)):
        if p.vars != vars:
            raise ContextMismatch(f"contexts differ: {vars} vs {p.vars}")
        if e < 0:
            raise ValueError(f"negative exponent {e}")
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    n = len(vars)
    # per nonzero side: its box, the scale of its monomial factors, and
    # its other factors as (terms, low corner, exponent)
    sides = []
    for factors in (plus, minus):
        low = high = (0,) * n
        scale, polys = 1, []
        for p, e in factors:
            if not e:
                continue
            if not p.terms:
                break  # the side is zero
            if len(p.terms) == 1:
                (exps, c), = p.terms.items()
                lo = hi = exps
                scale *= c ** e
            else:
                lo, hi = _exponent_box(p.terms)
                polys.append((p.terms, lo, e))
            low = tuple(a + e * b for a, b in zip(low, lo))
            high = tuple(a + e * b for a, b in zip(high, hi))
        else:
            sides.append((low, high, scale, polys))
    if not sides:
        return LaurentPolynomial.zero(vars)
    low = tuple(map(min, zip(*(s[0] for s in sides))))
    high = tuple(map(max, zip(*(s[1] for s in sides))))
    width = (sum(high) - sum(low)).bit_length() + 1
    weights = _weights(n, width)
    rem: dict[int, int] = {}
    for side_low, _, scale, polys in sides:
        # the monomial part, at its place in the hull, starts the product
        acc = _pack({side_low: scale}, low, weights)
        powers = [_packed_power(_pack(terms, lo, weights), e) for terms, lo, e in polys]
        last = powers.pop() if powers else [(0, 1)]  # packed 1
        for p in powers:
            acc = _nonzero(_mul_into({}, acc, p))
        _mul_into(rem, acc, last)
    rem = {k: c for k, c in rem.items() if c}
    return _divide(rem, low, high, width, weights, den) if rem else LaurentPolynomial.zero(vars)


def render_monomial(vars: tuple[str, ...], exps: Exps) -> str:
    parts = [f"{v}^{e}" if e != 1 else v for v, e in zip(vars, exps) if e != 0]
    return "*".join(parts) if parts else "1"


def render_poly(p: LaurentPolynomial) -> str:
    """Terms in descending term order, `x1^2*x2^-1` exponents, explicit signs."""
    if p.is_zero():
        return "0"
    out = []
    for exps, coeff in p.sorted_terms():
        mono = render_monomial(p.vars, exps)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(out)


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _split_terms(text: str) -> list[tuple[int, str]]:
    # split on top-level +/-; a sign directly after '^' belongs to an exponent
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    prev = ""
    for ch in text:
        if ch in "+-" and prev != "^":
            if "".join(buf).strip():
                chunks.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
            if not ch.isspace():
                prev = ch
    if "".join(buf).strip():
        chunks.append((sign, "".join(buf).strip()))
    return chunks


def parse_poly(vars: tuple[str, ...], text: str) -> LaurentPolynomial:
    """Parse the grammar produced by render_poly."""
    pos = {v: i for i, v in enumerate(vars)}
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial text")
    if text == "0":
        return LaurentPolynomial.zero(vars)
    terms: dict[Exps, int] = {}
    for sign, chunk in _split_terms(text):
        coeff = sign
        exps = [0] * len(vars)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in pos:
                raise ParseError(f"unknown variable {name!r} (context {vars})")
            exps[pos[name]] += exp
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return LaurentPolynomial(vars, terms)


def strip_content(
    num: LaurentPolynomial, den: LaurentPolynomial
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide a nonzero numerator and denominator by their common monomial
    and integer content; cheap, no polynomial GCD."""
    shift = tuple(-min(a, b) for a, b in zip(num.min_exps(), den.min_exps()))
    num, den = num.shift(shift), den.shift(shift)
    g = math.gcd(*num.terms.values(), *den.terms.values())
    if g > 1:
        num = LaurentPolynomial(num.vars, {e: c // g for e, c in num.terms.items()})
        den = LaurentPolynomial(den.vars, {e: c // g for e, c in den.terms.items()})
    return num, den


class LaurentFraction:
    """Transient numerator/denominator pair of Laurent polynomials.

    Cluster variables themselves are always reduced back to pure Laurent
    form; fractions carry substitution results, y-hat and Y-pattern values.
    Equality is by cross-multiplication, so no polynomial GCD is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial):
        if den.is_zero():
            raise DivisionByZero("fraction with zero denominator")
        num._check_context(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_polynomial(cls, p: LaurentPolynomial) -> "LaurentFraction":
        return cls(p, LaurentPolynomial.one(p.vars))

    def __mul__(self, other: "LaurentFraction") -> "LaurentFraction":
        return LaurentFraction(self.num * other.num, self.den * other.den)._strip()

    def __add__(self, other: "LaurentFraction") -> "LaurentFraction":
        if self.den == other.den:
            return LaurentFraction(self.num + other.num, self.den)._strip()
        return LaurentFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )._strip()

    def oplus(self, other: "LaurentFraction") -> "LaurentFraction":
        """+, so that fractions serve as semifield values, as y-hat's do."""
        return self + other

    def inv(self) -> "LaurentFraction":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return LaurentFraction(self.den, self.num)

    def pow(self, k: int) -> "LaurentFraction":
        if k < 0:
            return self.inv().pow(-k)
        num = self.num ** k
        den = self.den ** k
        return LaurentFraction(num, den)

    def equals(self, other: "LaurentFraction") -> bool:
        return self.num * other.den == other.num * self.den

    def _strip(self) -> "LaurentFraction":
        if self.num.is_zero():
            return LaurentFraction(self.num, LaurentPolynomial.one(self.num.vars))
        return LaurentFraction(*strip_content(self.num, self.den))

    def normalized(self) -> "LaurentFraction":
        """Canonical form: clear the denominator entirely whenever possible."""
        try:
            return LaurentFraction.from_polynomial(self.num.exact_div(self.den))
        except NotDivisible:
            pass
        f = self._strip()
        # fix the sign of the denominator's leading coefficient
        lead = max(f.den.terms, key=grlex_key)
        if f.den.terms[lead] < 0:
            f = LaurentFraction(-f.num, -f.den)
        return f

    def as_polynomial(self) -> LaurentPolynomial:
        """Exact Laurent value; NotDivisible if the denominator does not clear."""
        return self.num.exact_div(self.den)

    def __eq__(self, other):
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable; compare with equals()")

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"{type(self).__name__}({self.num!r}, {self.den!r})"


def lp_arith(a: LaurentPolynomial, b: LaurentPolynomial, op: str) -> LaurentPolynomial:
    """Dispatch add/sub/mul by name; mirrors the operator overloads."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def lp_exact_div(num: LaurentPolynomial, den: LaurentPolynomial) -> LaurentPolynomial:
    return num.exact_div(den)


def lp_substitute(
    p: LaurentPolynomial, images: Sequence[LaurentFraction | LaurentPolynomial]
) -> LaurentFraction:
    return p.substitute(images)


def lp_compare(a: LaurentPolynomial, b: LaurentPolynomial) -> int:
    return a.compare(b)
