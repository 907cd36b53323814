"""Exact arithmetic in GF(p^k).

Elements are polynomials over GF(p) reduced modulo a fixed monic irreducible
modulus of degree k.  Every context pins a canonical total order on its
elements: lexicographic on coefficient vectors with the highest-degree
coefficient most significant, which is the same as ordering by the integer
value ``sum(c_i * p**i)``.  That integer is the element *index*; all
downstream enumeration (points, subspaces, graph vertices) inherits its
determinism from this order.

Every context holds dense add/mul/neg/inv tables (and Frobenius for square
orders); every operation is a lookup in them.  Index a is the polynomial
x * (a // p) + a % p, so each table entry follows from entries at smaller
indices: ``add[a][b] = p * add[a // p][b // p] + (a + b) % p``, the GF(p)
multiples ``scal[c][a] = p * scal[c][a // p] + c * a % p`` (``neg`` is
``scal[p - 1]``), and ``mul[a][b] = x * mul[a][b // p] + scal[b % p][a]``.
The modulus is the first x^k + low, low in index order, whose multiplication
has no zero divisor, which holds exactly when it is irreducible: the least
monic irreducible of degree k in the same order, so two constructions of
GF(p^k) are identical, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record


# Every field gets dense q-by-q add and mul tables, so the order is capped;
# GF(256) covers every field of a graph with up to 65,536 vertices.
DESK_SCALE_CAP = 2 ** 8


class FieldError(Exception):
    """Base class for finite-field errors."""


class NonPrimeCharacteristic(FieldError):
    pass


class DegreeZero(FieldError):
    pass


class CapExceeded(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class ContextMismatch(FieldError):
    pass


class OddExtensionDegree(FieldError):
    pass


class EvenCharacteristic(FieldError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^k with p prime; raises NonPrimeCharacteristic otherwise."""
    if q < 2:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise NonPrimeCharacteristic(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1  # q itself is prime


def _mul_table(p: int, q: int, add, scal, low: int):
    """Multiplication modulo x^k + low, or None at the first row with a zero
    divisor, that is, when x^k + low is reducible."""
    top = q // p
    # x * a = x * (a % top) + (a // top) * x^k, and x^k = -low
    times_x = [add[a % top * p][scal[-(a // top) % p][low]] for a in range(q)]
    mul = [[0] * q]
    for a in range(1, q):
        row = [0]
        for b in range(1, q):
            row.append(add[times_x[row[b // p]]][scal[b % p][a]])
        if row.count(0) > 1:
            return None
        mul.append(row)
    return mul


class FieldContext:
    """Immutable description of GF(p^k) plus its arithmetic machinery; it
    finds its own modulus.

    Construct via :func:`field_new`; contexts are cached so equal fields
    are the same object.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "_add", "_mul", "_neg", "_inv", "_frob",
        "_elements", "_primitive_index",
    )

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p ** k
        self._frob = None
        self._primitive_index = None
        self._build_tables()
        self._elements = tuple(FieldElement(self, i) for i in range(self.q))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    # -- index <-> coefficient conversions ------------------------------------

    def coeffs_of(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(index % self.p)
            index //= self.p
        return tuple(out)

    def index_of(self, coeffs) -> int:
        idx = 0
        for c in reversed(tuple(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    # -- element access --------------------------------------------------------

    def element(self, index: int) -> "FieldElement":
        if 0 <= index < self.q:
            return self._elements[index]
        raise FieldError(f"element index {index} is outside {self!r}")

    def from_coeffs(self, coeffs) -> "FieldElement":
        return self.element(self.index_of(coeffs))

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self):
        """All elements in canonical order."""
        return list(self._elements)

    # -- index-level arithmetic (hot path) --------------------------------------

    def _build_tables(self):
        # every entry follows from entries at smaller indices (module docstring)
        p, k, q = self.p, self.k, self.q
        add = [list(range(q))]
        for a in range(1, q):
            hi = add[a // p]
            add.append([p * hi[b // p] + (a + b) % p for b in range(q)])
        scal = []  # scal[c][a] = c * a for c in GF(p)
        for c in range(p):
            row = [0]
            for a in range(1, q):
                row.append(p * row[a // p] + c * a % p)
            scal.append(row)
        for low in range(q):
            mul = _mul_table(p, q, add, scal, low)
            if mul is not None:
                break
        self.modulus = self.coeffs_of(low) + (1,)
        inv = [0] + [mul[a].index(1) for a in range(1, q)]
        self._add, self._mul, self._neg, self._inv = add, mul, scal[p - 1], inv
        if k % 2 == 0:
            r = p ** (k // 2)
            self._frob = [self.pow_i(a, r) for a in range(q)]

    def tables(self):
        """The dense (add, mul, neg, inv) tables, indexed as add[a][b] and
        neg[a]; inv[0] is 0, so callers check for zero themselves."""
        return self._add, self._mul, self._neg, self._inv

    def add_i(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg_i(self, a: int) -> int:
        return self._neg[a]

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def div_i(self, a: int, b: int) -> int:
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero("0 to a negative power")
            return 1 if e == 0 else 0
        e %= self.q - 1
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            e >>= 1
        return result

    def frob_i(self, a: int) -> int:
        if self.k % 2 != 0:
            raise OddExtensionDegree(f"{self!r} is not a square-order field")
        return self._frob[a]

    @property
    def sqrt_q(self) -> int:
        if self.k % 2 != 0:
            raise OddExtensionDegree(f"{self!r} is not a square-order field")
        return self.p ** (self.k // 2)


class FieldElement:
    """An element of GF(p^k), identified by its canonical index."""

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: FieldContext, index: int):
        self.ctx = ctx
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.coeffs_of(self.index)

    def is_zero(self) -> bool:
        return self.index == 0

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")
            return other.index
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.add_i(self.index, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.sub_i(self.index, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.sub_i(b, self.index))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.mul_i(self.index, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.div_i(self.index, b))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self.ctx.element(self.ctx.div_i(b, self.index))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return self.ctx.element(self.ctx.pow_i(self.index, e))

    def __neg__(self):
        return self.ctx.element(self.ctx.neg_i(self.index))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.index == other.index
        if isinstance(other, int):
            return self.index == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.index))

    def __lt__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch("cannot order elements of different fields")
        return self.index < other.index

    def __repr__(self):
        return f"{self.index}@{self.ctx!r}"

    def frobenius_sqrt(self) -> "FieldElement":
        return self.ctx.element(self.ctx.frob_i(self.index))


@lru_cache(maxsize=None)
def _field_cached(p: int, k: int) -> FieldContext:
    return FieldContext(p, k)


def _check_cap(q: int):
    if q > DESK_SCALE_CAP:
        raise CapExceeded(f"field order {q} exceeds the desk-scale cap {DESK_SCALE_CAP}")


def field_new(p: int, k: int) -> FieldContext:
    """Build GF(p^k) with the canonically-least irreducible monic modulus.

    Deterministic across runs: same (p, k) gives an identical modulus and
    element order.
    """
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if k < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {k}")
    _check_cap(p ** k)
    return _field_cached(p, k)


def field_from_order(q: int) -> FieldContext:
    """GF(q); the cap is checked first, so a large q is never factored."""
    _check_cap(q)
    p, k = factor_prime_power(q)
    return field_new(p, k)


def frobenius_sqrt(x: FieldElement) -> FieldElement:
    """The conjugation x -> x^sqrt(q); an involutory field automorphism."""
    return x.frobenius_sqrt()


def multiplicative_order(x: FieldElement) -> int:
    if x.is_zero():
        raise DivisionByZero("zero has no multiplicative order")
    ctx = x.ctx
    n = 1
    acc = x.index
    while acc != 1:
        acc = ctx.mul_i(acc, x.index)
        n += 1
    return n


def primitive_element(ctx: FieldContext) -> FieldElement:
    """The least element (in canonical order) generating the multiplicative group."""
    if ctx._primitive_index is None:
        target = ctx.q - 1
        for i in range(1, ctx.q):
            if multiplicative_order(ctx.element(i)) == target:
                ctx._primitive_index = i
                break
    return ctx.element(ctx._primitive_index)


class NormOneSubgroup(Record):
    """The subgroup of GF(q)* killed by the norm to GF(sqrt(q))."""

    ctx: FieldContext
    elements: tuple[FieldElement, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def norm_one_subgroup(ctx: FieldContext) -> NormOneSubgroup:
    """All x with x^(sqrt(q)+1) = 1, sorted canonically; size sqrt(q)+1."""
    r = ctx.sqrt_q  # raises OddExtensionDegree when k is odd
    members = [ctx.element(i) for i in range(1, ctx.q) if ctx.pow_i(i, r + 1) == 1]
    return NormOneSubgroup(ctx, tuple(members))


def norm_minus_one_unit(ctx: FieldContext) -> FieldElement:
    """A canonical unit whose (sqrt(q)+1)-power norm is -1 (odd q, square order).

    Taken as beta^((sqrt(q)-1)/2) for the canonical primitive element beta.
    """
    r = ctx.sqrt_q
    if ctx.p == 2:
        raise EvenCharacteristic("norm -1 units are only defined in odd characteristic")
    beta = primitive_element(ctx)
    eps = beta ** ((r - 1) // 2)
    minus_one = -ctx.one
    if eps ** (r + 1) != minus_one or eps.frobenius_sqrt() != minus_one / eps:
        raise FieldError(f"{eps!r} does not have norm -1 in {ctx!r}")
    return eps
