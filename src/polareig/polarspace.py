"""Embedded polar spaces: points, singular subspaces, rank and order.

Enumeration is breadth-first closure: start from the singular projective
points, extend every d-dimensional singular subspace by every point
collinear with all of it, canonicalise to reduced row-echelon form, and
deduplicate.  A span is totally singular exactly when its basis vectors are
singular and pairwise orthogonal, so collinearity is orthogonality of point
pairs.  It is computed a row at a time with bitset operations
(``collinearity_bits``), cached as bitsets and shared with the
collinearity-graph builder.

The enumeration runs on element-index tuples (``linalg.rref_i``).  Once
<S, p> is found, every point of it outside S spans the same extension of
S, so all of them are struck from S's candidates: each extension of S is
reduced once, and the points of each distinct span are listed once.
Field elements appear only in the public ``basis`` of a subspace.

The rank n is the Witt index of the form (``witt_index``), so building a
graph enumerates no subspace level.  Every freshly enumerated level is
checked to hold exactly N_k = ``singular_subspace_count`` members, and
``descriptor()`` checks the rank against enumeration: level n-1 must be
non-empty and level n empty.  The maximals through a subspace L are grown
from L alone (``maximals_containing``), so the polar and hyperbolic
constructions, which need only the t+1 maximals through one L, never list
the top level.

All output lists are sorted by the canonical subspace key, making every
downstream computation reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import isqrt

from . import forms, linalg
from .forms import Form


class PolarSpaceError(Exception):
    pass


class DimensionOutOfRange(PolarSpaceError):
    pass


class NotSingular(PolarSpaceError):
    pass


class WrongDimension(PolarSpaceError):
    pass


class NotPairwiseCollinear(PolarSpaceError):
    pass


class OrderNotWellDefined(PolarSpaceError):
    pass


class LevelCountMismatch(PolarSpaceError):
    pass


@dataclass(frozen=True)
class ProjectivePoint:
    """A singular projective point, normalised so its first nonzero coordinate is 1."""

    rep: tuple
    index: int

    def key(self) -> tuple[int, ...]:
        return linalg.vec_key(self.rep)


@dataclass(frozen=True)
class SingularSubspace:
    """A totally singular subspace in canonical reduced-echelon form."""

    basis: tuple
    key: tuple[int, ...]
    point_bits: int
    proj_dim: int

    def __len__(self):
        return len(self.basis)

    def point_indices(self) -> tuple[int, ...]:
        return bit_indices(self.point_bits)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The basis as rows of element indices."""
        return tuple(linalg.vec_key(r) for r in self.basis)


@dataclass(frozen=True)
class PolarSpaceDescriptor:
    family: str
    q: int
    rank: int
    order: tuple[int, int]
    e: Fraction
    point_count: int
    maximal_count: int


# order parameter t and counting constant e per family, from the classical
# classification of embedded polar spaces of rank >= 2
def _expected_t(family: str, q: int, dim: int, sqrt_q: int | None) -> int:
    if family == "sp" or family == "o":
        return q
    if family == "o+":
        return 1
    if family == "o-":
        return q * q
    # unitary: t = sqrt(q) in even dimension, q*sqrt(q) in odd
    return sqrt_q if dim % 2 == 0 else q * sqrt_q


def _expected_e(family: str, dim: int) -> Fraction:
    fixed = {"sp": Fraction(1), "o": Fraction(1), "o+": Fraction(0), "o-": Fraction(2)}
    if family in fixed:
        return fixed[family]
    return Fraction(1, 2) if dim % 2 == 0 else Fraction(3, 2)


def witt_index(family: str, dim: int) -> int:
    """The rank n of the standard form: maximal totally singular subspaces
    have vector dimension n."""
    return (dim - {"o": 1, "o-": 2}.get(family, 0)) // 2


def singular_subspace_count(family: str, dim: int, q: int, k: int) -> int:
    """N_k = [n k]_q * prod_{i=n-k+1..n} (q^(i+e-1) + 1), the number of totally
    singular k-spaces at rank n; q is a square when e is half-integral."""
    n = witt_index(family, dim)
    if k > n:
        return 0
    two_e = int(2 * _expected_e(family, dim))
    value = 1
    for i in range(k):
        value = value * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    for i in range(n - k + 1, n + 1):
        value *= isqrt(q ** (2 * i + two_e - 2)) + 1
    return value


class PolarSpace:
    """The polar space of a standard form; each enumerated level is kept in
    memory for the life of the instance."""

    def __init__(self, form: Form):
        self.form = form
        self.ctx = form.ctx
        self.family = form.family
        self.dim = form.dim
        self._points: list[ProjectivePoint] | None = None
        self._point_keys: list[tuple[int, ...]] = []
        self._point_lookup: dict[tuple[int, ...], int] = {}
        self._collinearity: list[int] | None = None
        self._levels: dict[int, list[SingularSubspace]] = {}
        self._descriptor: PolarSpaceDescriptor | None = None

    # -- points ---------------------------------------------------------------

    def points(self) -> list[ProjectivePoint]:
        if self._points is None:
            ctx, d = self.ctx, self.dim
            reps = []
            for lead in range(d):
                for tail in product(range(ctx.q), repeat=d - lead - 1):
                    vec = (0,) * lead + (1,) + tail
                    if forms.singular_i(self.form, vec):
                        reps.append(vec)
            reps.sort()
            pts = []
            for i, vec in enumerate(reps):
                rep = tuple(ctx.element(c) for c in vec)
                pts.append(ProjectivePoint(rep, i))
                self._point_lookup[vec] = i
            self._point_keys = reps
            self._points = pts
        return self._points

    def point_count(self) -> int:
        return len(self.points())

    def point_index(self, key: tuple[int, ...]) -> int | None:
        """Index of the point spanned by a nonzero vector of element indices,
        or None when that point is not singular."""
        self.points()
        ctx = self.ctx
        scale = ctx.tables()[1][ctx.inv_i(next(a for a in key if a))]
        return self._point_lookup.get(tuple(scale[a] for a in key))

    def point_for_vector(self, v) -> ProjectivePoint:
        """The point spanned by a nonzero singular vector."""
        key = linalg.vec_key(v)
        if not any(key):
            raise ValueError("zero vector has no projective representative")
        index = self.point_index(key)
        if index is None:
            raise NotSingular(f"{key} is not a singular point of {self.form!r}")
        return self._points[index]

    def collinearity_bits(self) -> list[int]:
        """bitset per point: indices of the distinct points collinear with it.

        The form is reflexive, so row i is the set of points j with
        keys[j] . t = 0, where t = kernel_row_i(keys[i]).  Split the
        coordinates into halves A and B and write t_A = s_A u_A with u_A
        normalised (first nonzero entry 1, or u_A = 0).  For every
        normalised u of each half, the points are sorted once into q
        bitsets by the value of keys[j]_A . u.  Then keys[j] . t is
        s_A a + s_B b, which is 0 exactly when b = -(s_A / s_B) a, so a
        row is an OR of q ANDs, not a loop over point pairs.
        """
        if self._collinearity is None:
            self.points()
            keys = self._point_keys
            q = self.ctx.q
            add, mul, neg, inv = self.ctx.tables()
            # by_value[l][a]: the points whose coordinate l is a
            by_value = [[0] * q for _ in range(self.dim)]
            for j, key in enumerate(keys):
                for classes, a in zip(by_value, key):
                    classes[a] |= 1 << j

            def sorted_by_value(coords):
                # normalised u -> the points by the value of keys[j]_coords . u
                table = {(): [(1 << len(keys)) - 1] + [0] * (q - 1)}
                for classes in coords:
                    grown = {}
                    for u, by_sum in table.items():
                        # a zero prefix stays normalised only when followed by 0 or 1
                        for c in range(q) if any(u) else (0, 1):
                            out = [0] * q
                            for s, points in enumerate(by_sum):
                                if points:
                                    for a, cls in enumerate(classes):
                                        out[add[s][mul[c][a]]] |= points & cls
                            grown[u + (c,)] = out
                    table = grown
                return table

            def normalised(u):
                s = next((a for a in u if a), 1)
                return tuple(mul[inv[s]][a] for a in u), s

            half = self.dim // 2
            table_a = sorted_by_value(by_value[:half])
            table_b = sorted_by_value(by_value[half:])
            rows = []
            for i, key in enumerate(keys):
                t = forms.kernel_row_i(self.form, key)
                (u_a, s_a), (u_b, s_b) = normalised(t[:half]), normalised(t[half:])
                by_a, by_b = table_a[u_a], table_b[u_b]
                cancel = mul[mul[neg[s_a]][inv[s_b]]]
                row = 0
                for a, cls in enumerate(by_a):
                    row |= cls & by_b[cancel[a]]
                rows.append(row & ~(1 << i))
            self._collinearity = rows
        return self._collinearity

    # -- singular subspaces -----------------------------------------------------

    def _span_point_bits(self, rows) -> int:
        # For reduced-echelon index rows, combinations whose first nonzero
        # coefficient is 1 are already canonical point representatives.
        add, mul, _, _ = self.ctx.tables()
        lookup = self._point_lookup
        scalars = range(1, self.ctx.q)
        bits = 0
        for lead in range(len(rows)):
            vecs = [rows[lead]]
            for row in rows[lead + 1:]:
                multiples = [[mul[c][a] for a in row] for c in scalars]
                vecs += [tuple(add[a][b] for a, b in zip(v, m))
                         for v in vecs for m in multiples]
            for v in vecs:
                bits |= 1 << lookup[v]
        return bits

    def _subspace(self, key: tuple[int, ...], point_bits: int) -> SingularSubspace:
        d = self.dim
        rows = [key[i:i + d] for i in range(0, len(key), d)]
        return SingularSubspace(linalg.element_rows(self.ctx, rows), key,
                                point_bits, len(rows) - 1)

    def _singular_span(self, rows, error: PolarSpaceError) -> SingularSubspace:
        """The span of rows of element indices; raises error unless it is
        totally singular."""
        basis = linalg.rref_i(self.ctx, rows)
        if not forms.totally_singular_i(self.form, basis):
            raise error
        self.points()
        return self._subspace(sum(basis, ()), self._span_point_bits(basis))

    def subspaces(self, d: int) -> list[SingularSubspace]:
        """All totally singular subspaces of projective dimension d, sorted."""
        if d < 0 or d >= self.dim:
            raise DimensionOutOfRange(f"projective dimension {d} out of range")
        if d in self._levels:
            return self._levels[d]
        if d == 0:
            # each point key is already reduced, and the keys are sorted
            self.points()
            level = [self._subspace(key, 1 << i)
                     for i, key in enumerate(self._point_keys)]
        else:
            level = self._extend_level(self.subspaces(d - 1))
        expected = singular_subspace_count(self.family, self.dim, self.ctx.q, d + 1)
        if len(level) != expected:
            raise LevelCountMismatch(
                f"level {d} holds {len(level)} subspaces, but N_{d + 1} = {expected}")
        self._levels[d] = level
        return level

    def _extend_level(self, prev: list[SingularSubspace]) -> list[SingularSubspace]:
        ctx, d = self.ctx, self.dim
        collin = self.collinearity_bits()
        reps = self._point_keys
        # flat key -> point bits of every extension found so far
        seen: dict[tuple[int, ...], int] = {}
        for sub in prev:
            rows = tuple(sub.key[i:i + d] for i in range(0, len(sub.key), d))
            cand = -1
            for pi in bit_indices(sub.point_bits):
                cand &= collin[pi]
            cand &= ~sub.point_bits
            while cand:
                p = reps[(cand & -cand).bit_length() - 1]
                basis = linalg.rref_i(ctx, rows + (p,))
                key = sum(basis, ())
                bits = seen.get(key)
                if bits is None:
                    bits = seen[key] = self._span_point_bits(basis)
                # every point of <sub, p> outside sub spans the same extension
                cand &= ~bits
        return [self._subspace(k, seen[k]) for k in sorted(seen)]

    def rank(self) -> int:
        """Rank n, the Witt index: maximal singular subspaces have projective
        dimension n-1."""
        return witt_index(self.family, self.dim)

    def maximals(self) -> list[SingularSubspace]:
        return self.subspaces(self.rank() - 1)

    # -- order, descriptor -------------------------------------------------------

    def descriptor(self) -> PolarSpaceDescriptor:
        """Rank and order, checked against the enumerated levels once per space."""
        if self._descriptor is not None:
            return self._descriptor
        n = self.rank()
        ctx = self.ctx
        if (n >= 1 and not self.subspaces(n - 1)) or self.subspaces(n):
            raise OrderNotWellDefined(
                f"the enumerated levels do not end at the Witt index {n}")
        if n < 1:
            raise OrderNotWellDefined("space has no points")
        if n == 1:
            # no (n-2)-dimensional singular subspaces exist; order degenerates
            t = 0
        else:
            # t+1 counted over the enumerated top level: a check of the
            # enumeration, which maximals_containing does not read
            maximals = self.maximals()
            counts = {
                sum(M.point_bits & L.point_bits == L.point_bits for M in maximals)
                for L in self.subspaces(n - 2)
            }
            if len(counts) != 1:
                raise OrderNotWellDefined(f"t+1 takes several values: {sorted(counts)}")
            t = counts.pop() - 1
            if t < 1:
                raise OrderNotWellDefined(f"t = {t} is not positive")
            sqrt_q = ctx.p ** (ctx.k // 2) if ctx.k % 2 == 0 else None
            expected = _expected_t(self.family, ctx.q, self.dim, sqrt_q)
            if t != expected:
                raise OrderNotWellDefined(
                    f"computed t = {t} but the {self.family} family requires {expected}")
        self._descriptor = PolarSpaceDescriptor(
            family=self.family,
            q=ctx.q,
            rank=n,
            order=(ctx.q, t),
            e=_expected_e(self.family, self.dim),
            point_count=self.point_count(),
            maximal_count=len(self.maximals()),
        )
        return self._descriptor

    # -- the building blocks of the optimal eigenfunctions -------------------------

    def maximals_containing(self, L: SingularSubspace) -> list[SingularSubspace]:
        """All maximal singular subspaces strictly containing L, sorted.

        They are grown from L one dimension at a time, so no level of the
        space is listed."""
        if not forms.totally_singular_i(self.form, L.rows()):
            raise NotSingular("L is not totally singular")
        n = self.rank()
        if L.proj_dim >= n - 1:
            return []
        grown = [L]
        for _ in range(L.proj_dim, n - 1):
            grown = self._extend_level(grown)
        return grown

    def difference_pairs(self, L: SingularSubspace):
        """Unordered pairs {M minus L, N minus L} over distinct maximals through L.

        Requires proj_dim(L) = n-2; yields choose(t+1, 2) pairs of point-index
        tuples in canonical order.
        """
        n = self.rank()
        if L.proj_dim != n - 2:
            raise WrongDimension(
                f"need projective dimension {n - 2}, got {L.proj_dim}")
        sigma = self.maximals_containing(L)
        pairs = []
        for i in range(len(sigma)):
            for j in range(i + 1, len(sigma)):
                a = bit_indices(sigma[i].point_bits & ~L.point_bits)
                b = bit_indices(sigma[j].point_bits & ~L.point_bits)
                pairs.append((a, b) if a <= b else (b, a))
        pairs.sort()
        return pairs

    def span_closure(self, *point_groups) -> SingularSubspace:
        """Smallest singular subspace containing the given points.

        Raises NotPairwiseCollinear when the linear span is not totally
        singular.
        """
        rows = []
        for group in point_groups:
            if isinstance(group, ProjectivePoint):
                group = [group]
            for p in group:
                rows.append(p.key())
        if not rows:
            raise PolarSpaceError("span of nothing")
        return self._singular_span(
            rows, NotPairwiseCollinear("the span is not totally singular"))


def bit_indices(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a bitset, in increasing order."""
    out = []
    while bits:
        lsb = bits & -bits
        out.append(lsb.bit_length() - 1)
        bits ^= lsb
    return tuple(out)


def counter_planes(adj, part: int) -> list[int]:
    """Bit-sliced neighbour counts: bit u of plane i is bit i of |N(u) ∩ part|.

    Carry-save: each weight 2^b holds a plane and at most one input waiting
    for a partner (0 when none; a zero input adds nothing).  The next input
    goes through one full adder (3 -> 2) with the waiting one and the plane,
    and its carry moves up to weight 2^(b+1).  Weight 2^b sees at most
    |part| / 2^b inputs, so |part|.bit_length() planes hold every count.  A
    ripple at the end folds the waiting inputs in.
    """
    size = part.bit_count().bit_length()
    planes = [0] * size
    waiting = [0] * size
    for v in bit_indices(part):
        x = adj[v]
        b = 0
        while waiting[b]:
            y = waiting[b]
            waiting[b] = 0
            a = planes[b]
            t = a ^ y
            planes[b] = t ^ x
            x = (a & y) | (t & x)
            b += 1
        waiting[b] = x
    carry = 0
    for b, y in enumerate(waiting):
        a = planes[b]
        t = a ^ y
        planes[b] = t ^ carry
        carry = (a & y) | (t & carry)
    return planes


def counts_differ(planes_a, planes_b, mask: int) -> int:
    """The vertices of mask on which two bit-sliced counters disagree; the
    shorter plane list reads as zero above its top plane."""
    diff = 0
    for x, y in zip_longest(planes_a, planes_b, fillvalue=0):
        diff |= x ^ y
    return diff & mask


@lru_cache(maxsize=None)
def polar_space(form: Form) -> PolarSpace:
    """Shared PolarSpace instance for a form (enumerations are reused)."""
    return PolarSpace(form)


# Thin operation-style wrappers.

def points(form: Form) -> list[ProjectivePoint]:
    return polar_space(form).points()


def singular_subspaces(form: Form, d: int) -> list[SingularSubspace]:
    return polar_space(form).subspaces(d)


def rank_and_order(form: Form) -> PolarSpaceDescriptor:
    return polar_space(form).descriptor()
