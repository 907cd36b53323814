"""Embedded polar spaces: points, singular subspaces, rank and order.

A span is totally singular exactly when its basis vectors are singular and
pairwise orthogonal, so collinearity is orthogonality of point pairs.  It
is computed a row at a time with bitset operations (``collinearity_bits``),
cached as bitsets and shared with the collinearity-graph builder.

One depth-first search over reduced-echelon bases (``_bases``) answers
every question about singular subspaces, and yields each subspace once and
in key order, with no row reduction, deduplication or sort.  A level is
everything it yields (``subspaces``), the least-key subspace its first
answer (``least_subspace``), and the maximals through L its answers inside
L^perp (``maximals_containing``), so the constructions list no level.
Field elements appear only in the public ``basis`` of a subspace.

The rank n is the Witt index of the form (``witt_index``), so building a
graph enumerates no subspace level.  Every enumerated level is checked to
hold exactly N_k = ``singular_subspace_count`` members, and
``descriptor()`` checks the rank against enumeration: level n-1 must be
non-empty and level n empty.

All output lists are sorted by the canonical subspace key, making every
downstream computation reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from . import bitsets, forms, linalg
from .forms import Form
from .record import Record


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


class ProjectivePoint(Record):
    """A singular projective point, normalised so its first nonzero coordinate is 1."""

    rep: tuple
    index: int

    def key(self) -> tuple[int, ...]:
        return linalg.vec_key(self.rep)


class SingularSubspace(Record):
    """A totally singular subspace in canonical reduced-echelon form."""

    basis: tuple
    key: tuple[int, ...]
    point_bits: int
    proj_dim: int

    def __len__(self):
        return len(self.basis)

    def point_indices(self) -> tuple[int, ...]:
        return bitsets.bit_indices(self.point_bits)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The basis as rows of element indices."""
        return tuple(linalg.vec_key(r) for r in self.basis)


class PolarSpaceDescriptor(Record):
    family: str
    q: int
    rank: int
    order: tuple[int, int]
    e: Fraction
    point_count: int
    maximal_count: int


# counting constant e per family, from the classical classification of
# embedded polar spaces of rank >= 2; the order parameter t is q^e
def _expected_e(family: str, dim: int) -> Fraction:
    fixed = {"sp": Fraction(1), "o": Fraction(1), "o+": Fraction(0), "o-": Fraction(2)}
    if family in fixed:
        return fixed[family]
    return Fraction(1, 2) if dim % 2 == 0 else Fraction(3, 2)


def q_power(q: int, e) -> int:
    """q^e for a non-negative multiple e of 1/2; q is a square when e is
    half-integral."""
    twice = q ** int(2 * e)
    root = isqrt(twice)
    if root * root != twice:
        raise PolarSpaceError(f"q^{e} is not an integer for q = {q}")
    return root


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
    e = _expected_e(family, dim)
    value = 1
    for i in range(k):
        value = value * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    for i in range(n - k + 1, n + 1):
        value *= q_power(q, i + e - 1) + 1
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
        or None when that point is not singular; ValueError for a zero
        vector or one of the wrong length."""
        self.points()
        if len(key) != self.dim or not any(key):
            raise ValueError(f"{key} is not a nonzero vector of length {self.dim}")
        ctx = self.ctx
        scale = ctx.tables()[1][ctx.inv_i(next(a for a in key if a))]
        return self._point_lookup.get(tuple(scale[a] for a in key))

    def point_for_vector(self, v) -> ProjectivePoint:
        """The point spanned by a nonzero singular vector."""
        key = linalg.vec_key(v)
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
            bits |= bitsets.bits_of(map(lookup.__getitem__, vecs))
        return bits

    def _subspace(self, basis) -> SingularSubspace:
        """The subspace whose reduced-echelon rows of element indices are basis."""
        return SingularSubspace(linalg.element_rows(self.ctx, basis), sum(basis, ()),
                                self._span_point_bits(basis), len(basis) - 1)

    def _bases(self, d: int, cand: int = -1):
        """The reduced-echelon rows (point keys) of every totally singular
        subspace of projective dimension d spanned by points of cand, in
        increasing key order.

        cand is -1 (every point) or the singular points of a subspace, so a
        basis inside cand spans a subspace inside it.  The rows of a
        reduced-echelon basis are point keys whose pivots increase, each
        zero at the other rows' pivots, and the span is totally singular
        exactly when they are pairwise collinear.  That form is unique, and
        point keys are sorted, so a depth-first search that tries each row's
        candidates in index order yields each subspace once, in key order.
        """
        collin = self.collinearity_bits()
        keys, dim = self._point_keys, self.dim
        pivots = [key.index(1) for key in keys]  # point keys lead with 1
        pivot_at = [0] * dim
        for i, c in enumerate(pivots):
            pivot_at[c] |= 1 << i
        # follow[p]: the points that may be a later row than p: collinear
        # with p, with a later pivot at which p is zero (a later row is zero
        # at p's pivot, as at every column before its own pivot; the pivot
        # classes are disjoint, so their sum is their union)
        follow = [collin[i] & sum(pivot_at[c] for c in range(pivots[i] + 1, dim)
                                  if not key[c])
                  for i, key in enumerate(keys)]
        # room[r]: the points whose pivot leaves room for the rows after row r
        room = [sum(pivot_at[:dim - d + r]) for r in range(d + 1)]

        def grow(rows, cand):
            for p in bitsets.bit_indices(cand & room[len(rows)]):
                if len(rows) == d:
                    yield rows + (keys[p],)
                else:
                    yield from grow(rows + (keys[p],), cand & follow[p])

        return grow((), cand)

    def subspaces(self, d: int) -> list[SingularSubspace]:
        """All totally singular subspaces of projective dimension d, sorted."""
        if d < 0 or d >= self.dim:
            raise DimensionOutOfRange(f"projective dimension {d} out of range")
        if d in self._levels:
            return self._levels[d]
        level = [self._subspace(basis) for basis in self._bases(d)]
        expected = singular_subspace_count(self.family, self.dim, self.ctx.q, d + 1)
        if len(level) != expected:
            raise LevelCountMismatch(
                f"level {d} holds {len(level)} subspaces, but N_{d + 1} = {expected}")
        self._levels[d] = level
        return level

    def least_subspace(self, d: int) -> SingularSubspace:
        """``subspaces(d)[0]``, the totally singular subspace of projective
        dimension d with the least key, found without listing any level.

        The reduced-echelon rows of a subspace are point keys whose pivots
        increase, each zero at the other rows' pivots, and totally singular
        means pairwise collinear.  Point keys are sorted, so a depth-first
        search that tries each row's candidates in index order meets the
        least flat key first.
        """
        n = self.rank()
        if d < 0 or d >= n:
            raise DimensionOutOfRange(
                f"projective dimension {d} out of range for rank {n}")
        basis = next(self._bases(d), None)
        if basis is None:
            raise LevelCountMismatch(f"no subspace of projective dimension {d} found "
                                     f"below the rank {n}")
        if not forms.totally_singular_i(self.form, basis):
            raise NotSingular(f"the rows {basis} do not span a totally singular subspace")
        return self._subspace(basis)

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
        e = _expected_e(self.family, self.dim)
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
            counts = set(bitsets.containing_counts(
                [L.point_bits for L in self.subspaces(n - 2)],
                [M.point_bits for M in self.maximals()]))
            if len(counts) != 1:
                raise OrderNotWellDefined(f"t+1 takes several values: {sorted(counts)}")
            t = counts.pop() - 1
            if t < 1:
                raise OrderNotWellDefined(f"t = {t} is not positive")
            expected = q_power(ctx.q, e)
            if t != expected:
                raise OrderNotWellDefined(
                    f"computed t = {t} but the {self.family} family requires {expected}")
        self._descriptor = PolarSpaceDescriptor(
            family=self.family,
            q=ctx.q,
            rank=n,
            order=(ctx.q, t),
            e=e,
            point_count=self.point_count(),
            maximal_count=len(self.maximals()),
        )
        return self._descriptor

    # -- the building blocks of the optimal eigenfunctions -------------------------

    def maximals_containing(self, L: SingularSubspace) -> list[SingularSubspace]:
        """All maximal singular subspaces strictly containing L, sorted.

        They are the maximals inside L^perp, whose singular points are L's
        points and the points collinear with all of L: a maximal M inside
        L^perp contains L, or <M, L> would be a larger singular subspace.
        So no level of the space is listed."""
        if not forms.totally_singular_i(self.form, L.rows()):
            raise NotSingular("L is not totally singular")
        n = self.rank()
        if L.proj_dim >= n - 1:
            return []
        collin = self.collinearity_bits()
        perp = -1
        for p in L.point_indices():
            perp &= collin[p]
        return [self._subspace(basis) for basis in self._bases(n - 1, perp | L.point_bits)]

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
        basis = linalg.rref_i(self.ctx, rows)
        if not forms.totally_singular_i(self.form, basis):
            raise NotPairwiseCollinear("the span is not totally singular")
        self.points()
        return self._subspace(basis)


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
