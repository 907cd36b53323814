"""Embedded polar spaces: points, singular subspaces, rank and order.

Enumeration is breadth-first closure: start from the singular projective
points, extend every d-dimensional singular subspace by every point
collinear with all of it, canonicalise to reduced row-echelon form, and
deduplicate.  A span is totally singular exactly when its basis vectors are
singular and pairwise orthogonal, so collinearity reduces to one pairing
test per point pair; those tests are cached as bitsets and shared with the
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
non-empty and level n empty.

All output lists are sorted by the canonical subspace key, making every
downstream computation reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

from . import cache as _cache
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
    """The polar space of a standard form, with cached enumerations."""

    def __init__(self, form: Form, cache_dir=None):
        self.form = form
        self.ctx = form.ctx
        self.family = form.family
        self.dim = form.dim
        self._cache_dir = _cache.resolve_cache_dir(cache_dir)
        self._points: list[ProjectivePoint] | None = None
        self._point_keys: list[tuple[int, ...]] = []
        self._point_lookup: dict[tuple[int, ...], int] = {}
        self._collinearity: list[int] | None = None
        self._levels: dict[int, list[SingularSubspace]] = {}

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
        """bitset per point: indices of the distinct points collinear with it."""
        if self._collinearity is None:
            self.points()
            keys = self._point_keys
            n = len(keys)
            rows = [0] * n
            # B(u, w) = u . kernel_row_i(w): one row per point, then the pair
            # scan is a short dot product over u's support
            transformed = [forms.kernel_row_i(self.form, w) for w in keys]
            supports = [[(l, v) for l, v in enumerate(w) if v] for w in keys]
            add_t, mul_t, _, _ = self.ctx.tables()
            for i in range(n):
                sup = supports[i]
                for j in range(i + 1, n):
                    t = transformed[j]
                    acc = 0
                    for l, v in sup:
                        tv = t[l]
                        if tv:
                            acc = add_t[acc][mul_t[v][tv]]
                    if acc == 0:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
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

    def _subspace_of_basis(self, basis) -> SingularSubspace:
        """The subspace with this reduced-echelon basis of index rows."""
        self.points()
        return self._subspace(sum(basis, ()), self._span_point_bits(basis))

    def _singular_span(self, rows, error: PolarSpaceError) -> SingularSubspace:
        """The span of rows of element indices; raises error unless it is
        totally singular."""
        basis = linalg.rref_i(self.ctx, rows)
        if not forms.totally_singular_i(self.form, basis):
            raise error
        return self._subspace_of_basis(basis)

    def _level_cache_io(self, d: int, level: list[SingularSubspace] | None):
        if self._cache_dir is None:
            return None
        name = _cache.subspace_cache_name(self.family, self.dim, self.ctx.p,
                                          self.ctx.k, d)
        path = self._cache_dir / name
        header = {
            "family": self.family,
            "dim": self.dim,
            "p": self.ctx.p,
            "k": self.ctx.k,
            "modulus": list(self.ctx.modulus),
            "level": d,
        }
        if level is None:
            # a damaged file is a miss, so the level is enumerated and rewritten
            entries = _cache.read_jsonl(path, header)
            if entries is None:
                return None
            try:
                level = [self._subspace_of_basis(linalg.rref_i(self.ctx, rows))
                         for rows in entries]
            except (TypeError, ValueError, IndexError, KeyError):
                return None
            return level if self._is_whole_level(d, level) else None
        _cache.write_jsonl(path, header,
                           [[list(row) for row in zip(*[iter(s.key)] * self.dim)]
                            for s in level])
        return None

    def _is_whole_level(self, d: int, level: list[SingularSubspace]) -> bool:
        """Whether level holds N_k distinct totally singular k-spaces
        (k = d + 1) in key order: only the whole level does."""
        collin = self.collinearity_bits()
        return (len(level) == singular_subspace_count(self.family, self.dim,
                                                      self.ctx.q, d + 1)
                and all(a.key < b.key for a, b in zip(level, level[1:]))
                and all(len(sub.key) == (d + 1) * self.dim for sub in level)
                and all((collin[p] | 1 << p) & sub.point_bits == sub.point_bits
                        for sub in level for p in bit_indices(sub.point_bits)))

    def subspaces(self, d: int) -> list[SingularSubspace]:
        """All totally singular subspaces of projective dimension d, sorted."""
        if d < 0 or d >= self.dim:
            raise DimensionOutOfRange(f"projective dimension {d} out of range")
        if d in self._levels:
            return self._levels[d]
        if d > 0:
            # ensure the previous level exists first
            prev = self.subspaces(d - 1)
        cached = self._level_cache_io(d, None)
        if cached is not None:
            self._levels[d] = cached
            return cached
        if d == 0:
            # each point key is already reduced, and the keys are sorted
            self.points()
            level = [self._subspace(key, 1 << i)
                     for i, key in enumerate(self._point_keys)]
        else:
            level = self._extend_level(prev)
        expected = singular_subspace_count(self.family, self.dim, self.ctx.q, d + 1)
        if len(level) != expected:
            raise LevelCountMismatch(
                f"level {d} holds {len(level)} subspaces, but N_{d + 1} = {expected}")
        self._levels[d] = level
        self._level_cache_io(d, level)
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
            counts = {
                len(self.maximals_containing(L)) for L in self.subspaces(n - 2)
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
        return PolarSpaceDescriptor(
            family=self.family,
            q=ctx.q,
            rank=n,
            order=(ctx.q, t),
            e=_expected_e(self.family, self.dim),
            point_count=self.point_count(),
            maximal_count=len(self.maximals()),
        )

    # -- the building blocks of the optimal eigenfunctions -------------------------

    def maximals_containing(self, L: SingularSubspace) -> list[SingularSubspace]:
        """All maximal singular subspaces strictly containing L, sorted."""
        if not forms.totally_singular_i(self.form, L.rows()):
            raise NotSingular("L is not totally singular")
        n = self.rank()
        if L.proj_dim >= n - 1:
            return []
        return [M for M in self.maximals()
                if M.point_bits & L.point_bits == L.point_bits]

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

    def subspace_for_basis(self, rows) -> SingularSubspace:
        return self._singular_span(
            [linalg.vec_key(r) for r in rows],
            NotSingular("basis does not span a totally singular subspace"))


def bit_indices(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a bitset, in increasing order."""
    out = []
    while bits:
        lsb = bits & -bits
        out.append(lsb.bit_length() - 1)
        bits ^= lsb
    return tuple(out)


@lru_cache(maxsize=None)
def _space_cached(form: Form, cache_dir: str | None) -> PolarSpace:
    return PolarSpace(form, cache_dir=cache_dir)


def polar_space(form: Form, cache_dir=None) -> PolarSpace:
    """Shared PolarSpace instance for a form (enumerations are reused).

    The cache directory (argument or POLAR_EIG_CACHE) is resolved before
    keying, so instances never leak across different cache settings.
    """
    resolved = _cache.resolve_cache_dir(cache_dir)
    return _space_cached(form, str(resolved) if resolved is not None else None)


# Thin operation-style wrappers.

def points(form: Form) -> list[ProjectivePoint]:
    return polar_space(form).points()


def singular_subspaces(form: Form, d: int) -> list[SingularSubspace]:
    return polar_space(form).subspaces(d)


def rank_and_order(form: Form) -> PolarSpaceDescriptor:
    return polar_space(form).descriptor()
