"""Eigenfunctions of polar graphs and the weight-distribution bound.

A theta-eigenfunction is a nonzero vertex function f with
theta * f(x) = sum of f over the neighbours of x, at every vertex.  For a
primitive strongly regular graph the support of such a function has at
least 2*(theta1+1) nonzeroes when theta = theta1 and -2*theta2 when
theta = theta2; the constructions below meet those bounds exactly.

Values are exact rationals: the built-in constructions only use {1, -1, 0},
but verification of user-supplied functions must not round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import forms, graphs, linalg
from .gf import norm_minus_one_unit, norm_one_subgroup
from .graphs import CliqueInfo, PolarGraph, SrgParams, delsarte_bound
from .polarspace import SingularSubspace, WrongDimension, bit_indices


class EigenfunctionError(Exception):
    pass


class ZeroFunction(EigenfunctionError):
    pass


class NotAnEigenfunction(EigenfunctionError):
    def __init__(self, vertex: int, lhs: Fraction, rhs: Fraction):
        self.vertex = vertex
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"condition fails at vertex {vertex}: theta*f = {lhs}, "
            f"neighbour sum = {rhs}")


class NotNonPrincipal(EigenfunctionError):
    pass


class NotInSigmaL(EigenfunctionError):
    pass


class NotDelsarte(EigenfunctionError):
    pass


class NotMaxIntersection(EigenfunctionError):
    pass


class TNotInPerp(EigenfunctionError):
    pass


class TInAffM(EigenfunctionError):
    pass


@dataclass
class Eigenfunction:
    """Sparse vertex -> rational map with a declared eigenvalue."""

    values: dict[int, Fraction]
    theta: int
    graph_ref: dict

    def __post_init__(self):
        self.values = {v: Fraction(c) for v, c in self.values.items()
                       if Fraction(c) != 0}

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def support_size(self) -> int:
        return len(self.values)

    def __call__(self, vertex: int) -> Fraction:
        return self.values.get(vertex, Fraction(0))

    def scaled(self, c) -> "Eigenfunction":
        c = Fraction(c)
        return Eigenfunction({v: c * x for v, x in self.values.items()},
                             self.theta, self.graph_ref)


@dataclass(frozen=True)
class WdbReport:
    theta: int
    bound: int | None
    support_size: int
    tight: bool


def wdb(theta: int, params: SrgParams) -> int:
    """The weight-distribution lower bound on the support of a theta-eigenfunction.

    Evaluates 1 + |theta| + |((theta - lam) theta - k) / mu| exactly and
    checks it simplifies to 2*(theta1 + 1) rsp. -2*theta2.
    """
    spec = graphs.spectrum(params)
    if theta == spec.theta1:
        expected = 2 * (spec.theta1 + 1)
    elif theta == spec.theta2:
        expected = -2 * spec.theta2
    else:
        raise NotNonPrincipal(
            f"theta = {theta} is not one of ({spec.theta1}, {spec.theta2})")
    value = 1 + abs(theta) + abs(
        Fraction((theta - params.lam) * theta - params.k, params.mu))
    if value != expected:
        raise EigenfunctionError(
            f"the bound evaluates to {value}, but the spectrum gives {expected}")
    return expected


def verify_eigenfunction(g: PolarGraph, f: Eigenfunction,
                         params: SrgParams | None = None) -> WdbReport:
    """Check the eigenfunction condition at every vertex, exactly.

    Raises NotAnEigenfunction at the least violating vertex.  The returned
    report carries the weight-distribution bound when theta is one of the
    two non-principal eigenvalues (None for the principal eigenvalue).
    """
    if not f.values:
        raise ZeroFunction("an eigenfunction needs a nonzero value")
    for v in f.values:
        if not 0 <= v < g.n:
            raise EigenfunctionError(f"vertex {v} outside graph of order {g.n}")
    support = sorted(f.values)
    theta = Fraction(f.theta)
    adj = g.adj
    for gamma in range(g.n):
        row = adj[gamma]
        rhs = Fraction(0)
        for delta in support:
            if row >> delta & 1:
                rhs += f.values[delta]
        lhs = theta * f.values.get(gamma, Fraction(0))
        if lhs != rhs:
            raise NotAnEigenfunction(gamma, lhs, rhs)
    params = params or g.srg_params()
    try:
        bound = wdb(f.theta, params)
    except NotNonPrincipal:
        bound = None
    size = f.support_size()
    return WdbReport(f.theta, bound, size, bound is not None and size == bound)


# -- construction helpers -------------------------------------------------------

def _require_kind(g: PolarGraph, kinds, what: str):
    kind = g.provenance.get("kind")
    if kind not in kinds:
        raise EigenfunctionError(f"{what} needs a {'/'.join(kinds)} graph, got {kind}")


def _check_sigma_pair(space, L: SingularSubspace, M, N):
    sigma = space.maximals_containing(L)
    keys = {s.key for s in sigma}
    if M is None or N is None:
        if len(sigma) < 2:
            raise NotInSigmaL("fewer than two maximals contain L")
        M = M or sigma[0]
        N = N or sigma[1]
    if M.key == N.key:
        raise NotInSigmaL("M and N must be distinct")
    if M.key not in keys or N.key not in keys:
        raise NotInSigmaL("M and N must be maximals strictly containing L")
    return M, N


def theta1_polar(g: PolarGraph, L: SingularSubspace | None = None,
                 M: SingularSubspace | None = None,
                 N: SingularSubspace | None = None) -> Eigenfunction:
    """+1 on M minus L, -1 on N minus L, for maximals M, N over an (n-2)-space L.

    A tight eigenfunction for the positive non-principal eigenvalue
    q^(n-1) - 1 of the collinearity graph; support 2 q^(n-1).  L defaults
    to the least-key (n-2)-space, found without listing its level, and M, N
    to the first two maximals through L.
    """
    _require_kind(g, ("collinearity", "unitary"), "theta1_polar")
    space = g.space
    n = space.rank()
    if L is None:
        L = space.least_subspace(n - 2)
    if L.proj_dim != n - 2:
        raise WrongDimension(f"L must have projective dimension {n - 2}")
    M, N = _check_sigma_pair(space, L, M, N)
    one = Fraction(1)
    values: dict[int, Fraction] = {}
    for pi in bit_indices(M.point_bits & ~L.point_bits):
        values[pi] = one
    for pi in bit_indices(N.point_bits & ~L.point_bits):
        values[pi] = -one
    theta = space.ctx.q ** (n - 1) - 1
    return Eigenfunction(values, theta, dict(g.provenance))


def _affine_context(g: PolarGraph, family: str, what: str):
    if g.provenance.get("family") != family:
        raise EigenfunctionError(f"{what} needs a {family} graph")
    return g.space, g.ctx, g.provenance["m"]


def _vec_lift(space, point_bits: int, scalars) -> list[tuple[int, ...]]:
    """Index tuples of the nonzero vectors over a set of projective points."""
    pts = space.points()
    mul = space.ctx.mul_i
    out = []
    for pi in bit_indices(point_bits):
        rep = pts[pi].key()
        for a in scalars:
            out.append(tuple(mul(a, c) for c in rep))
    return out


def _shift_key(ctx, v_key, w_key):
    add = ctx.add_i
    return tuple(add(a, b) for a, b in zip(v_key, w_key))


def _as_key(ctx, v, dim) -> tuple[int, ...]:
    if v is None:
        return (0,) * dim
    key = tuple(a.index if hasattr(a, "index") else int(a) for a in v)
    if len(key) != dim:
        raise EigenfunctionError(f"vector of length {len(key)}, expected {dim}")
    return key


def theta1_hyperbolic(g: PolarGraph, v=None, L: SingularSubspace | None = None,
                      M: SingularSubspace | None = None,
                      N: SingularSubspace | None = None) -> Eigenfunction:
    """The translated difference pair in a hyperbolic affine polar graph.

    +1 on v + the vector lift of M minus L (origin removed), -1 on the same
    for N; theta1 = q^m - q^(m-1) - 1, support 2 (q^m - q^(m-1)).  L
    defaults to the least-key (m-2)-space, found without listing its level,
    and M, N to the first two maximals through L.
    """
    space, ctx, m = _affine_context(g, "vo+", "theta1_hyperbolic")
    if m < 2:
        raise WrongDimension("needs m >= 2")
    if L is None:
        L = space.least_subspace(m - 2)
    if L.proj_dim != m - 2:
        raise WrongDimension(f"L must have projective dimension {m - 2}")
    M, N = _check_sigma_pair(space, L, M, N)
    v_key = _as_key(ctx, v, 2 * m)
    scalars = range(1, ctx.q)
    values: dict[int, Fraction] = {}
    one = Fraction(1)
    for w in _vec_lift(space, M.point_bits & ~L.point_bits, scalars):
        values[g.vec_index[_shift_key(ctx, v_key, w)]] = one
    for w in _vec_lift(space, N.point_bits & ~L.point_bits, scalars):
        values[g.vec_index[_shift_key(ctx, v_key, w)]] = -one
    theta = ctx.q ** m - ctx.q ** (m - 1) - 1
    return Eigenfunction(values, theta, dict(g.provenance))


def least_perp_translation(g: PolarGraph, M: SingularSubspace) -> tuple[int, ...]:
    """The canonically least vector in Aff(M)-perp outside Aff(M), as a
    tuple of element indices."""
    space = g.space
    rows = M.rows()
    for w in linalg.span_i(space.ctx, forms.perp_i(space.form, rows), space.dim):
        if not linalg.in_span_i(space.ctx, rows, w):
            return w
    raise TNotInPerp("perp of Aff(M) equals Aff(M)")


def theta1_elliptic(g: PolarGraph, v=None, M: SingularSubspace | None = None,
                    t=None) -> Eigenfunction:
    """A maximal-clique coset and its perp translate in an elliptic affine graph.

    +1 on v + Aff(M), -1 on t + v + Aff(M) with t in Aff(M)-perp outside
    Aff(M); theta1 = q^(m-1) - 1, support 2 q^(m-1).  M defaults to the
    least-key maximal, found without listing the top level, and t to
    ``least_perp_translation``.
    """
    space, ctx, m = _affine_context(g, "vo-", "theta1_elliptic")
    if M is None:
        M = space.least_subspace(space.rank() - 1)
    if M.proj_dim != space.rank() - 1:
        raise EigenfunctionError("M must be a maximal singular subspace")
    if t is None:
        t = least_perp_translation(g, M)
    t_key = _as_key(ctx, t, 2 * m)
    rows = M.rows()
    if not linalg.in_span_i(ctx, forms.perp_i(space.form, rows), t_key):
        raise TNotInPerp("t is not orthogonal to Aff(M)")
    if linalg.in_span_i(ctx, rows, t_key):
        raise TInAffM("t lies inside Aff(M)")
    v_key = _as_key(ctx, v, 2 * m)
    aff = linalg.span_i(ctx, rows, space.dim)
    one = Fraction(1)
    values: dict[int, Fraction] = {}
    for w in aff:
        values[g.vec_index[_shift_key(ctx, v_key, w)]] = one
    base = _shift_key(ctx, v_key, t_key)
    for w in aff:
        values[g.vec_index[_shift_key(ctx, base, w)]] = -one
    theta = ctx.q ** (m - 1) - 1
    return Eigenfunction(values, theta, dict(g.provenance))


def optimal_clique_shape(g: PolarGraph) -> tuple[int, int]:
    """(clique size, intersection size) of the optimal clique pairs of g.

    Cliques of Delsarte size with the largest feasible intersection when the
    Delsarte bound is an integer; otherwise disjoint maximum cliques of size
    theta1 + 1 (the elliptic affine case).
    """
    params = g.srg_params()
    spec = graphs.spectrum(params)
    bound = delsarte_bound(params, spec)
    if bound.denominator == 1:
        size = int(bound)
    else:
        size = spec.theta1 + 1
    return size, size - (spec.theta1 + 1)


def theta1_from_clique_pair(g: PolarGraph, C0, C1) -> Eigenfunction:
    """The difference of two optimal cliques, zero on their intersection.

    C0, C1 may be CliqueInfo objects or vertex collections.  They must be
    cliques of the optimal size whose intersection is the maximum feasible
    for the family; the difference sets then form a pair of isolated cliques
    of size theta1 + 1.
    """
    params = g.srg_params()
    spec = graphs.spectrum(params)
    size, inter = optimal_clique_shape(g)
    bits = []
    for C in (C0, C1):
        if isinstance(C, CliqueInfo):
            b = C.bits()
        else:
            b = 0
            for x in C:
                b |= 1 << x
        members = bit_indices(b)
        if len(members) != size or any(
                not g.are_adjacent(x, y)
                for i, x in enumerate(members) for y in members[i + 1:]):
            raise NotDelsarte(f"expected a clique of size {size}")
        bits.append(b)
    b0, b1 = bits
    if b0 == b1:
        raise NotDelsarte("cliques must be distinct")
    common = b0 & b1
    if common.bit_count() != inter:
        raise NotMaxIntersection(
            f"intersection {common.bit_count()}, the family's maximum is {inter}")
    values: dict[int, Fraction] = {}
    one = Fraction(1)
    for x in bit_indices(b0 & ~common):
        values[x] = one
    for x in bit_indices(b1 & ~common):
        values[x] = -one
    return Eigenfunction(values, spec.theta1, dict(g.provenance))


def theta2_unitary(g: PolarGraph) -> Eigenfunction:
    """The tight negative-eigenvalue construction in the hermitian graph.

    Two (sqrt(q)+1)-sets of isotropic points on a pair of skew lines, carrying
    +1 and -1; they induce a complete bipartite subgraph and meet the bound
    -2*theta2 = 2*(sqrt(q)+1) for theta2 = -(sqrt(q)+1).
    """
    _require_kind(g, ("unitary",), "theta2_unitary")
    space = g.space
    ctx = g.ctx
    r = ctx.sqrt_q
    subgroup = norm_one_subgroup(ctx)
    if ctx.p == 2:
        seconds = [gamma for gamma in subgroup]
    else:
        eps = norm_minus_one_unit(ctx)
        seconds = [eps * gamma for gamma in subgroup]
    one_e, zero_e = ctx.one, ctx.zero
    values: dict[int, Fraction] = {}
    plus, minus = Fraction(1), Fraction(-1)
    for a in seconds:
        p0 = space.point_for_vector((one_e, a, zero_e, zero_e))
        values[p0.index] = plus
        p1 = space.point_for_vector((zero_e, zero_e, one_e, a))
        values[p1.index] = minus
    return Eigenfunction(values, -(r + 1), dict(g.provenance))


def unitary_pair_parts(f: Eigenfunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(T0, T1) of a +/-1 two-part function: positive and negative supports."""
    t0 = tuple(sorted(v for v, c in f.values.items() if c > 0))
    t1 = tuple(sorted(v for v, c in f.values.items() if c < 0))
    return t0, t1


def outside_neighbour_counts(g: PolarGraph, t0, t1) -> list[tuple[int, int, int]]:
    """(vertex, |N(v) ∩ T0|, |N(v) ∩ T1|) for every vertex outside T0 ∪ T1."""
    b0 = b1 = 0
    for x in t0:
        b0 |= 1 << x
    for x in t1:
        b1 |= 1 << x
    out = []
    for u in range(g.n):
        if (b0 | b1) >> u & 1:
            continue
        out.append((u, (g.adj[u] & b0).bit_count(), (g.adj[u] & b1).bit_count()))
    return out
