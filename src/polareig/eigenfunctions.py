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

from fractions import Fraction
from math import lcm

from . import forms, graphs, linalg
from .bitsets import bit_indices, bits_of
from .gf import FieldElement, norm_minus_one_unit, norm_one_subgroup
from .graphs import CliqueInfo, PolarGraph, SrgParams, delsarte_bound
from .polarspace import SingularSubspace, WrongDimension
from .record import Record


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


class Eigenfunction:
    """Sparse vertex -> rational map with a declared eigenvalue.

    Mutable (``verify`` overrides ``theta``), so equal by fields but not
    hashable."""

    def __init__(self, values: dict[int, Fraction], theta: int, graph_ref: dict):
        self.values = {v: Fraction(c) for v, c in values.items()
                       if Fraction(c) != 0}
        self.theta = theta
        self.graph_ref = graph_ref

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.values, self.theta, self.graph_ref)
                    == (other.values, other.theta, other.graph_ref))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return (f"Eigenfunction(values={self.values!r}, theta={self.theta!r}, "
                f"graph_ref={self.graph_ref!r})")

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


class WdbReport(Record):
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


def verify_eigenfunction(g: PolarGraph, f: Eigenfunction) -> WdbReport:
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
    # scaled by the common denominator, the values are ints w, and the
    # vertices of each value form one bitset; at gamma the condition is
    # theta * w_gamma = sum of w |N(gamma) ∩ class_w|, times theta's denominator
    scale = lcm(*(x.denominator for x in f.values.values()))
    scaled = {v: x.numerator * (scale // x.denominator) for v, x in f.values.items()}
    by_value: dict[int, list[int]] = {}
    for v, w in scaled.items():
        by_value.setdefault(w, []).append(v)
    classes = [(w, bits_of(vs)) for w, vs in by_value.items()]
    theta = Fraction(f.theta)
    num, den = theta.numerator, theta.denominator
    for gamma, row in enumerate(g.adj):
        total = sum(w * (row & cls).bit_count() for w, cls in classes)
        if den * total != num * scaled.get(gamma, 0):
            rhs = sum((f.values[delta] for delta in sorted(f.values)
                       if row >> delta & 1), Fraction(0))
            raise NotAnEigenfunction(gamma, theta * f.values.get(gamma, Fraction(0)), rhs)
    try:
        bound = wdb(f.theta, g.srg_params())
    except NotNonPrincipal:
        bound = None
    size = f.support_size()
    return WdbReport(f.theta, bound, size, bound is not None and size == bound)


# -- construction helpers -------------------------------------------------------

def _pair_function(g: PolarGraph, plus, minus, theta: int) -> Eigenfunction:
    """+1 on the vertices plus, -1 on the vertices minus (written last)."""
    values = dict.fromkeys(plus, Fraction(1))
    values.update(dict.fromkeys(minus, Fraction(-1)))
    return Eigenfunction(values, theta, dict(g.provenance))


def _require_kind(g: PolarGraph, kinds, what: str):
    kind = g.provenance.get("kind")
    if kind not in kinds:
        raise EigenfunctionError(f"{what} needs a {'/'.join(kinds)} graph, got {kind}")


def _check_sigma_pair(space, L: SingularSubspace | None, M, N):
    """(L, M, N): an (n-2)-space L, by default the least-key one, found
    without listing its level, and distinct maximals M, N through it, by
    default the first two."""
    n = space.rank()
    if L is None:
        L = space.least_subspace(n - 2)
    if L.proj_dim != n - 2:
        raise WrongDimension(f"L must have projective dimension {n - 2}")
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
    return L, M, N


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
    L, M, N = _check_sigma_pair(space, L, M, N)
    return _pair_function(g, bit_indices(M.point_bits & ~L.point_bits),
                          bit_indices(N.point_bits & ~L.point_bits),
                          space.ctx.q ** (space.rank() - 1) - 1)


def _affine_context(g: PolarGraph, family: str, what: str):
    if g.provenance.get("family") != family:
        raise EigenfunctionError(f"{what} needs a {family} graph")
    return g.space, g.ctx, g.provenance["m"]


def _as_key(ctx, v, dim) -> tuple[int, ...]:
    if v is None:
        return (0,) * dim
    key = []
    for a in v:
        if isinstance(a, FieldElement):
            if a.ctx != ctx:
                raise EigenfunctionError(f"entry {a!r} is an element of {a.ctx!r}, not {ctx!r}")
            a = a.index
        elif a not in range(ctx.q):
            raise EigenfunctionError(f"entry {a!r} is not an element index in range({ctx.q})")
        key.append(int(a))
    if len(key) != dim:
        raise EigenfunctionError(f"vector of length {len(key)}, expected {dim}")
    return tuple(key)


def _translate(g: PolarGraph, v: tuple[int, ...], vectors) -> list[int]:
    """The vertices v + w of an affine polar graph, for w in vectors."""
    add = g.ctx.add_i
    return [g.vec_index[tuple(map(add, v, w))] for w in vectors]


def theta1_hyperbolic(g: PolarGraph, v=None, L: SingularSubspace | None = None,
                      M: SingularSubspace | None = None,
                      N: SingularSubspace | None = None) -> Eigenfunction:
    """The translated difference pair in a hyperbolic affine polar graph.

    +1 on v + (span(M) minus span(L)), -1 on the same for N;
    theta1 = q^m - q^(m-1) - 1, support 2 (q^m - q^(m-1)).  L defaults to
    the least-key (m-2)-space, found without listing its level, and M, N to
    the first two maximals through L.
    """
    space, ctx, m = _affine_context(g, "vo+", "theta1_hyperbolic")
    if m < 2:
        raise WrongDimension("needs m >= 2")
    L, M, N = _check_sigma_pair(space, L, M, N)
    v_key = _as_key(ctx, v, 2 * m)
    inner = set(linalg.span_i(ctx, L.rows(), space.dim))

    def lift(S: SingularSubspace) -> list[int]:
        return _translate(g, v_key, (w for w in linalg.span_i(ctx, S.rows(), space.dim)
                                     if w not in inner))

    return _pair_function(g, lift(M), lift(N), ctx.q ** m - ctx.q ** (m - 1) - 1)


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

    +1 on v + Aff(M), -1 on v + t + Aff(M) with t in Aff(M)-perp outside
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
    return _pair_function(g, _translate(g, v_key, aff),
                          _translate(g, tuple(map(ctx.add_i, v_key, t_key)), aff),
                          ctx.q ** (m - 1) - 1)


def theta1_from_clique_pair(g: PolarGraph, C0, C1) -> Eigenfunction:
    """The difference of two optimal cliques, zero on their intersection.

    C0, C1 may be CliqueInfo objects or vertex collections.  They must be
    cliques of the optimal size whose intersection is the maximum feasible
    for the family; the difference sets then form a pair of isolated cliques
    of size theta1 + 1.
    """
    params = g.srg_params()
    spec = graphs.spectrum(params)
    # Delsarte-size cliques with the largest feasible intersection when the
    # Delsarte bound is an integer; otherwise disjoint maximum cliques of
    # size theta1 + 1 (the elliptic affine case)
    bound = delsarte_bound(params, spec)
    size = int(bound) if bound.denominator == 1 else spec.theta1 + 1
    inter = size - (spec.theta1 + 1)
    bits = []
    for C in (C0, C1):
        members = tuple(C.vertices if isinstance(C, CliqueInfo) else C)
        for x in members:
            if not 0 <= x < g.n:
                raise NotDelsarte(f"vertex {x} outside graph of order {g.n}")
        b = bits_of(members)
        # a clique: each member's non-neighbours in b are the member alone
        if b.bit_count() != size or any(b & ~g.adj[x] != 1 << x for x in members):
            raise NotDelsarte(f"expected a clique of size {size}")
        bits.append(b)
    b0, b1 = bits
    if b0 == b1:
        raise NotDelsarte("cliques must be distinct")
    common = b0 & b1
    if common.bit_count() != inter:
        raise NotMaxIntersection(
            f"intersection {common.bit_count()}, the family's maximum is {inter}")
    return _pair_function(g, bit_indices(b0 & ~common), bit_indices(b1 & ~common),
                          spec.theta1)


def theta2_unitary(g: PolarGraph) -> Eigenfunction:
    """The tight negative-eigenvalue construction in the hermitian graph.

    Two (sqrt(q)+1)-sets of isotropic points on a pair of skew lines, carrying
    +1 and -1; they induce a complete bipartite subgraph and meet the bound
    -2*theta2 = 2*(sqrt(q)+1) for theta2 = -(sqrt(q)+1).
    """
    _require_kind(g, ("unitary",), "theta2_unitary")
    ctx = g.ctx
    subgroup = norm_one_subgroup(ctx)
    if ctx.p == 2:
        seconds = [gamma for gamma in subgroup]
    else:
        eps = norm_minus_one_unit(ctx)
        seconds = [eps * gamma for gamma in subgroup]
    one_e, zero_e = ctx.one, ctx.zero
    point = g.space.point_for_vector
    return _pair_function(g, [point((one_e, a, zero_e, zero_e)).index for a in seconds],
                          [point((zero_e, zero_e, one_e, a)).index for a in seconds],
                          -(ctx.sqrt_q + 1))


def unitary_pair_parts(f: Eigenfunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(T0, T1) of a +/-1 two-part function: positive and negative supports."""
    t0 = tuple(sorted(v for v, c in f.values.items() if c > 0))
    t1 = tuple(sorted(v for v, c in f.values.items() if c < 0))
    return t0, t1


def outside_neighbour_counts(g: PolarGraph, t0, t1) -> list[tuple[int, int, int]]:
    """(vertex, |N(v) ∩ T0|, |N(v) ∩ T1|) for every vertex outside T0 ∪ T1."""
    b0, b1 = bits_of(t0), bits_of(t1)
    out = []
    for u in range(g.n):
        if (b0 | b1) >> u & 1:
            continue
        out.append((u, (g.adj[u] & b0).bit_count(), (g.adj[u] & b1).bit_count()))
    return out
