"""Polar graph families, strongly regular verification, spectra, cliques.

Three builders: collinearity graphs of rank >= 2 polar spaces, affine polar
graphs on the full vector space (x ~ y iff Q(x - y) = 0), and the rank-2
hermitian graph on the isotropic points of GF(q)^4 for square q.
Adjacency is a dense bitset row per vertex.  The strongly regular check
counts the common neighbours of one vertex with every other at once, with
the bit-sliced counter ``polarspace.counter_planes``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

from . import forms, polarspace
from .gf import FieldContext
from .polarspace import PolarSpace, bit_indices, counter_planes, counts_differ
from .record import Record


class GraphError(Exception):
    pass


class RankTooLow(GraphError):
    pass


class NotRegular(GraphError):
    pass


class NotStronglyRegular(GraphError):
    pass


class Imprimitive(GraphError):
    pass


class IrrationalEigenvalues(GraphError):
    pass


class FewerThanTwoCliques(GraphError):
    pass


class SrgParams(Record):
    v: int
    k: int
    lam: int
    mu: int

    def as_tuple(self):
        return (self.v, self.k, self.lam, self.mu)


class SpectrumInfo(Record):
    theta1: int
    theta2: int
    m1: int
    m2: int


class CliqueInfo(Record):
    vertices: tuple[int, ...]
    is_delsarte: bool
    nexus: int | None

    def __len__(self):
        return len(self.vertices)

    def bits(self) -> int:
        out = 0
        for v in self.vertices:
            out |= 1 << v
        return out


class PolarGraph:
    """A vertex-indexed graph with dense bitset adjacency and provenance.

    The adjacency is fixed at construction, so the strongly regular
    parameters are computed once (:meth:`srg_params`).
    """

    def __init__(self, vertices, adj: list[int], provenance: dict, *,
                 space: PolarSpace | None = None, ctx: FieldContext | None = None):
        self.vertices = vertices
        self.adj = adj
        self.provenance = provenance
        self.space = space
        self.ctx = ctx
        self.n = len(vertices)
        self._srg: SrgParams | None = None

    def __repr__(self):
        fam = self.provenance.get("family", "?")
        return f"PolarGraph({fam}, v={self.n})"

    def srg_params(self) -> SrgParams:
        """The parameters from one exhaustive srg_check of this graph."""
        if self._srg is None:
            self._srg = srg_check(self)
        return self._srg

    def are_adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def neighbours(self, i: int) -> list[int]:
        return list(bit_indices(self.adj[i]))

    def edges(self):
        for i in range(self.n):
            bits = self.adj[i] >> (i + 1) << (i + 1)
            for j in bit_indices(bits):
                yield (i, j)


def graph_from_edges(n: int, edges, provenance=None) -> PolarGraph:
    """Generic constructor, used for toy and test graphs."""
    adj = [0] * n
    for i, j in edges:
        if i == j:
            raise GraphError("loops are not allowed")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return PolarGraph(list(range(n)), adj, provenance or {"family": "custom"})


# -- builders -------------------------------------------------------------------

def collinearity_graph(space: PolarSpace) -> PolarGraph:
    """Vertices are the points; edges join pairs lying in a common line."""
    if space.rank() < 2:
        raise RankTooLow(
            f"rank {space.rank()} polar space has no collinear point pairs")
    pts = space.points()
    adj = list(space.collinearity_bits())
    prov = {
        "family": space.family,
        "kind": "collinearity",
        "q": space.ctx.q,
        "p": space.ctx.p,
        "k": space.ctx.k,
        "dim": space.dim,
        "rank": space.rank(),
        "modulus": list(space.ctx.modulus),
        "v": len(pts),
    }
    return PolarGraph(pts, adj, prov, space=space, ctx=space.ctx)


def affine_polar_graph(m: int, epsilon: int, ctx: FieldContext) -> PolarGraph:
    """Graph on all q^(2m) vectors; x ~ y iff x != y and Q(x - y) = 0."""
    if m < 1:
        raise GraphError("m must be >= 1")
    if epsilon not in (1, -1):
        raise GraphError("epsilon must be +1 or -1")
    family = "vo+" if epsilon == 1 else "vo-"
    form = forms.standard_form("o+" if epsilon == 1 else "o-", 2 * m, ctx)
    space = polarspace.polar_space(form)
    d = 2 * m
    q = ctx.q
    vecs = [tuple(c) for c in product(range(q), repeat=d)]
    index = {v: i for i, v in enumerate(vecs)}
    # Cayley graph over (V, +): connection set = nonzero singular vectors
    diffs = [v for v in vecs if any(v) and forms.singular_i(form, v)]
    add = ctx.add_i
    adj = [0] * len(vecs)
    for i, x in enumerate(vecs):
        row = 0
        for dv in diffs:
            y = tuple(add(a, b) for a, b in zip(x, dv))
            row |= 1 << index[y]
        adj[i] = row
    prov = {
        "family": family,
        "kind": "affine",
        "q": q,
        "p": ctx.p,
        "k": ctx.k,
        "dim": d,
        "m": m,
        "epsilon": epsilon,
        "modulus": list(ctx.modulus),
        "v": len(vecs),
    }
    g = PolarGraph(
        [tuple(ctx.element(c) for c in v) for v in vecs], adj, prov,
        space=space, ctx=ctx)
    g.vec_index = index
    return g


def unitary_graph(ctx: FieldContext) -> PolarGraph:
    """The rank-2 hermitian graph on the isotropic points of GF(q)^4, q square."""
    ctx.sqrt_q  # raises OddExtensionDegree when q is not a square
    form = forms.standard_form("u", 4, ctx)
    space = polarspace.polar_space(form)
    g = collinearity_graph(space)
    g.provenance = dict(g.provenance, kind="unitary")
    return g


# -- strongly regular machinery ---------------------------------------------------

def _connected(adj: list[int], n: int) -> bool:
    if n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for i in bit_indices(frontier):
            nxt |= adj[i]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def srg_check(g: PolarGraph) -> SrgParams:
    """Exhaustively verify strong regularity; returns the parameter tuple.

    Checks every vertex pair; raises NotRegular / NotStronglyRegular /
    Imprimitive (disconnected graph or complement).  Row i of A^2 is the
    bit-sliced count |N(i) ∩ N(j)| for every j at once; lambda and mu are
    the counts of vertex 0 with its least neighbour and least non-neighbour,
    and a failure names the least offending pair (i, j).
    """
    n, adj = g.n, g.adj
    if n == 0:
        raise GraphError("empty graph")
    k = adj[0].bit_count()
    for i in range(1, n):
        if adj[i].bit_count() != k:
            raise NotRegular(f"vertex {i} has degree {adj[i].bit_count()} != {k}")
    if not _connected(adj, n):
        raise Imprimitive("graph is disconnected")
    comp = complement(adj)
    if not _connected(comp, n):
        raise Imprimitive("complement is disconnected")
    if not adj[0] or not comp[0]:
        raise Imprimitive("graph or complement is complete")
    # the first adjacent and non-adjacent pairs: vertex 0 with its least
    # neighbour and its least non-neighbour
    lam = (adj[0] & adj[(adj[0] & -adj[0]).bit_length() - 1]).bit_count()
    mu = (adj[0] & adj[(comp[0] & -comp[0]).bit_length() - 1]).bit_count()
    # counters holding lam (mu) at every vertex; -1 is the all-ones plane
    lam_planes = [-(lam >> b & 1) for b in range(lam.bit_length())]
    mu_planes = [-(mu >> b & 1) for b in range(mu.bit_length())]
    for i in range(n):
        planes = counter_planes(adj, adj[i])
        # a pair (i, j) with j < i was checked on row j, so a first failure
        # on row i lies above i
        bad = (counts_differ(planes, lam_planes, adj[i])
               | counts_differ(planes, mu_planes, comp[i]))
        if bad:
            j = (bad & -bad).bit_length() - 1
            c = (adj[i] & adj[j]).bit_count()
            if adj[i] >> j & 1:
                raise NotStronglyRegular(
                    f"adjacent pair ({i},{j}) has {c} common neighbours, not {lam}")
            raise NotStronglyRegular(
                f"non-adjacent pair ({i},{j}) has {c} common neighbours, not {mu}")
    return SrgParams(n, k, lam, mu)


def spectrum(params: SrgParams) -> SpectrumInfo:
    """Non-principal eigenvalues and multiplicities from the parameters.

    theta1 > 0 > theta2 are the roots of x^2 - (lam - mu) x - (k - mu);
    multiplicities are checked to be integers.
    """
    v, k, lam, mu = params.as_tuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    s = isqrt(disc)
    if s * s != disc:
        raise IrrationalEigenvalues(f"discriminant {disc} is not a square")
    theta1 = ((lam - mu) + s) // 2
    theta2 = ((lam - mu) - s) // 2
    if not (k > theta1 > 0 > theta2):
        raise GraphError(f"parameters {params} are not primitive")
    m1 = Fraction((v - 1) * (-theta2) - k, theta1 - theta2)
    m2 = Fraction((v - 1) * theta1 + k, theta1 - theta2)
    if m1.denominator != 1 or m2.denominator != 1:
        raise GraphError(f"non-integral multiplicities for {params}")
    return SpectrumInfo(theta1, theta2, int(m1), int(m2))


def delsarte_bound(params: SrgParams, spec: SpectrumInfo) -> Fraction:
    return 1 + Fraction(params.k, -spec.theta2)


def complement(adj: list[int]) -> list[int]:
    """Neighbour bitsets of the complement graph."""
    full = (1 << len(adj)) - 1
    return [full ^ row ^ (1 << i) for i, row in enumerate(adj)]


def cliques_within(adj: list[int], pool: int, s: int, keep: list[int] | None = None):
    """Bitsets of all s-cliques inside the vertex bitset pool, generated one
    at a time in increasing vertex-tuple order ({0,5} before {1,2}).

    adj[v] is the neighbour bitset of v; only its bits above v are read, and
    it may reach outside pool, since each clique's vertices are drawn from
    pool alone.  Nothing is generated when s < 1.

    With a per-vertex mask list keep, a clique carries kept: the vertices
    above its least vertex that lie in keep[v] for every member v, the pool
    of a partner s-set.  kept only shrinks as the clique grows, so a branch
    is dropped once kept holds fewer than s vertices, and (clique, kept) is
    generated for every clique that keeps at least s.  keep must be
    symmetric (u in keep[v] exactly when v in keep[u]), as an adjacency or
    its complement is: once kept holds exactly s vertices, the later
    members are drawn from keep[u] for every u in kept.
    """
    tries = pool.bit_count() - s + 1
    if s < 1 or tries < 1:
        return
    # depth-first over the cliques' sorted vertex tuples.  At depth d the
    # first d members are chosen: rest holds the vertices above the last one
    # that extend them, kept their mask, and tries the pops left in rest
    # that still leave the s - d - 1 vertices the clique needs after them
    bits, rest, kept, mask, spare = 0, pool, -1, -1, 1  # without keep: kept -1, spare 1
    stack, last, depth = [], s - 1, 0
    while True:
        while tries:
            tries -= 1
            lsb = rest & -rest
            rest ^= lsb
            v = lsb.bit_length() - 1
            if keep is not None:
                # above the least member: the bits from lsb << 1 up
                mask = keep[v] & (kept if depth else -(lsb << 1))
                spare = mask.bit_count() - s
                if spare < 0:
                    continue
            if depth == last:
                yield bits | lsb if keep is None else (bits | lsb, mask)
                continue
            nxt = rest & adj[v]
            if not spare:
                # mask must stay whole: by symmetry, later members lie in every keep[u]
                for u in bit_indices(mask):
                    nxt &= keep[u]
            more = nxt.bit_count() + depth + 2 - s
            if more > 0:
                stack.append((bits, rest, kept, tries))
                bits, rest, kept, tries = bits | lsb, nxt, mask, more
                depth += 1
        if not depth:
            return
        depth -= 1
        bits, rest, kept, tries = stack.pop()


def cliques_of_size(g: PolarGraph, s: int) -> list[int]:
    """Bitsets of all s-cliques, in increasing vertex-tuple order."""
    return list(cliques_within(g.adj, (1 << g.n) - 1, s))


def _sized_cliques(g: PolarGraph, params: SrgParams | None = None,
                   spec: SpectrumInfo | None = None):
    """CliqueInfo of every clique of the Delsarte-Hoffman size, in
    increasing vertex-tuple order; none when the bound is not an integer."""
    params = params or g.srg_params()
    spec = spec or spectrum(params)
    bound = delsarte_bound(params, spec)
    if bound.denominator != 1:
        return
    nexus = Fraction(params.mu, -spec.theta2)
    count = int(nexus) if nexus.denominator == 1 else None
    for bits in cliques_within(g.adj, (1 << g.n) - 1, int(bound)):
        ok = count is not None and all(
            (g.adj[u] & bits).bit_count() == count
            for u in range(g.n) if not bits >> u & 1)
        yield CliqueInfo(bit_indices(bits), ok, count if ok else None)


def delsarte_cliques(g: PolarGraph, params: SrgParams | None = None,
                     spec: SpectrumInfo | None = None) -> list[CliqueInfo]:
    """All cliques meeting the Delsarte-Hoffman bound 1 + k/(-theta2), sorted.

    Each is checked to be regular with nexus mu/(-theta2).  Empty when the
    bound is not an integer (then no clique can meet it).
    """
    return list(_sized_cliques(g, params, spec))


def max_intersecting_delsarte_pair(g: PolarGraph) -> tuple[CliqueInfo, CliqueInfo]:
    """A pair of distinct Delsarte cliques with the largest intersection.

    Ties break toward the canonically least pair of vertex tuples.
    """
    found = []  # (bits, clique) of the Delsarte cliques streamed so far

    def pairs():
        # The pairs of the full scan in its order: those with clique 0 as the
        # cliques stream in, the rest only once the stream has run out.
        for c in _sized_cliques(g):
            if c.is_delsarte:
                entry = (c.bits(), c)
                if found:
                    yield found[0], entry
                found.append(entry)
        for i in range(1, len(found)):
            for j in range(i + 1, len(found)):
                yield found[i], found[j]

    # No pair meets in more than the nexus (a vertex of D outside C sees all
    # of C ∩ D and exactly nexus vertices of C), so the first to reach it wins.
    best = None
    best_size = -1
    for (bits_a, a), (bits_b, b) in pairs():
        inter = (bits_a & bits_b).bit_count()
        if inter > best_size:
            best_size = inter
            best = (a, b)
            if inter == a.nexus:
                break
    if best is None:
        raise FewerThanTwoCliques(f"found {len(found)} Delsarte cliques")
    return best
