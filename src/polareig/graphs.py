"""Polar graph families, strongly regular verification, spectra, cliques.

Three builders: collinearity graphs of rank >= 2 polar spaces, affine polar
graphs on the full vector space (x ~ y iff Q(x - y) = 0), and the rank-2
hermitian graph on the isotropic points of GF(q)^4 for square q.
Adjacency is a dense bitset row per vertex.  The strongly regular check
counts the common neighbours of a block of rows with every vertex at once:
it packs the rows' neighbour rows into one int per step and adds the steps
with the bit-sliced sum ``bitsets.sum_planes``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from math import isqrt

from . import bitsets, forms, polarspace
from .gf import FieldContext
from .polarspace import PolarSpace
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
        return bitsets.bits_of(self.vertices)


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
        return list(bitsets.bit_indices(self.adj[i]))

    def edges(self):
        for i in range(self.n):
            bits = self.adj[i] >> (i + 1) << (i + 1)
            for j in bitsets.bit_indices(bits):
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
    adj = [bitsets.bits_of(index[tuple(map(add, x, dv))] for dv in diffs)
           for x in vecs]
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

# rows of the strong-regularity check per packed block
_BLOCK = 128


def srg_check(g: PolarGraph) -> SrgParams:
    """Exhaustively verify strong regularity; returns the parameter tuple.

    Checks every vertex pair; raises NotRegular / NotStronglyRegular /
    Imprimitive (disconnected graph or complement).  lambda and mu are the
    counts of vertex 0 with its least neighbour and least non-neighbour,
    and a failure names the least offending pair (i, j).

    The rows are checked in blocks of _BLOCK.  A block packs its rows into
    one int, a segment per row, each segment the adjacency row without the
    bytes below the block (those pairs were checked on earlier rows).  Step
    t of the check packs the t-th neighbour row of every row of the block
    the same way, so the bit-sliced sum of the k steps holds
    |N(i) ∩ N(j)| at column j of segment i, for every pair at once.  One
    bytes copy of the rows is kept, cut block by block.
    """
    n, adj = g.n, g.adj
    if n == 0:
        raise GraphError("empty graph")
    k = adj[0].bit_count()
    for i in range(1, n):
        if adj[i].bit_count() != k:
            raise NotRegular(f"vertex {i} has degree {adj[i].bit_count()} != {k}")
    if not bitsets.connected(adj, n):
        raise Imprimitive("graph is disconnected")
    comp = bitsets.complement(adj)
    if not bitsets.connected(comp, n):
        raise Imprimitive("complement is disconnected")
    apart0 = comp[0]
    del comp
    if not adj[0] or not apart0:
        raise Imprimitive("graph or complement is complete")
    # the first adjacent and non-adjacent pairs: vertex 0 with its least
    # neighbour and its least non-neighbour
    lam = (adj[0] & adj[(adj[0] & -adj[0]).bit_length() - 1]).bit_count()
    mu = (adj[0] & adj[(apart0 & -apart0).bit_length() - 1]).bit_count()
    # counters holding lam (mu) at every vertex; -1 is the all-ones plane
    lam_planes = [-(lam >> b & 1) for b in range(lam.bit_length())]
    mu_planes = [-(mu >> b & 1) for b in range(mu.bit_length())]
    width = -(-n // 8)
    rows = [row.to_bytes(width, "little") for row in adj]  # trimmed per block
    dropped = 0  # the bytes cut off the front of every row so far
    for lo in range(0, n, _BLOCK):
        block = range(lo, min(lo + _BLOCK, n))
        cut = lo // 8 - dropped
        if cut:
            for v in range(n):
                rows[v] = rows[v][cut:]
            dropped += cut
        base, seg = 8 * dropped, 8 * (width - dropped)  # column of bit 0, bits per segment
        # every regular row has k neighbours, so zip walks all rows in lockstep
        steps = zip(*(compress(rows, bitsets.bit_flags(adj[i])) for i in block))
        sums = bitsets.sum_planes(
            (int.from_bytes(b"".join(step), "little") for step in steps), k)
        adjacent = int.from_bytes(b"".join(rows[lo:lo + len(block)]), "little")
        # the columns below n in every segment, without the diagonal
        others = bytearray(((1 << (n - base)) - 1).to_bytes(seg // 8, "little")
                           * len(block))
        for r, i in enumerate(block):
            bit = r * seg + i - base
            others[bit >> 3] ^= 1 << (bit & 7)
        apart = int.from_bytes(others, "little") ^ adjacent
        bad = (bitsets.counts_differ(sums, lam_planes, adjacent)
               | bitsets.counts_differ(sums, mu_planes, apart))
        if bad:
            # the least failing row, and its least failing column; a pair
            # (i, j) with j < i fails on row j as well, which comes first
            i, j = divmod((bad & -bad).bit_length() - 1, seg)
            i, j = lo + i, base + j
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


def cliques_of_size(g: PolarGraph, s: int) -> list[int]:
    """Bitsets of all s-cliques, in increasing vertex-tuple order."""
    return list(bitsets.cliques_within(g.adj, (1 << g.n) - 1, s))


def _sized_cliques(g: PolarGraph):
    """CliqueInfo of every clique of the Delsarte-Hoffman size, in
    increasing vertex-tuple order; none when the bound is not an integer."""
    params = g.srg_params()
    spec = spectrum(params)
    bound = delsarte_bound(params, spec)
    if bound.denominator != 1:
        return
    nexus = Fraction(params.mu, -spec.theta2)
    count = int(nexus) if nexus.denominator == 1 else None
    for bits in bitsets.cliques_within(g.adj, (1 << g.n) - 1, int(bound)):
        ok = count is not None and all(
            (g.adj[u] & bits).bit_count() == count
            for u in range(g.n) if not bits >> u & 1)
        yield CliqueInfo(bitsets.bit_indices(bits), ok, count if ok else None)


def delsarte_cliques(g: PolarGraph) -> list[CliqueInfo]:
    """All cliques meeting the Delsarte-Hoffman bound 1 + k/(-theta2), sorted.

    Each is checked to be regular with nexus mu/(-theta2).  Empty when the
    bound is not an integer (then no clique can meet it).
    """
    return list(_sized_cliques(g))


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
