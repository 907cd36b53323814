"""Brute-force ground truth for optimal-support structures.

Everything here is exhaustive enumeration at desk scale: catalogues of
isolated clique pairs and induced complete bipartite pairs, witness
decompositions for every catalogued pair, and cross-checks of the closed
counting formulas against the enumerated counts.  Both pair scans run one
loop, `bitsets.cliques_within` given a keep mask: each first part grows from
its least vertex and carries, above that vertex, the pool where its
partners may lie, and a branch is dropped once the pool holds fewer than s
vertices.  An isolated clique keeps the vertices off it and its
neighbourhood (keep is the complement) and its partners are cliques; an
independent first part of a K_{s,s} keeps its common neighbours (keep is
the adjacency) and its partners are independent sets.
Outside-regularity compares bit-sliced neighbour counts of the two parts.
Where a printed formula and the enumeration disagree, the enumeration is
authoritative and the disagreement is reported as data.
"""

from __future__ import annotations

from math import comb

from . import forms, graphs, linalg
from .bitsets import (bit_indices, cliques_within, complement, counter_planes,
                      counts_differ)
from .graphs import PolarGraph
from .polarspace import NotPairwiseCollinear, PolarSpace, q_power
from .record import Record


class OracleError(Exception):
    pass


class WitnessNotFound(OracleError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"no witness decomposition for the pair {pair}")


class PairCatalog(Record):
    kind: str  # "isolated_cliques" | "complete_bipartite"
    s: int
    pairs: tuple  # ((t0, t1), ...) with t0, t1 sorted vertex tuples, t0 < t1
    outside_regular: tuple | None  # per pair, bipartite catalogues only

    def __len__(self):
        return len(self.pairs)

    def counts(self) -> dict:
        out = {"total": len(self.pairs)}
        if self.outside_regular is not None:
            good = sum(1 for x in self.outside_regular if x)
            out["outside_regular"] = good
            out["not_outside_regular"] = len(self.pairs) - good
        return out


class CharacterisationReport(Record):
    total: int
    matched: int
    counterexamples: tuple
    witnesses: tuple

    @property
    def clean(self) -> bool:
        return not self.counterexamples


class CountComparison(Record):
    family: str
    q: int
    m_or_n: int
    s: int
    oracle: int
    printed: int
    derived: int

    @property
    def printed_matches(self) -> bool:
        return self.oracle == self.printed

    @property
    def derived_matches(self) -> bool:
        return self.oracle == self.derived

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "m_or_n": self.m_or_n,
            "s": self.s,
            "oracle": self.oracle,
            "printed": self.printed,
            "derived": self.derived,
            "printed_matches": self.printed_matches,
            "derived_matches": self.derived_matches,
        }


# -- the pair scans --------------------------------------------------------------

def enumerate_isolated_clique_pairs(g: PolarGraph, s: int) -> PairCatalog:
    """Every unordered pair of s-cliques with no vertices or edges in common."""
    if s < 1:
        raise OracleError("s must be >= 1")
    adj = g.adj
    pairs = []
    # partners lie off the clique and its neighbourhood, above its least vertex
    for ci, allowed in cliques_within(adj, (1 << g.n) - 1, s, complement(adj)):
        t0 = bit_indices(ci)
        pairs.extend((t0, bit_indices(cj))
                     for cj in cliques_within(adj, allowed, s))
    return PairCatalog("isolated_cliques", s, tuple(pairs), None)


def enumerate_bipartite_pairs(g: PolarGraph, s: int) -> PairCatalog:
    """Every induced K_{s,s}, classified by the outside-regularity property.

    Parts are independent s-sets with all cross edges present; a pair is
    outside-regular when every vertex off T0 ∪ T1 has the same number of
    neighbours in T0 as in T1.
    """
    if s < 1:
        raise OracleError("s must be >= 1")
    adj = g.adj
    full = (1 << g.n) - 1
    comp_adj = complement(adj)
    pairs, regular = [], []
    # the whole partner lies in the first part's common neighbours above its lead
    for a, common in cliques_within(comp_adj, full, s, adj):
        t0 = bit_indices(a)
        planes_a = counter_planes(adj, a)
        for b in cliques_within(comp_adj, common, s):
            pairs.append((t0, bit_indices(b)))
            regular.append(
                not counts_differ(planes_a, counter_planes(adj, b), full ^ a ^ b))
    return PairCatalog("complete_bipartite", s, tuple(pairs), tuple(regular))


# -- witness decompositions ---------------------------------------------------

def _polar_witness(space: PolarSpace, t0, t1):
    pts = space.points()
    n = space.rank()
    try:
        m0 = space.span_closure([pts[i] for i in t0])
        m1 = space.span_closure([pts[i] for i in t1])
    except NotPairwiseCollinear:
        return None
    if m0.proj_dim != n - 1 or m1.proj_dim != n - 1 or m0.key == m1.key:
        return None
    # the points of M ∩ N are the points M and N share
    common = m0.point_bits & m1.point_bits
    L = linalg.rref_i(space.ctx, [pts[i].key() for i in bit_indices(common)])
    if len(L) != n - 1:
        return None
    if set(bit_indices(m0.point_bits & ~common)) != set(t0):
        return None
    if set(bit_indices(m1.point_bits & ~common)) != set(t1):
        return None
    return {"L": sum(L, ()), "M": m0.key, "N": m1.key}


def _vector_keys(g: PolarGraph, verts):
    return [tuple(a.index for a in g.vertices[i]) for i in verts]


def _hyperbolic_witness(g: PolarGraph, t0, t1):
    space: PolarSpace = g.space
    ctx = g.ctx
    q = ctx.q
    sub = ctx.sub_i
    keys0 = _vector_keys(g, t0)
    keys1 = _vector_keys(g, t1)
    for v in g.vec_index:  # deterministic: dict built in canonical vector order
        sets = []
        for keys in (keys0, keys1):
            shifted = [tuple(sub(a, b) for a, b in zip(x, v)) for x in keys]
            if not all(any(x) for x in shifted):
                break
            pts = {space.point_index(x) for x in shifted}
            if None in pts or len(pts) * (q - 1) != len(shifted):
                break
            sets.append(pts)
        if len(sets) != 2:
            continue
        witness = _polar_witness(space, sorted(sets[0]), sorted(sets[1]))
        if witness is not None:
            witness["v"] = v
            return witness
    return None


def _elliptic_witness(g: PolarGraph, t0, t1):
    space: PolarSpace = g.space
    ctx = g.ctx
    sub = ctx.sub_i
    keys0 = sorted(_vector_keys(g, t0))
    keys1 = sorted(_vector_keys(g, t1))
    v = keys0[0]
    shifted = [tuple(sub(a, b) for a, b in zip(x, v)) for x in keys0]
    M = linalg.rref_i(ctx, shifted)
    if ctx.q ** len(M) != len(keys0) or len(M) != space.rank():
        return None
    if not forms.totally_singular_i(space.form, M):
        return None
    if set(shifted) != set(linalg.span_i(ctx, M, space.dim)):
        return None
    t = tuple(sub(a, b) for a, b in zip(keys1[0], v))
    expect1 = sorted(tuple(ctx.add_i(a, b) for a, b in zip(x, t)) for x in keys0)
    if expect1 != keys1:
        return None
    if (not linalg.in_span_i(ctx, forms.perp_i(space.form, M), t)
            or linalg.in_span_i(ctx, M, t)):
        return None
    return {"M": sum(M, ()), "v": v, "t": t}


def check_characterisation(g: PolarGraph, catalog: PairCatalog,
                           strict: bool = True) -> CharacterisationReport:
    """Find the structural witness behind every catalogued pair.

    Collinearity pairs must be the difference sets of two maximals over a
    common next-to-maximal subspace; hyperbolic affine pairs the same after
    a translation; elliptic affine pairs a maximal-clique coset and its perp
    translate.  A missing witness is a counterexample: raised when strict,
    reported otherwise.
    """
    kind = g.provenance.get("kind")
    if kind in ("collinearity", "unitary"):
        finder = lambda t0, t1: _polar_witness(g.space, t0, t1)
    elif kind == "affine" and g.provenance.get("epsilon") == 1:
        finder = lambda t0, t1: _hyperbolic_witness(g, t0, t1)
    elif kind == "affine":
        finder = lambda t0, t1: _elliptic_witness(g, t0, t1)
    else:
        raise OracleError(f"no characterisation for graphs of kind {kind!r}")
    witnesses = []
    bad = []
    for pair in catalog.pairs:
        w = finder(list(pair[0]), list(pair[1]))
        if w is None:
            if strict:
                raise WitnessNotFound(pair)
            bad.append(pair)
        else:
            witnesses.append((pair, w))
    return CharacterisationReport(
        total=len(catalog.pairs),
        matched=len(witnesses),
        counterexamples=tuple(bad),
        witnesses=tuple(witnesses),
    )


# -- counting formulas -----------------------------------------------------------

def printed_polar_count(space: PolarSpace) -> int:
    """choose(t+1, 2) * (q^n - 1)/(q - 1) * prod_{i=0}^{n-2} (q^(n+e-i-1) + 1)."""
    desc = space.descriptor()
    n, (q, t), e = desc.rank, desc.order, desc.e
    value = comb(t + 1, 2) * ((q ** n - 1) // (q - 1))
    for i in range(n - 1):
        value *= q_power(q, n + e - i - 1) + 1
    return value


def derived_polar_count(space: PolarSpace) -> int:
    """|pairs per L| * number of (n-2)-dimensional singular subspaces."""
    desc = space.descriptor()
    t = desc.order[1]
    return comb(t + 1, 2) * len(space.subspaces(desc.rank - 2))


def printed_hyperbolic_count(space: PolarSpace, m: int) -> int:
    """q^(m+1) * (q^(2m) - 1)/(q - 1) * prod_{i=0}^{m-1} (q^(m-i-1) + 1)."""
    q = space.ctx.q
    value = q ** (m + 1) * ((q ** (2 * m) - 1) // (q - 1))
    for i in range(m):
        value *= q ** (m - i - 1) + 1
    return value


def derived_hyperbolic_count(space: PolarSpace, m: int) -> int:
    """choose(t+1, 2) * q^(m+1) cosets * number of (m-2)-dimensional subspaces."""
    if m < 2:
        raise OracleError(f"m = {m}: the hyperbolic count needs an (m-2)-space")
    desc = space.descriptor()
    t = desc.order[1]
    q = space.ctx.q
    return comb(t + 1, 2) * q ** (m + 1) * len(space.subspaces(m - 2))


def printed_elliptic_count(space: PolarSpace, m: int) -> int:
    """q^(m-1) * choose(q^(m+1), 2) * prod_{i=0}^{m-2} (q^(m-i) + 1)."""
    q = space.ctx.q
    value = q ** (m - 1) * comb(q ** (m + 1), 2)
    for i in range(m - 1):
        value *= q ** (m - i) + 1
    return value


def derived_elliptic_count(space: PolarSpace, m: int) -> int:
    """maximals * q^(m-1) perp-cosets * choose(q^2, 2) clique-coset pairs.

    Counts each unordered pair once: inside a coset of Aff(M)-perp the
    translates of Aff(M) form q^2 cosets, and a pair of distinct ones is
    chosen; the per-element count choose(q^(m+1), 2) of the printed formula
    picks up same-coset pairs and a q^(2m-2) multiplicity.
    """
    q = space.ctx.q
    return len(space.maximals()) * q ** (m - 1) * comb(q * q, 2)


def count_comparison(g: PolarGraph) -> CountComparison:
    """Enumerated pair count against the printed and proof-derived formulas."""
    params = g.srg_params()
    spec = graphs.spectrum(params)
    s = spec.theta1 + 1
    catalog = enumerate_isolated_clique_pairs(g, s)
    fam = g.provenance["family"]
    space: PolarSpace = g.space
    if g.provenance.get("kind") in ("collinearity", "unitary"):
        printed = printed_polar_count(space)
        derived = derived_polar_count(space)
        m_or_n = space.rank()
    elif fam == "vo+":
        m = g.provenance["m"]
        printed = printed_hyperbolic_count(space, m)
        derived = derived_hyperbolic_count(space, m)
        m_or_n = m
    elif fam == "vo-":
        m = g.provenance["m"]
        printed = printed_elliptic_count(space, m)
        derived = derived_elliptic_count(space, m)
        m_or_n = m
    else:
        raise OracleError(f"no counting formulas for family {fam!r}")
    return CountComparison(fam, g.provenance["q"], m_or_n, s,
                           len(catalog.pairs), printed, derived)
