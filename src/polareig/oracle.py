"""Brute-force ground truth for optimal-support structures.

Everything here is exhaustive enumeration at desk scale: catalogues of
isolated clique pairs and induced complete bipartite pairs, witness
decompositions for every catalogued pair, and cross-checks of the closed
counting formulas against the enumerated counts.  One scan finds the pairs:
each first clique grows from its least vertex in `bitsets.cliques_within`,
carrying the pool above that vertex, off the clique and its neighbourhood,
where its partners lie.  An induced K_{s,s} is an isolated pair of s-cliques
in the complement, so the bipartite catalogue runs the same scan there.
Outside-regularity adds one packed int per vertex of each part, a w-bit
field per vertex of the graph holding its neighbour bit and s on the vertex
itself: on an induced K_{s,s} both sums read s on the pair and fields never
carry, so they are equal exactly when every vertex off the pair sees as many
vertices of one part as of the other.
Where a printed formula and the enumeration disagree, the enumeration is
authoritative and the disagreement is reported as data.
"""

from __future__ import annotations

from math import comb

from . import forms, graphs, linalg
from .bitsets import bit_indices, cliques_within, complement
from .graphs import PolarGraph
from .polarspace import NotPairwiseCollinear, PolarSpace, q_power, singular_subspace_count
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
        return {**self._asdict(), "printed_matches": self.printed_matches,
                "derived_matches": self.derived_matches}


# -- the pair scans --------------------------------------------------------------

def _isolated_pairs(adj: list[int], s: int):
    """(a, partners) for every s-clique a of adj: partners generates the
    s-cliques above a's least vertex with no vertex on a or next to it.
    s < 1 is refused at the call, before any clique is grown."""
    if s < 1:
        raise OracleError("s must be >= 1")
    return ((a, cliques_within(adj, allowed, s))
            for a, allowed in cliques_within(adj, (1 << len(adj)) - 1, s, complement(adj)))


def enumerate_isolated_clique_pairs(g: PolarGraph, s: int) -> PairCatalog:
    """Every unordered pair of s-cliques with no vertices or edges in common."""
    pairs = []
    for a, partners in _isolated_pairs(g.adj, s):
        t0 = bit_indices(a)
        pairs.extend((t0, bit_indices(b)) for b in partners)
    return PairCatalog("isolated_cliques", s, tuple(pairs), None)


def enumerate_bipartite_pairs(g: PolarGraph, s: int) -> PairCatalog:
    """Every induced K_{s,s}, classified by the outside-regularity property.

    Parts are independent s-sets with all cross edges present; a pair is
    outside-regular when every vertex off T0 ∪ T1 has the same number of
    neighbours in T0 as in T1.
    """
    adj = g.adj
    scan = _isolated_pairs(complement(adj), s)  # refuses s < 1 before the table
    if 2 * s > len(adj):  # no two disjoint s-sets, and no table to build
        return PairCatalog("complete_bipartite", s, (), ())
    # spread[x] packs one w-bit field per vertex u: 1 where u ~ x, s at u = x,
    # so summed over an s-set T, field u reads |N(u) ∩ T|, plus s when u is
    # in T.  That is at most 2s - 1 < 2^w, so no field carries into the next,
    # and two sums are equal exactly when every field is.  For an induced
    # K_{s,s} (T0, T1) both sums read s on T0 ∪ T1 (a part is independent and
    # joined to all of the other), so they are equal exactly when every
    # vertex off the pair has as many neighbours in T0 as in T1.
    w = (2 * s).bit_length()
    field = str.maketrans({"0": "0" * w, "1": "0" * (w - 1) + "1"})
    spread = [int(format(row, "b").translate(field), 2) + (s << w * x)
              for x, row in enumerate(adj)]
    pairs, regular = [], []
    for a, partners in scan:
        t0 = bit_indices(a)
        sum_a = sum(map(spread.__getitem__, t0))
        for b in partners:
            t1 = bit_indices(b)
            pairs.append((t0, t1))
            regular.append(sum(map(spread.__getitem__, t1)) == sum_a)
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
    q, t = desc.order
    return comb(t + 1, 2) * singular_subspace_count(space.family, space.dim, q, desc.rank - 1)


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
    q, t = space.descriptor().order
    return comb(t + 1, 2) * q ** (m + 1) * singular_subspace_count(space.family,
                                                                  space.dim, q, m - 1)


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
    return space.descriptor().maximal_count * q ** (m - 1) * comb(q * q, 2)


def count_comparison(g: PolarGraph) -> CountComparison:
    """Enumerated pair count against the printed and proof-derived formulas.

    The formulas are resolved first, so a graph without them is refused
    before any pair is scanned; the pairs are counted, not catalogued.
    """
    s = graphs.spectrum(g.srg_params()).theta1 + 1
    fam = g.provenance["family"]
    space: PolarSpace = g.space
    if g.provenance.get("kind") in ("collinearity", "unitary"):
        size = space.rank()
        printed, derived = printed_polar_count(space), derived_polar_count(space)
    elif fam in ("vo+", "vo-"):
        size, hyperbolic = g.provenance["m"], fam == "vo+"
        printed = (printed_hyperbolic_count if hyperbolic else printed_elliptic_count)(space, size)
        derived = (derived_hyperbolic_count if hyperbolic else derived_elliptic_count)(space, size)
    else:
        raise OracleError(f"no counting formulas for family {fam!r}")
    pairs = sum(1 for _, partners in _isolated_pairs(g.adj, s) for _ in partners)
    return CountComparison(fam, g.provenance["q"], size, s, pairs, printed, derived)
