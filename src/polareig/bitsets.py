"""Python-int bitsets: the vertex and point sets of every graph search.

Bit i of a bitset is set when index i is in the set.  A graph is a list of
neighbour bitsets, one per vertex, and the supports of the eigenfunctions,
the cliques and the pair scans are bitsets over its vertices.  Every
primitive that reads or writes that format lives here: listing and
building bitsets, complement and connectivity of a graph, bit-sliced
neighbour counts, containment counts, and clique growth.
"""

from __future__ import annotations

from itertools import zip_longest


def bit_indices(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a bitset, in increasing order."""
    if bits < 0:
        raise ValueError(f"a bitset is a non-negative int, not {bits}")
    out = []
    while bits:
        lsb = bits & -bits
        out.append(lsb.bit_length() - 1)
        bits ^= lsb
    return tuple(out)


def bits_of(indices) -> int:
    """The bitset of an iterable of non-negative indices."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def complement(adj: list[int]) -> list[int]:
    """Neighbour bitsets of the complement graph."""
    full = (1 << len(adj)) - 1
    return [full ^ row ^ (1 << i) for i, row in enumerate(adj)]


def connected(adj: list[int], n: int) -> bool:
    """Whether the graph on vertices range(n) with neighbour bitsets adj is
    connected, by breadth-first search from vertex 0."""
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


def containing_counts(subs: list[int], maximals: list[int]) -> list[int]:
    """For each point bitset of subs, the number of maximals' point bitsets
    containing it.

    through[p] is the bitset of the maximals through point p; a maximal
    contains a subspace exactly when it contains all of its points.
    """
    through: dict[int, int] = {}
    for j, M in enumerate(maximals):
        for p in bit_indices(M):
            through[p] = through.get(p, 0) | 1 << j
    counts = []
    for L in subs:
        common = -1
        for p in bit_indices(L):
            common &= through.get(p, 0)
        counts.append(common.bit_count())
    return counts


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
