"""Python-int bitsets: the vertex and point sets of every graph search.

Bit i of a bitset is set when index i is in the set.  A graph is a list of
neighbour bitsets, one per vertex, and the supports of the eigenfunctions,
the cliques and the pair scans are bitsets over its vertices.  Every
primitive that reads or writes that format lives here: listing and
building bitsets, their 0/1 flag strings, complement and connectivity of a
graph, bit-sliced sums and neighbour counts, and clique growth.

A flag string (``bit_flags``) holds one byte per bit, 0 or 1, low bit
first, so ``itertools.compress(items, bit_flags(bits))`` selects the items
at the set bits without a Python loop over them.  A bit-sliced sum
(``sum_planes``) adds many bitsets at once: bit u of plane b is bit b of
the number of inputs with bit u set.
"""

from __future__ import annotations

from itertools import zip_longest

_BIT = bytes.maketrans(b"01", b"\0\1")


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


def bit_flags(bits: int) -> bytes:
    """One byte per bit of a non-negative bitset, 1 where the bit is set,
    low bit first; its length is ``bits.bit_length()``."""
    return format(bits, "b")[::-1].encode().translate(_BIT)


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


def sum_planes(inputs, count: int) -> list[int]:
    """Bit-sliced sum of at most count bitsets: bit u of plane b is bit b
    of the number of inputs with bit u set.

    Carry-save: each weight 2^b holds a plane and at most one input waiting
    for a partner (0 when none; a zero input adds nothing).  The next input
    goes through one full adder (3 -> 2) with the waiting one and the plane,
    and its carry moves up to weight 2^(b+1).  Weight 2^b sees at most
    count / 2^b inputs, so count.bit_length() planes hold every sum.  A
    ripple at the end folds the waiting inputs in.
    """
    size = count.bit_length()
    planes = [0] * size
    waiting = [0] * size
    for x in inputs:
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


def counter_planes(adj, part: int) -> list[int]:
    """Bit-sliced neighbour counts: bit u of plane i is bit i of |N(u) ∩ part|."""
    return sum_planes(map(adj.__getitem__, bit_indices(part)), part.bit_count())


def constant_planes(c: int) -> list[int]:
    """Bit-sliced counter holding c at every vertex (-1 is the all-ones plane)."""
    return [-(c >> b & 1) for b in range(c.bit_length())]


def counts_differ(planes_a, planes_b, mask: int) -> int:
    """The vertices of mask on which two bit-sliced counters disagree; the
    shorter plane list reads as zero above its top plane."""
    diff = 0
    for x, y in zip_longest(planes_a, planes_b, fillvalue=0):
        diff |= x ^ y
    return diff & mask


def cliques_within(adj: list[int], pool: int, s: int, keep: list[int] | None = None):
    """Bitsets of all s-cliques inside the vertex bitset pool, generated one
    at a time in increasing vertex-tuple order ({0,5} before {1,2}).

    adj[v] is the neighbour bitset of v; only its bits above v are read, and
    it may reach outside pool, since each clique's vertices are drawn from
    pool alone.  Nothing is generated when s < 1.  Without keep, a pool of
    exactly s vertices is checked as the one candidate, without a search.

    With a per-vertex mask list keep, a clique carries kept: the vertices
    above its least vertex that lie in keep[v] for every member v, the pool
    of a partner s-set.  kept only shrinks as the clique grows, so a branch
    is dropped once kept holds fewer than s vertices, and (clique, kept) is
    generated for every clique that keeps at least s.  keep must be
    symmetric (u in keep[v] exactly when v in keep[u]), as an adjacency or
    its complement is.  So when kept holds s + spare vertices, a later
    member w keeps kept & keep[w] at s or more only if it misses at most
    spare of the keep[u], u in kept: the candidates are filtered by a miss
    counter that saturates at spare + 1, wherever its (spare + 1) * |kept|
    ANDs cost no more than the candidates the next depth would otherwise
    pop.
    """
    tries = pool.bit_count() - s + 1
    if s < 1 or tries < 1:
        return
    if tries == 1 and keep is None:
        # a clique exactly when each member's row holds the members above it
        rest = pool
        while rest:
            lsb = rest & -rest
            rest ^= lsb
            if adj[lsb.bit_length() - 1] & rest != rest:
                return
        yield pool
        return
    # depth-first over the cliques' sorted vertex tuples.  At depth d the
    # first d members are chosen: rest holds the vertices above the last one
    # that extend them, kept their mask, and tries the pops left in rest
    # that still leave the s - d - 1 vertices the clique needs after them
    bits, rest, kept, mask = 0, pool, -1, -1  # without keep: kept and mask -1
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
            more = nxt.bit_count() + depth + 2 - s
            # spare < more is implied by the cost rule and cheaper to test: where
            # kept is large the rule never holds, and this keeps its cost off
            if keep is not None and spare < more and (spare + 1) * (s + spare) <= more:
                m = mask  # walked from its lowest bit, u = low.bit_length() - 1
                if not spare:  # a later member lies in every keep[u]
                    while m:
                        low = m & -m
                        m ^= low
                        nxt &= keep[low.bit_length() - 1]
                else:  # miss[i]: the candidates outside at least i + 1 of them
                    miss, levels = [0] * (spare + 1), range(spare, 0, -1)
                    while m:
                        low = m & -m
                        m ^= low
                        out = nxt & ~keep[low.bit_length() - 1]
                        for i in levels:
                            miss[i] |= miss[i - 1] & out
                        miss[0] |= out
                    nxt &= ~miss[spare]
                more = nxt.bit_count() + depth + 2 - s
            if more > 0:
                stack.append((bits, rest, kept, tries))
                bits, rest, kept, tries = bits | lsb, nxt, mask, more
                depth += 1
        if not depth:
            return
        depth -= 1
        bits, rest, kept, tries = stack.pop()
