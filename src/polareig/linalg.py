"""Small exact linear algebra over GF(q), on tuples of element indices.

:func:`rref_i` reduces rows through the field's dense tables.  A subspace is
represented by its reduced row-echelon basis, the unique canonical
representative used for hashing and deterministic sorting.
:func:`null_space_i`, :func:`in_span_i` and :func:`span_i` are built on it;
beyond these, the package works on point bitsets.

:class:`polareig.gf.FieldElement` appears only at the boundary:
:func:`rref` takes and returns rows of elements, :func:`element_rows` and
:func:`vec_key` convert between the two representations.
"""

from __future__ import annotations

from .gf import ContextMismatch, FieldContext, FieldElement


def vec_key(v) -> tuple[int, ...]:
    return tuple(a.index for a in v)


def rref_i(ctx: FieldContext, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form of rows of element indices.

    Zero rows are dropped and every pivot is 1, so the result is the unique
    canonical basis of the row space.
    """
    add, mul, neg, inv = ctx.tables()
    work = [list(r) for r in rows]
    out: list[list[int]] = []
    for col in range(len(work[0]) if work else 0):
        for i, r in enumerate(work):
            if r[col]:
                break
        else:
            continue
        pivot = work.pop(i)
        scale = mul[inv[pivot[col]]]
        pivot = [scale[a] for a in pivot]
        # every remaining row is zero left of col, so the pivot row is too
        support = [(j, a) for j, a in enumerate(pivot) if a]
        for r in work + out:
            c = r[col]
            if c:
                m = mul[neg[c]]
                for j, a in support:
                    r[j] = add[r[j]][m[a]]
        out.append(pivot)
        if not work:
            break
    return tuple(map(tuple, out))


def null_space_i(ctx: FieldContext, rows, dim: int) -> tuple[tuple[int, ...], ...]:
    """rref basis of {x in GF(q)^dim : r . x = 0 for every row r}."""
    reduced = rref_i(ctx, rows)
    pivots = [next(j for j, a in enumerate(r) if a) for r in reduced]
    neg = ctx.tables()[2]
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        v = [0] * dim
        v[free] = 1
        for r, col in zip(reduced, pivots):
            v[col] = neg[r[free]]
        basis.append(v)
    return rref_i(ctx, basis)


def in_span_i(ctx: FieldContext, basis, v) -> bool:
    """Whether v lies in the span of basis: appending it keeps the rank."""
    return len(rref_i(ctx, (*basis, v))) == len(rref_i(ctx, basis))


def span_i(ctx: FieldContext, basis, dim: int) -> list[tuple[int, ...]]:
    """Every vector of the span of basis, zero included, sorted by index tuple."""
    add, mul, _, _ = ctx.tables()
    vecs = {(0,) * dim}
    for row in basis:
        multiples = [[mul[c][a] for a in row] for c in range(1, ctx.q)]
        vecs |= {tuple(add[a][b] for a, b in zip(v, m))
                 for v in vecs for m in multiples}
    return sorted(vecs)


def element_rows(ctx: FieldContext, rows) -> tuple[tuple[FieldElement, ...], ...]:
    """Rows of element indices as rows of field elements."""
    element = ctx.element
    return tuple(tuple(element(c) for c in r) for r in rows)


def rref(rows) -> tuple[tuple[FieldElement, ...], ...]:
    """Reduced row-echelon form of element rows; zero rows dropped, pivots 1.

    Raises ContextMismatch when the rows mix elements of different fields.
    """
    rows = [tuple(r) for r in rows]
    ctx = next((a.ctx for r in rows for a in r), None)
    if ctx is None:
        return ()
    for r in rows:
        for a in r:
            if a.ctx is not ctx and a.ctx != ctx:
                raise ContextMismatch(f"{ctx!r} vs {a.ctx!r}")
    return element_rows(ctx, rref_i(ctx, [vec_key(r) for r in rows]))
