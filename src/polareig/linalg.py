"""Small exact linear algebra over GF(q).

The core works on tuples of element indices: :func:`rref_i` reduces rows
through the field's dense tables (or, for fields too large to tabulate, its
index-level operations).  Subspaces are represented by their reduced
row-echelon basis, which is the unique canonical representative used for
hashing and deterministic sorting.

:class:`polareig.gf.FieldElement` appears only at the element-level API
(:func:`rref`, :func:`in_span`, :func:`null_space`, ...), where vectors are
tuples of elements; :func:`rref` converts at the boundary and runs the
integer core.
"""

from __future__ import annotations

from itertools import product

from .gf import ContextMismatch, FieldContext, FieldElement


def zero_vector(ctx: FieldContext, dim: int) -> tuple[FieldElement, ...]:
    z = ctx.zero
    return (z,) * dim


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_is_zero(v) -> bool:
    return all(a.is_zero() for a in v)


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


def basis_key(basis) -> tuple[int, ...]:
    """Flattened canonical key of an rref basis (used for sorting/dedup)."""
    return tuple(a.index for row in basis for a in row)


def in_span(basis, v) -> bool:
    """Membership test against an rref basis."""
    v = list(v)
    for row in basis:
        col = next(i for i, a in enumerate(row) if not a.is_zero())
        c = v[col]
        if not c.is_zero():
            for j in range(len(v)):
                v[j] = v[j] - c * row[j]
    return all(a.is_zero() for a in v)


def null_space(rows, ctx: FieldContext, dim: int):
    """rref basis of {x : M x = 0} for the matrix with the given rows."""
    reduced = rref(rows)
    pivots = [next(i for i, a in enumerate(r) if not a.is_zero()) for r in reduced]
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    one, zero = ctx.one, ctx.zero
    for f in free:
        v = [zero] * dim
        v[f] = one
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[f]
        basis.append(tuple(v))
    return rref(basis)


def row_space_intersection(a_basis, b_basis, ctx: FieldContext, dim: int):
    """rref basis of rowspace(A) ∩ rowspace(B).

    Uses perp-perp under the standard dot product, which is nondegenerate.
    """
    na = null_space(a_basis, ctx, dim)
    nb = null_space(b_basis, ctx, dim)
    return null_space(tuple(na) + tuple(nb), ctx, dim)


def span_vectors(basis, ctx: FieldContext, dim: int):
    """Every vector in the span (including zero), deterministic order."""
    if not basis:
        return [zero_vector(ctx, dim)]
    elems = ctx.elements()
    out = []
    for coeffs in product(elems, repeat=len(basis)):
        v = zero_vector(ctx, dim)
        for c, row in zip(coeffs, basis):
            if not c.is_zero():
                v = vec_add(v, vec_scale(c, row))
        out.append(v)
    out.sort(key=vec_key)
    return out


def normalize_projective(v):
    """Scale so the first nonzero coordinate is 1; unique point representative."""
    for a in v:
        if not a.is_zero():
            inv = a ** (-1)
            return tuple(inv * b for b in v)
    raise ValueError("zero vector has no projective representative")
