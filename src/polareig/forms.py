"""Canonical sesquilinear and quadratic forms over GF(q).

Quadratic forms are stored as upper-triangular coefficient matrices
(Q(x) = sum over i <= j of c_ij x_i x_j), which keeps characteristic 2
uniform: the polarisation B(x, y) = Q(x+y) - Q(x) - Q(y) is always the
bilinear form with matrix C + C^T.  Symplectic and hermitian forms carry a
Gram matrix; the hermitian pairing conjugates its second argument by
x -> x^sqrt(q).  Every pairing is computed one way, on tuples of element
indices: B(u, w) = u . kernel_row_i(form, w).
"""

from __future__ import annotations

from functools import cached_property

from .gf import FieldContext, FieldElement
from . import linalg
from .record import Record


FAMILIES = ("sp", "o+", "o", "o-", "u")


class FormError(Exception):
    pass


class KindMismatch(FormError):
    pass


class DimMismatch(FormError):
    pass


class BadDimensionParity(FormError):
    pass


class ParabolicEvenCharacteristic(FormError):
    pass


class Form(Record):
    """A nondegenerate form of one of the Table-style families.

    ``matrix`` holds canonical element indices: the upper-triangular
    coefficient matrix for quadratic kinds, the Gram matrix otherwise.
    ``epsilon`` is +1 (hyperbolic), -1 (elliptic) or 0 (parabolic) for
    quadratic kinds and None otherwise.
    """

    kind: str
    family: str
    dim: int
    epsilon: int | None
    ctx: FieldContext
    matrix: tuple[tuple[int, ...], ...]

    def __repr__(self):
        return f"Form({self.family}, dim={self.dim}, {self.ctx!r})"

    @cached_property
    def bilinear_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The matrix M of the reflexive pairing, C + C^T for quadratic kinds
        and the Gram matrix otherwise: per row i, the pairs (j, M[i][j])
        with M[i][j] != 0."""
        mat, add = self.matrix, self.ctx.add_i
        if self.kind == "quadratic":
            mat = [[add(mat[i][j] if i <= j else 0, mat[j][i] if j <= i else 0)
                    for j in range(self.dim)] for i in range(self.dim)]
        return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in mat)


_KIND = {"sp": "symplectic", "o+": "hyperbolic", "o": "parabolic", "o-": "elliptic"}


def check_standard(family: str, dim: int, ctx: FieldContext) -> None:
    """Raise what standard_form raises for a family, dim or field it does not serve."""
    if family not in FAMILIES:
        raise FormError(f"unknown family {family!r}")
    if dim < 2:
        raise DimMismatch("forms need dimension >= 2")
    if family == "u":
        ctx.sqrt_q  # raises OddExtensionDegree unless q is a square
    elif dim % 2 != (family == "o"):  # only the parabolic dimension is odd
        raise BadDimensionParity(
            f"{_KIND[family]} forms need {'odd' if family == 'o' else 'even'} dimension")
    elif family == "o" and ctx.p == 2:
        raise ParabolicEvenCharacteristic(
            "over even q the parabolic space duplicates the symplectic one; "
            "use family 'sp' in dimension dim-1")


def standard_form(family: str, dim: int, ctx: FieldContext) -> Form:
    """The canonical representative of the family on GF(q)^dim.

    sp: B(x,y) = sum x_{2i} y_{2i+1} - x_{2i+1} y_{2i}  (dim even)
    o+: Q(x) = sum x_{2i} x_{2i+1}                      (dim even)
    o : Q(x) = x_0^2 + sum x_{2i-1} x_{2i}              (dim odd, odd q)
    o-: o+ on the first dim-2 coordinates plus an anisotropic tail
        t^2 + a t b with (a, b) the least pair making it irreducible
    u : H(u,w) = sum u_i w_i^sqrt(q)                    (square q)
    """
    check_standard(family, dim, ctx)
    m = [[0] * dim for _ in range(dim)]
    one = 1
    if family == "sp":
        minus_one = ctx.neg_i(one)
        for i in range(0, dim, 2):
            m[i][i + 1] = one
            m[i + 1][i] = minus_one
        return Form("symplectic", family, dim, None, ctx, tuple(map(tuple, m)))
    if family == "u":
        for i in range(dim):
            m[i][i] = one
        return Form("hermitian", family, dim, None, ctx, tuple(map(tuple, m)))
    if family == "o+":
        for i in range(0, dim, 2):
            m[i][i + 1] = one
        return Form("quadratic", family, dim, 1, ctx, tuple(map(tuple, m)))
    if family == "o":
        m[0][0] = one
        for i in range(1, dim, 2):
            m[i][i + 1] = one
        return Form("quadratic", family, dim, 0, ctx, tuple(map(tuple, m)))
    # family == "o-"
    for i in range(0, dim - 2, 2):
        m[i][i + 1] = one
    a_idx, b_idx = _least_irreducible_tail(ctx)
    m[dim - 2][dim - 2] = one
    m[dim - 2][dim - 1] = a_idx
    m[dim - 1][dim - 1] = b_idx
    return Form("quadratic", family, dim, -1, ctx, tuple(map(tuple, m)))


def _least_irreducible_tail(ctx: FieldContext) -> tuple[int, int]:
    # least (a, b) in element order with t^2 + a t + b irreducible over GF(q),
    # i.e. with no root among the q field elements
    for a in range(ctx.q):
        for b in range(ctx.q):
            if all(
                ctx.add_i(ctx.add_i(ctx.mul_i(t, t), ctx.mul_i(a, t)), b) != 0
                for t in range(ctx.q)
            ):
                return a, b
    raise FormError("no irreducible quadratic tail exists")  # unreachable for q >= 2


def _check_vec(form: Form, v):
    if len(v) != form.dim:
        raise DimMismatch(f"vector of length {len(v)} against dim {form.dim}")


# -- index-level cores (hot paths work on tuples of element indices) ----------

def eval_form_i(form: Form, v: tuple[int, ...]) -> int:
    ctx = form.ctx
    acc = 0
    mat = form.matrix
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = mat[i]
        for j in range(i, form.dim):
            c = row[j]
            if c and v[j]:
                acc = ctx.add_i(acc, ctx.mul_i(c, ctx.mul_i(vi, v[j])))
    return acc


def kernel_row_i(form: Form, w: tuple[int, ...]) -> tuple[int, ...]:
    """M sigma(w), the row r with B(u, w) = u . r for every u.

    M is the matrix of ``form.bilinear_terms``; sigma is x -> x^sqrt(q) on
    each coordinate for hermitian forms and the identity otherwise.  perp(S)
    is the null space of the rows of S.
    """
    ctx = form.ctx
    add, mul, _, _ = ctx.tables()
    if form.kind == "hermitian":
        w = tuple(map(ctx.frob_i, w))
    row = []
    for terms in form.bilinear_terms:
        acc = 0
        for j, g in terms:
            a = w[j]
            if a:
                acc = add[acc][mul[g][a]]
        row.append(acc)
    return tuple(row)


def bilinear_i(form: Form, u: tuple[int, ...], w: tuple[int, ...]) -> int:
    """The reflexive pairing B(u, w): the polarisation of Q for quadratic
    kinds, the Gram pairing otherwise."""
    add, mul, _, _ = form.ctx.tables()
    acc = 0
    for a, r in zip(u, kernel_row_i(form, w)):
        if a and r:
            acc = add[acc][mul[a][r]]
    return acc


def value_i(form: Form, v: tuple[int, ...]) -> int:
    """Q(v) for quadratic kinds, H(v, v) for hermitian ones, and 0 for
    symplectic ones (B(v, v) = 0 always): v is singular exactly when it is 0."""
    if form.kind == "quadratic":
        return eval_form_i(form, v)
    if form.kind == "hermitian":
        return bilinear_i(form, v, v)
    return 0


def singular_i(form: Form, v: tuple[int, ...]) -> bool:
    return value_i(form, v) == 0


# -- element-level public surface ---------------------------------------------

def eval_form(form: Form, v) -> FieldElement:
    """Exact value of a quadratic form at v."""
    if form.kind != "quadratic":
        raise KindMismatch(f"eval_form needs a quadratic form, got {form.kind}")
    _check_vec(form, v)
    return form.ctx.element(eval_form_i(form, linalg.vec_key(v)))


def polarise(form: Form, u, w) -> FieldElement:
    """B(u, w) = Q(u+w) - Q(u) - Q(w); bilinear and symmetric."""
    if form.kind != "quadratic":
        raise KindMismatch(f"polarise needs a quadratic form, got {form.kind}")
    _check_vec(form, u)
    _check_vec(form, w)
    return form.ctx.element(bilinear_i(form, linalg.vec_key(u), linalg.vec_key(w)))


def eval_pairing(form: Form, u, w) -> FieldElement:
    """Gram pairing; conjugates the second argument for hermitian forms."""
    if form.kind not in ("symplectic", "hermitian"):
        raise KindMismatch(f"eval_pairing needs symplectic/hermitian, got {form.kind}")
    _check_vec(form, u)
    _check_vec(form, w)
    return form.ctx.element(bilinear_i(form, linalg.vec_key(u), linalg.vec_key(w)))


def perp_i(form: Form, vectors) -> tuple[tuple[int, ...], ...]:
    """rref basis of {u : B(u, s) = 0 for all s in vectors}, on index tuples."""
    return linalg.null_space_i(form.ctx, [kernel_row_i(form, v) for v in vectors],
                               form.dim)


def perp(form: Form, vectors):
    """rref basis of {u : B(u, s) = 0 for all s in vectors}."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        _check_vec(form, v)
    rows = perp_i(form, [linalg.vec_key(v) for v in vectors])
    return linalg.element_rows(form.ctx, rows)


def totally_singular_i(form: Form, rows) -> bool:
    """Q (or H(., .)) vanishes on the whole span of rows of element indices.

    Equivalent to: every row is singular and every pair pairs to 0, by the
    expansion Q(au + bw) = ab B(u, w) + a^2 Q(u) + b^2 Q(w).
    """
    return (all(singular_i(form, r) for r in rows)
            and all(bilinear_i(form, rows[i], w) == 0
                    for i in range(len(rows)) for w in rows[i + 1:]))


def is_totally_singular(form: Form, basis) -> bool:
    """Q (or H(., .)) vanishes on the whole span of element rows."""
    return totally_singular_i(form, [linalg.vec_key(r) for r in basis])

