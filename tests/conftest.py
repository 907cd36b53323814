import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import settings

from polareig import cli, eigenfunctions, forms, graphs, linalg, polarspace
from polareig.bitsets import bit_indices
from polareig.gf import field_new


# Every property test draws the same examples on every run: a test's seed is
# a hash of the test itself, so a failure always reproduces.  Loaded before
# the test modules are imported, so each @settings inherits it.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


class _Tee(io.StringIO):
    """One stream's text, also appended to the shared record of both."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def run(*argv):
    """Run ``polareig`` in process on argv, with the contract of click's
    CliRunner: ``exit_code``; ``output`` (stdout and stderr interleaved);
    ``stdout``; ``stderr``; and ``exception``, which holds a non-zero
    SystemExit, or any other exception, which gives exit code 1."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(argv))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            if code != 0:
                exception = exc
            if not isinstance(code, int):
                print(code)
                code = 1
        except Exception as exc:
            exception = exc
            code = 1
    return SimpleNamespace(exit_code=code, output=both.getvalue(),
                           stdout=out.getvalue(), stderr=err.getvalue(),
                           exception=exception)


def make_space(family, dim, p, k=1):
    return polarspace.polar_space(forms.standard_form(family, dim, field_new(p, k)))


def make_collinearity(family, dim, p, k=1):
    return graphs.collinearity_graph(make_space(family, dim, p, k))


@pytest.fixture(scope="session")
def gf2():
    return field_new(2, 1)


@pytest.fixture(scope="session")
def gf3():
    return field_new(3, 1)


@pytest.fixture(scope="session")
def gf4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def sp42():
    return make_collinearity("sp", 4, 2)


@pytest.fixture(scope="session")
def sp43():
    return make_collinearity("sp", 4, 3)


@pytest.fixture(scope="session")
def rook_o42():
    return make_collinearity("o+", 4, 2)


@pytest.fixture(scope="session")
def rook_o43():
    return make_collinearity("o+", 4, 3)


@pytest.fixture(scope="session")
def gq_o62():
    return make_collinearity("o-", 6, 2)


@pytest.fixture(scope="session")
def u44():
    return graphs.unitary_graph(field_new(2, 2))


@pytest.fixture(scope="session")
def u49():
    return graphs.unitary_graph(field_new(3, 2))


@pytest.fixture(scope="session")
def vo_plus_2():
    return graphs.affine_polar_graph(2, 1, field_new(2, 1))


@pytest.fixture(scope="session")
def vo_minus_2():
    return graphs.affine_polar_graph(2, -1, field_new(2, 1))


@pytest.fixture(scope="session")
def vo_plus_3():
    return graphs.affine_polar_graph(2, 1, field_new(3, 1))


@pytest.fixture(scope="session")
def vo_minus_3():
    return graphs.affine_polar_graph(2, -1, field_new(3, 1))


def pentagon():
    return graphs.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def is_singular_vector(form, v):
    """Whether the vector v of field elements is singular for form; a test
    helper, since only tests ask it of element vectors."""
    forms._check_vec(form, v)
    return forms.singular_i(form, linalg.vec_key(v))


def maximal_cliques(g):
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted; a test
    helper, since only tests list maximal cliques."""
    adj = g.adj
    out = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(bit_indices(r))
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = -1
        for u in bit_indices(pivot_pool):
            c = (p & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
        for v in bit_indices(p & ~adj[pivot]):
            vb = 1 << v
            bk(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    bk(0, (1 << g.n) - 1, 0)
    out.sort()
    return out


def charpoly_root_check(g, theta):
    """det(A - theta I) == 0 by exact fraction-free (Bareiss) elimination; a
    test helper that checks the spectra against the characteristic
    polynomial."""
    n = g.n
    m = [[(1 if g.adj[i] >> j & 1 else 0) - (theta if i == j else 0)
          for j in range(n)] for i in range(n)]
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            swap = next((r for r in range(col + 1, n) if m[r][col]), None)
            if swap is None:
                return True  # a zero column: determinant vanishes
            # row swap only flips the sign, which zeroness ignores
            m[col], m[swap] = m[swap], m[col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return m[n - 1][n - 1] == 0


def difference_pairs(space, L):
    """Unordered pairs {M minus L, N minus L} over distinct maximals through L.

    Requires proj_dim(L) = n-2; gives choose(t+1, 2) pairs of point-index
    tuples in canonical order.  A test helper for the polar witness.
    """
    n = space.rank()
    if L.proj_dim != n - 2:
        raise polarspace.WrongDimension(
            f"need projective dimension {n - 2}, got {L.proj_dim}")
    sigma = space.maximals_containing(L)
    pairs = []
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            a = bit_indices(sigma[i].point_bits & ~L.point_bits)
            b = bit_indices(sigma[j].point_bits & ~L.point_bits)
            pairs.append((a, b) if a <= b else (b, a))
    pairs.sort()
    return pairs


def reference_rref(rows):
    """Element-level reduced row-echelon form, as linalg.rref computed it
    before it ran on index tuples; kept as the reference for the int core."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    dim = len(work[0])
    out = []
    pivot_cols = []
    for col in range(dim):
        pivot_row = None
        for r in work:
            if not r[col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = pivot_row[col] ** (-1)
        pivot_row = [inv * a for a in pivot_row]
        for r in work:
            c = r[col]
            if not c.is_zero():
                for j in range(col, dim):
                    r[j] = r[j] - c * pivot_row[j]
        for r in out:
            c = r[col]
            if not c.is_zero():
                for j in range(col, dim):
                    r[j] = r[j] - c * pivot_row[j]
        out.append(pivot_row)
        pivot_cols.append(col)
        if not work:
            break
    order = sorted(range(len(out)), key=lambda i: pivot_cols[i])
    return tuple(tuple(out[i]) for i in order)


def intersection_rows(ctx, a_rows, b_rows, dim):
    """rref index rows of rowspace(A) ∩ rowspace(B), as perp-perp under the
    standard dot product, which is nondegenerate."""
    return linalg.null_space_i(ctx, linalg.null_space_i(ctx, a_rows, dim)
                               + linalg.null_space_i(ctx, b_rows, dim), dim)


def reference_isolated_pairs(g, s):
    """Isolated s-clique pairs by testing every pair of cliques, as the oracle
    scanned them before it used a vertex-to-clique index; kept as the
    reference for that scan."""
    cliques = graphs.cliques_of_size(g, s)
    out = []
    for i, ci in enumerate(cliques):
        forbidden = ci
        for v in bit_indices(ci):
            forbidden |= g.adj[v]
        for cj in cliques[i + 1:]:
            if cj & forbidden == 0:
                t0, t1 = bit_indices(ci), bit_indices(cj)
                out.append((t0, t1) if t0 <= t1 else (t1, t0))
    return sorted(out)


def _reference_independent_sets(comp_adj, pool_bits, s):
    out = []

    def grow(bits, size, cand, low):
        if size == s:
            out.append(bits)
            return
        rest = cand >> low << low
        while rest:
            lsb = rest & -rest
            v = lsb.bit_length() - 1
            rest ^= lsb
            grow(bits | lsb, size + 1, cand & comp_adj[v], v + 1)

    grow(0, 0, pool_bits, 0)
    return out


def reference_cliques(g, s):
    """Bitsets of the s-cliques, grown without the size prune, as
    graphs.cliques_of_size grew them before it was a generator; kept as the
    reference for its contents."""
    if s < 1:
        return []
    return _reference_independent_sets(g.adj, (1 << g.n) - 1, s)


def reference_bipartite_pairs(g, s):
    """Induced K_{s,s} pairs and their outside-regularity flags, as the oracle
    found them before its pruned search: every independent s-set is listed as
    a first part, and each flag loops over the outside vertices; kept as the
    reference for that search."""
    n = g.n
    full = (1 << n) - 1
    comp_adj = [full ^ g.adj[i] ^ (1 << i) for i in range(n)]
    found = []
    for a in _reference_independent_sets(comp_adj, full, s):
        members = bit_indices(a)
        cn = -1
        for v in members:
            cn &= g.adj[v]
        cn &= ~a
        lead = members[0]
        for b in _reference_independent_sets(comp_adj, cn, s):
            # count each unordered pair once: b's least vertex comes after a's
            if (b & -b).bit_length() - 1 > lead:
                t0, t1 = bit_indices(a), bit_indices(b)
                found.append(((t0, t1) if t0 <= t1 else (t1, t0), a, b))
    found.sort()  # keys are distinct, so the bitsets are never compared
    flags = [all((g.adj[u] & a).bit_count() == (g.adj[u] & b).bit_count()
                 for u in range(n) if not (a | b) >> u & 1)
             for _, a, b in found]
    return tuple(key for key, _, _ in found), tuple(flags)


def reference_point_keys(form):
    """The keys of the singular points as PolarSpace.points listed them
    before its half-vector tables: every normalised candidate vector,
    filtered by singular_i, then sorted; kept as the reference for them."""
    q, d = form.ctx.q, form.dim
    reps = []
    for lead in range(d):
        for tail in product(range(q), repeat=d - lead - 1):
            vec = (0,) * lead + (1,) + tail
            if forms.singular_i(form, vec):
                reps.append(vec)
    reps.sort()
    return reps


def reference_verify_eigenfunction(g, f):
    """verify_eigenfunction as the Fraction loop over the support that it
    ran before its integer value classes: NotAnEigenfunction at the least
    violating vertex, else the report; kept as the reference for it."""
    support = sorted(f.values)
    theta = Fraction(f.theta)
    for gamma in range(g.n):
        row = g.adj[gamma]
        rhs = Fraction(0)
        for delta in support:
            if row >> delta & 1:
                rhs += f.values[delta]
        lhs = theta * f.values.get(gamma, Fraction(0))
        if lhs != rhs:
            raise eigenfunctions.NotAnEigenfunction(gamma, lhs, rhs)
    try:
        bound = eigenfunctions.wdb(f.theta, g.srg_params())
    except eigenfunctions.NotNonPrincipal:
        bound = None
    size = f.support_size()
    return eigenfunctions.WdbReport(f.theta, bound, size,
                                    bound is not None and size == bound)
