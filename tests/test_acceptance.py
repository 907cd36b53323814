"""Acceptance suite: one test (or test group) per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Two checks are expected to fail and are kept failing on
purpose; each failure message carries the exhaustively computed
counterexample.  See README ("Known failing checks").
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intersection_rows, maximal_cliques, run
from polareig import cache, eigenfunctions as ef
from polareig import forms, graphs, linalg, oracle, polarspace, serialize
from polareig.gf import field_new, frobenius_sqrt
from polareig.graphs import RankTooLow


def _passed(line):
    print(f"\nACCEPTANCE {line}: PASS")


# -- criterion 1: the graph grid builds and SRG-verifies with exact spectra ------

GRID_EXPECT = {
    # label: (family, n_or_m, p, k, params, (theta1, theta2))
    "sp:2:2": ("sp", 2, 2, 1, (15, 6, 1, 3), (1, -3)),
    "sp:2:3": ("sp", 2, 3, 1, (40, 12, 2, 4), (2, -4)),
    "o+:2:2": ("o+", 2, 2, 1, (9, 4, 1, 2), (1, -2)),
    "o+:2:3": ("o+", 2, 3, 1, (16, 6, 2, 2), (2, -2)),
    "o+:2:4": ("o+", 2, 2, 2, (25, 8, 3, 2), (3, -2)),
    "o-:2:2": ("o-", 2, 2, 1, (27, 10, 1, 5), (1, -5)),
    "u:2:4": ("u", 2, 2, 2, (45, 12, 3, 3), (3, -3)),
    "u:2:9": ("u", 2, 3, 2, (280, 36, 8, 4), (8, -4)),
    "vo+:2:2": ("vo+", 2, 2, 1, (16, 9, 4, 6), (1, -3)),
    "vo-:2:2": ("vo-", 2, 2, 1, (16, 5, 0, 2), (1, -3)),
    "vo+:2:3": ("vo+", 2, 3, 1, (81, 32, 13, 12), (5, -4)),
    "vo-:2:3": ("vo-", 2, 3, 1, (81, 20, 1, 6), (2, -7)),
}

DIMS = {"sp": lambda n: 2 * n, "o+": lambda n: 2 * n, "o": lambda n: 2 * n + 1,
        "o-": lambda n: 2 * n + 2, "u": lambda n: 2 * n}


@pytest.fixture(scope="module")
def grid():
    built = {}
    start = time.time()
    for label, (family, size, p, k, _, _) in GRID_EXPECT.items():
        ctx = field_new(p, k)
        if family.startswith("vo"):
            g = graphs.affine_polar_graph(size, 1 if family == "vo+" else -1, ctx)
        elif family == "u":
            g = graphs.unitary_graph(ctx)
        else:
            space = polarspace.polar_space(
                forms.standard_form(family, DIMS[family](size), ctx))
            g = graphs.collinearity_graph(space)
        params = graphs.srg_check(g)
        spec = graphs.spectrum(params)
        built[label] = (g, params, spec)
    return built, time.time() - start


def test_criterion1_grid_parameters_and_spectra(grid):
    built, elapsed = grid
    for label, (family, size, p, k, expect_params, expect_theta) in GRID_EXPECT.items():
        g, params, spec = built[label]
        assert params.as_tuple() == expect_params, label
        assert (spec.theta1, spec.theta2) == expect_theta, label
        q = p ** k
        if family.startswith("vo"):
            eps = 1 if family == "vo+" else -1
            m = size
            labelled = {eps * (q - 1) * q ** (m - 1) - 1, -eps * q ** (m - 1) - 1}
            assert {spec.theta1, spec.theta2} == labelled, label
        else:
            n = g.space.rank()
            t = g.space.descriptor().order[1]
            assert spec.theta1 == q ** (n - 1) - 1, label
            assert spec.theta2 == -t * q ** (n - 2) - 1, label
    assert elapsed < 60, f"grid took {elapsed:.1f}s"
    _passed(f"C1 grid of {len(built)} graphs, exact spectra, {elapsed:.1f}s")


def test_criterion1_rank_one_spaces_error_cleanly():
    for p in (2, 3):
        space = polarspace.polar_space(
            forms.standard_form("o-", 4, field_new(p, 1)))
        assert space.point_count() == p ** 2 + 1
        with pytest.raises(RankTooLow):
            graphs.collinearity_graph(space)
    _passed("C1 rank-1 elliptic spaces rejected cleanly")


# -- criterion 2: positive-eigenvalue constructions are tight everywhere ---------

def test_criterion2_positive_eigenvalue_tightness(grid):
    built, _ = grid
    checked = 0
    for label, (g, params, spec) in built.items():
        family = g.provenance["family"]
        if family == "vo+":
            candidates = [ef.theta1_hyperbolic(g)]
        elif family == "vo-":
            base = ef.theta1_elliptic(g)
            t0 = [v for v, c in base.values.items() if c > 0]
            t1 = [v for v, c in base.values.items() if c < 0]
            candidates = [base, ef.theta1_from_clique_pair(g, t0, t1)]
        else:
            candidates = [ef.theta1_polar(g),
                          ef.theta1_from_clique_pair(
                              g, *graphs.max_intersecting_delsarte_pair(g))]
        if family == "vo+":
            candidates.append(ef.theta1_from_clique_pair(
                g, *graphs.max_intersecting_delsarte_pair(g)))
        for f in candidates:
            assert f.theta == spec.theta1, label
            report = ef.verify_eigenfunction(g, f)
            assert report.tight, label
            assert report.support_size == 2 * (spec.theta1 + 1), label
            checked += 1
    _passed(f"C2 {checked} tight positive-eigenvalue constructions")


# -- criterion 3: negative-eigenvalue tightness in the hermitian graphs ----------

@pytest.fixture(scope="module")
def unitary_family(grid):
    built, _ = grid
    out = {4: built["u:2:4"], 9: built["u:2:9"]}
    g16 = graphs.unitary_graph(field_new(2, 4))
    p16 = graphs.srg_check(g16)
    out[16] = (g16, p16, graphs.spectrum(p16))
    return out


def test_criterion3_negative_eigenvalue_tightness(unitary_family):
    for q, (g, params, spec) in sorted(unitary_family.items()):
        r = round(q ** 0.5)
        assert spec.theta2 == -(r + 1)
        f = ef.theta2_unitary(g)
        report = ef.verify_eigenfunction(g, f)
        assert report.tight
        assert report.support_size == 2 * (r + 1) == -2 * spec.theta2
        t0, t1 = ef.unitary_pair_parts(f)
        assert all(g.are_adjacent(x, y) for x in t0 for y in t1)
        for part in (t0, t1):
            assert not any(g.are_adjacent(x, y)
                           for i, x in enumerate(part) for y in part[i + 1:])
        for _, a, b in ef.outside_neighbour_counts(g, t0, t1):
            assert a == b and a in (0, 1)
    _passed("C3 tight negative-eigenvalue pairs at q = 4, 9, 16 "
            "with the {0,1} outside dichotomy")


def test_criterion3_odd_q_every_outside_vertex_has_one_neighbour_per_part(
        unitary_family):
    # As stated this is false: each part has sqrt(q)+1 vertices of degree k
    # with sqrt(q)+1 neighbours inside the pair, so at most
    # (sqrt(q)+1)(k - sqrt(q) - 1) outside vertices can see T0 at all, which
    # is fewer than the v - 2(sqrt(q)+1) outside vertices once q > 4.  The
    # assertion is kept exactly as stated; the failure carries the counts.
    g, params, spec = unitary_family[9]
    f = ef.theta2_unitary(g)
    t0, t1 = ef.unitary_pair_parts(f)
    counts = ef.outside_neighbour_counts(g, t0, t1)
    zeros = [u for u, a, b in counts if a == 0 and b == 0]
    assert not zeros, (
        f"{len(zeros)} of {len(counts)} outside vertices have no neighbour "
        f"in either part (first: vertex {zeros[0]}); "
        f"edge budget {len(t0)}*({params.k}-{len(t0)}) = "
        f"{len(t0) * (params.k - len(t0))} < {len(counts)} outside vertices")
    _passed("C3 odd-q outside vertices all have one neighbour per part")


# -- criterion 4: every enumerated pair decomposes as the characterisation says --

CHARACTERISATION_LABELS = ["sp:2:2", "sp:2:3", "o+:2:2", "o+:2:3", "u:2:4",
                           "vo+:2:2", "vo-:2:2", "vo-:2:3"]


def test_criterion4_characterisation_is_complete(grid):
    built, _ = grid
    total = 0
    for label in CHARACTERISATION_LABELS:
        g, params, spec = built[label]
        catalog = oracle.enumerate_isolated_clique_pairs(g, spec.theta1 + 1)
        report = oracle.check_characterisation(g, catalog, strict=False)
        assert report.clean, (label, report.counterexamples[:3])
        assert report.matched == len(catalog)
        total += report.matched
    _passed(f"C4 witnesses for all {total} pairs across "
            f"{len(CHARACTERISATION_LABELS)} instances")


# -- criterion 5: enumerated counts against the closed formulas ------------------

POLAR_COUNTS = {"sp:2:2": 45, "sp:2:3": 240, "o+:2:2": 9, "o+:2:3": 16,
                "u:2:4": 135}


def test_criterion5_polar_counts_match_printed_formula(grid):
    built, _ = grid
    for label, expected in POLAR_COUNTS.items():
        g = built[label][0]
        c = oracle.count_comparison(g)
        assert c.oracle == c.printed == expected, (label, c.to_json())
    _passed("C5 polar counts equal the printed formula "
            f"({', '.join(str(v) for v in POLAR_COUNTS.values())})")


def test_criterion5_affine_counts_match_a_candidate_formula(grid):
    built, _ = grid
    records = {}
    for label in ("vo-:2:2", "vo-:2:3", "vo+:2:3"):
        g = built[label][0]
        c = oracle.count_comparison(g)
        assert c.printed_matches or c.derived_matches, (label, c.to_json())
        records[label] = ("printed" if c.printed_matches else "derived",
                          c.oracle, c.printed, c.derived)
    _passed(f"C5 affine counts resolved by the enumeration: {records}")


def test_criterion5_hyperbolic_affine_count_at_q2_matches_a_candidate(grid):
    # Both candidates are wrong here: each pair arises from two different
    # translate classes in characteristic 2 (swapping the roles of the two
    # maximals), so the enumeration halves the proof-derived value.  Kept
    # exactly as stated; the failure message carries all three numbers.
    built, _ = grid
    c = oracle.count_comparison(built["vo+:2:2"][0])
    assert c.printed_matches or c.derived_matches, (
        f"enumerated {c.oracle} pairs, printed formula {c.printed}, "
        f"proof-derived {c.derived}: the enumeration contradicts both "
        f"(it equals proof-derived/2 = {c.derived // 2} only at q = 2)")
    _passed("C5 hyperbolic affine count at q=2 matches a candidate formula")


# -- criterion 6: property suites -------------------------------------------------

PROPERTY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3), (5, 2)]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS), st.data())
def test_criterion6_field_axioms_and_frobenius(field_key, data):
    ctx = field_new(*field_key)
    idx = st.integers(min_value=0, max_value=ctx.q - 1)
    a, b, c = (ctx.element(data.draw(idx)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a ** (-1) == ctx.one
    if ctx.k % 2 == 0:
        assert frobenius_sqrt(a + b) == frobenius_sqrt(a) + frobenius_sqrt(b)
        assert frobenius_sqrt(a * b) == frobenius_sqrt(a) * frobenius_sqrt(b)
        assert frobenius_sqrt(frobenius_sqrt(a)) == a


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.sampled_from(["o+", "o-"]), st.data())
def test_criterion6_polarisation_identity(field_key, family, data):
    ctx = field_new(*field_key)
    form = forms.standard_form(family, 4, ctx)
    idx = st.integers(min_value=0, max_value=ctx.q - 1)
    u = tuple(ctx.element(data.draw(idx)) for _ in range(4))
    w = tuple(ctx.element(data.draw(idx)) for _ in range(4))
    a1, a2 = ctx.element(data.draw(idx)), ctx.element(data.draw(idx))
    lhs = forms.eval_form(form, tuple(a1 * x + a2 * y for x, y in zip(u, w)))
    rhs = a1 * a2 * forms.polarise(form, u, w) \
        + a1 * a1 * forms.eval_form(form, u) \
        + a2 * a2 * forms.eval_form(form, w)
    assert lhs == rhs
    assert forms.polarise(form, u, w) == forms.polarise(form, w, u)


def test_criterion6_perp_dimension_and_double_perp():
    ctx = field_new(3, 1)
    form = forms.standard_form("o-", 6, ctx)
    rng = random.Random(1294)
    for _ in range(1000):
        rows = [tuple(ctx.element(rng.randrange(3)) for _ in range(6))
                for _ in range(rng.randint(1, 4))]
        basis = linalg.rref(rows)
        pb = forms.perp(form, basis)
        assert len(pb) == 6 - len(basis)
        assert forms.perp(form, pb) == basis
    _passed("C6 perp dimension and double-perp on 1000 random subspaces")


def test_criterion6_unique_extension_axiom(grid):
    built, _ = grid
    for label in ("sp:2:2", "o+:2:3", "u:2:4"):
        space = built[label][0].space
        n = space.rank()
        for L in space.maximals():
            assert L.proj_dim == n - 1
            for pt in space.points():
                if L.point_bits >> pt.index & 1:
                    continue
                hits = 0
                for M in space.maximals():
                    if M.point_bits >> pt.index & 1:
                        inter = intersection_rows(
                            space.ctx, M.rows(), L.rows(), space.dim)
                        hits += len(inter) == n - 1
                assert hits == 1
    _passed("C6 unique-extension axiom and maximal dimension, exhaustively")


def test_criterion6_shift_automorphisms_and_maximal_cliques(grid):
    built, _ = grid
    for label in ("vo+:2:2", "vo-:2:2"):
        g = built[label][0]
        ctx = g.ctx
        keys = [linalg.vec_key(v) for v in g.vertices]
        for shift in keys:
            perm = [g.vec_index[tuple(ctx.add_i(a, b) for a, b in zip(v, shift))]
                    for v in keys]
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    assert g.are_adjacent(i, j) == g.are_adjacent(perm[i], perm[j])
        # every maximal clique is v + Aff(M) for exactly one maximal M
        space = g.space
        cosets = {}
        for M in space.maximals():
            aff = linalg.span_i(ctx, M.rows(), 4)
            for v in keys:
                coset = frozenset(
                    g.vec_index[tuple(ctx.add_i(a, b) for a, b in zip(v, w))]
                    for w in aff)
                cosets.setdefault(coset, set()).add(M.key)
        found = {frozenset(c) for c in maximal_cliques(g)}
        assert found == set(cosets)
        assert all(len(ms) == 1 for ms in cosets.values())
    _passed("C6 shift automorphisms and unique maximal-clique decomposition")


def test_criterion6_elliptic_neighbour_trichotomy(grid):
    built, _ = grid
    for label, q in (("vo-:2:2", 2), ("vo-:2:3", 3)):
        g = built[label][0]
        ctx, space = g.ctx, g.space
        keys = [linalg.vec_key(v) for v in g.vertices]
        for M in space.maximals():
            aff = linalg.span_i(ctx, M.rows(), 4)
            perp_keys = set(linalg.span_i(ctx, [linalg.vec_key(r) for r in
                                                forms.perp(space.form, M.basis)], 4))
            for v in keys:
                clique = 0
                for w in aff:
                    clique |= 1 << g.vec_index[
                        tuple(ctx.add_i(a, b) for a, b in zip(v, w))]
                perp_coset = {tuple(ctx.add_i(a, b) for a, b in zip(v, w))
                              for w in perp_keys}
                for z in range(g.n):
                    c = (g.adj[z] & clique).bit_count()
                    if clique >> z & 1:
                        assert c == q - 1
                    elif keys[z] in perp_coset:
                        assert c == 0
                    else:
                        assert c == 1
    _passed("C6 elliptic neighbour trichotomy with exact counts")


@settings(max_examples=1000, deadline=None)
@given(c=st.fractions(min_value=-99, max_value=99).filter(lambda x: x != 0))
def test_criterion6_scaling_closure(grid, c):
    g = grid[0]["sp:2:2"][0]
    f = _SCALING_BASE.setdefault("f", ef.theta1_polar(g))
    report = ef.verify_eigenfunction(g, f.scaled(c))
    assert report.tight


_SCALING_BASE = {}


# -- criterion 7: determinism ------------------------------------------------------

def test_criterion7_reruns_are_byte_identical(tmp_path):
    ctx = field_new(3, 1)
    form = forms.standard_form("sp", 4, ctx)
    snapshots = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        run_dir.mkdir()
        space = polarspace.PolarSpace(form)
        g = graphs.collinearity_graph(space)
        catalog = oracle.enumerate_isolated_clique_pairs(g, 3)
        header, lines = serialize.catalog_json_lines(catalog, g.provenance)
        cache.write_jsonl(run_dir / "catalog.jsonl", header, lines)
        (run_dir / "export.json").write_text(serialize.graph_json(g))
        f = ef.theta1_polar(g)
        (run_dir / "function.json").write_text(serialize.eigenfunction_json(f))
        snapshots.append({p.name: p.read_bytes() for p in run_dir.iterdir()})
    assert snapshots[0] == snapshots[1]
    outputs = {
        run("count-check", "--family", "vo-", "--m", "2", "--q", "2").output
        for _ in range(3)
    }
    assert len(outputs) == 1
    _passed("C7 byte-identical caches, catalogs and outputs across reruns")
