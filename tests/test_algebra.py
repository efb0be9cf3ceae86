import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extcalc.algebra import (
    Bitensor,
    GradeError,
    Multivector,
    SpacetimeSignature,
    cross,
    dot,
    hodge,
    inv_hodge,
    left_interior,
    odot,
    owedge,
    right_interior,
    vec_interior_bitensor,
    verify_identities,
    wedge,
)

from extcalc import algebra
from extcalc.cli import _flipped_vector_wedge
from extcalc.energy import stress_tensor_def

from _support import (
    _difference,
    merge_with_sign,
    product_table_mismatches,
    reference_product,
    reference_verify_identities,
    sort_with_sign,
)

MINK = SpacetimeSignature(1, 3)
EUC3 = SpacetimeSignature(0, 3)


def parity_oracle(seq):
    """Brute-force oracle: sign = (-1)^inversions, 0 on duplicates."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for a, b in itertools.combinations(range(len(seq)), 2) if seq[a] > seq[b])
    return (-1) ** inversions


# ---------------------------------------------------------------------------
# sort_with_sign
# ---------------------------------------------------------------------------

def test_sort_with_sign_examples():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 1))[1] == 0
    # frozen from the inversion-count oracle: (1,3,2) has one inversion
    assert parity_oracle((1, 3, 2)) == -1
    assert sort_with_sign((1, 3, 2)) == ((1, 2, 3), -1)


def test_sort_with_sign_range_check():
    with pytest.raises(IndexError):
        sort_with_sign((0, 4), dim=4)
    assert sort_with_sign((3, 0), dim=4) == ((0, 3), -1)


@given(st.lists(st.integers(min_value=0, max_value=7), max_size=8))
def test_sort_with_sign_matches_parity_oracle(seq):
    sorted_seq, sign = sort_with_sign(seq)
    assert sign == parity_oracle(seq)
    assert sorted_seq == tuple(sorted(seq))


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6),
       st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_merge_with_sign_matches_sort(first, second):
    first = tuple(sorted(set(first)))
    second = tuple(sorted(set(second)))
    merged, sign = merge_with_sign(first, second)
    ref_sorted, ref_sign = sort_with_sign(first + second)
    assert sign == ref_sign
    if sign:
        assert merged == ref_sorted


@pytest.mark.parametrize("k,n", [(k, n) for k in range(7) for n in range(7) if 1 <= k + n <= 6])
def test_sign_tables_match_brute_force(k, n):
    sig = SpacetimeSignature(k, n)
    tables = algebra._sign_tables(sig)
    blades = tables.blades
    assert blades == tuple(I for m in range(sig.dim + 1) for I in sig.index_lists(m))
    names = ("Kw", "Cw", "Kl", "Cl", "Kr", "Cr", "D")
    assert not any(getattr(tables, name).flags.writeable for name in names)
    Kw, Cw, Kl, Cl, Kr, Cr, D = (getattr(tables, name).tolist() for name in names)
    for a, I in enumerate(blades):
        for b, J in enumerate(blades):
            K, s = merge_with_sign(I, J)
            assert (blades[Kw[a][b]], Cw[a][b]) == (K if s else (), s)
            rest = _difference(J, I)
            assert (blades[Kl[a][b]], Cl[a][b]) == (
                ((), 0) if rest is None else (rest, sig.metric_list(I) * merge_with_sign(rest, I)[1]))
            rest = _difference(I, J)
            assert (blades[Kr[a][b]], Cr[a][b]) == (
                ((), 0) if rest is None else (rest, sig.metric_list(J) * merge_with_sign(J, rest)[1]))
            assert D[a][b] == (sig.metric_list(I) if a == b else 0)


# ---------------------------------------------------------------------------
# random multivector helpers
# ---------------------------------------------------------------------------

def coeff_strategy():
    return st.integers(min_value=-3, max_value=3)


def multivector_strategy(sig, grade):
    lists = list(sig.index_lists(grade))
    return st.lists(coeff_strategy(), min_size=len(lists), max_size=len(lists)).map(
        lambda cs: Multivector(sig, grade, dict(zip(lists, cs))))


# ---------------------------------------------------------------------------
# dot
# ---------------------------------------------------------------------------

def test_dot_examples():
    e0 = Multivector.blade(MINK, (0,))
    assert dot(e0, e0) == -1
    e01 = Multivector.blade(MINK, (0, 1))
    assert dot(e01, e01) == -1  # Delta_00 * Delta_11
    e1 = Multivector.blade(MINK, (1,))
    e2 = Multivector.blade(MINK, (2,))
    assert dot(e1, e2) == 0


def test_dot_grade_mismatch():
    with pytest.raises(GradeError):
        dot(Multivector.blade(MINK, (0,)), Multivector.blade(MINK, (0, 1)))


def test_dot_bilinear():
    u = Multivector(MINK, 1, {(0,): 2, (3,): 1})
    v = Multivector(MINK, 1, {(0,): 1, (3,): 4})
    assert dot(u, v) == 2 * 1 * -1 + 1 * 4 * 1


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_examples():
    e1 = Multivector.blade(MINK, (1,))
    e2 = Multivector.blade(MINK, (2,))
    assert wedge(e1, e2) == Multivector.blade(MINK, (1, 2))
    assert wedge(e2, e1) == Multivector.blade(MINK, (1, 2), -1)
    assert not wedge(e1, e1)


def test_wedge_grade_overflow_is_zero():
    sig = SpacetimeSignature(0, 2)
    u = Multivector.blade(sig, (0, 1))
    v = Multivector.blade(sig, (0,))
    assert not wedge(u, v)


@settings(max_examples=50, deadline=None)
@given(multivector_strategy(MINK, 1), multivector_strategy(MINK, 2))
def test_wedge_skew_commutes(u, w):
    lhs = wedge(u, w)
    rhs = wedge(w, u) * ((-1) ** (u.grade * w.grade))
    assert not (lhs - rhs)


# ---------------------------------------------------------------------------
# interior products
# ---------------------------------------------------------------------------

def test_left_interior_examples():
    e1 = Multivector.blade(MINK, (1,))
    e12 = Multivector.blade(MINK, (1, 2))
    # sigma((2),(1)) = -1 and Delta_11 = +1, frozen by the signature oracle
    assert parity_oracle((2, 1)) == -1
    assert left_interior(e1, e12) == Multivector.blade(MINK, (2,), -1)
    e3 = Multivector.blade(MINK, (3,))
    assert not left_interior(e3, e12)


def test_left_interior_equal_grades_is_dot():
    u = Multivector(MINK, 2, {(0, 1): 2, (1, 3): -1})
    v = Multivector(MINK, 2, {(0, 1): 1, (2, 3): 5})
    res = left_interior(u, v)
    assert res.grade == 0
    assert res.coeff(()) == dot(u, v)


def test_right_interior_examples():
    e12 = Multivector.blade(MINK, (1, 2))
    e2 = Multivector.blade(MINK, (2,))
    # Delta_22 sigma((2),(1)) = -1, frozen by the signature oracle
    assert right_interior(e12, e2) == Multivector.blade(MINK, (1,), -1)
    e3 = Multivector.blade(MINK, (3,))
    assert not right_interior(e12, e3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 3), (0, 3), (2, 2)]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_interior_transpose_property(kn, gu, gv, data):
    sig = SpacetimeSignature(*kn)
    gu, gv = min(gu, sig.dim), min(gv, sig.dim)
    u = data.draw(multivector_strategy(sig, gu))
    v = data.draw(multivector_strategy(sig, gv))
    lhs = left_interior(u, v)
    rhs = right_interior(v, u) * ((-1) ** (gu * (gu + gv)))
    assert not (lhs - rhs)


def _exact(x):
    """Grade, term order and coefficient reprs: equal only when bit for bit."""
    return repr((x.grade, list(x.terms.items()))) if isinstance(x, Multivector) else repr(x)


def _random_terms(sig, grade):
    # finite parts span the whole float range, so products overflow to inf
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [math.inf, -math.inf, math.nan])
    coefficients = st.one_of(st.integers(-3, 3), floats, st.builds(complex, floats, floats))
    return st.dictionaries(st.sampled_from(list(sig.index_lists(grade))), coefficients).map(
        lambda terms: Multivector(sig, grade, terms))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(1, 1), (0, 3), (1, 3), (2, 2), (3, 3)]), st.integers(0, 6),
       st.integers(0, 6), st.data())
def test_products_match_the_brute_force_loops(kn, gu, gv, data):
    # real, complex and integer terms, signed zeros, NaN and infinities
    sig = SpacetimeSignature(*kn)
    gu, gv = min(gu, sig.dim), min(gv, sig.dim)
    u, v, w = (data.draw(_random_terms(sig, g)) for g in (gu, gv, gu))
    for name in ("wedge", "left_interior", "right_interior"):
        assert _exact(getattr(algebra, name)(u, v)) == _exact(reference_product(name, u, v))
    assert _exact(dot(u, w)) == _exact(reference_product("dot", u, w))


# ---------------------------------------------------------------------------
# hodge complements
# ---------------------------------------------------------------------------

def test_hodge_examples():
    e0 = Multivector.blade(MINK, (0,))
    assert hodge(e0) == Multivector.blade(MINK, (1, 2, 3), -1)


def test_hodge_round_trip_all_blades():
    for k in range(0, 4):
        for n in range(0, 4):
            if k + n < 1:
                continue
            sig = SpacetimeSignature(k, n)
            for grade in range(sig.dim + 1):
                for idx in sig.index_lists(grade):
                    blade = Multivector.blade(sig, idx)
                    assert inv_hodge(hodge(blade)) == blade
                    assert hodge(inv_hodge(blade)) == blade


def test_cross_matches_classical():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        u = Multivector.vector(EUC3, a)
        v = Multivector.vector(EUC3, b)
        got = cross(u, v).row().tolist()
        expected = np.cross(a, b)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


# ---------------------------------------------------------------------------
# dense rows and unit-blade tables
# ---------------------------------------------------------------------------

def test_dense_rows_round_trip():
    sig = SpacetimeSignature(1, 2)
    mv = Multivector(sig, 2, {(0, 2): 3, (1, 2): -0.5})
    # index_lists(2): e_01, e_02, e_12
    assert mv.row().tolist() == [0, 3, -0.5]
    assert Multivector.from_row(sig, 2, mv.row()) == mv
    assert Multivector.from_row(sig, 2, [0.0, 0.0, 0.0]) == Multivector.zero(sig, 2)
    t = Bitensor(sig, {(0, 0): 1.5, (2, 1): -2.0})
    # pairs (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
    assert t.row().tolist() == [1.5, 0, 0, 0, -2.0, 0]
    assert Bitensor.from_row(sig, t.row()) == t


def test_product_table_lays_out_unit_blade_products():
    sig = SpacetimeSignature(1, 2)
    # e_0 ^ e_0 = 0, e_0 ^ e_1 = e_01, e_0 ^ e_2 = e_02
    table = algebra._product_table(sig, "w", 1, 1)
    assert table.dtype == float and table.shape == (3, 3, 3)
    assert table[0].tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    # one axis per unit blade of each operand grade and of the product's grade:
    # a product that leaves the grade range has no columns, and an operand
    # grade beyond the dimension (4 on three axes) no rows
    grades = range(sig.dim + 2)
    for product, u, v in itertools.product("wlr", grades, grades):
        out = {"w": u + v, "l": v - u, "r": u - v}[product]
        width = math.comb(sig.dim, out) if 0 <= out else 0
        shape = algebra._product_table(sig, product, u, v).shape
        assert shape == (math.comb(sig.dim, u), math.comb(sig.dim, v), width), (product, u, v)
    # cached and shared, so read-only
    assert algebra._product_table(sig, "w", 1, 1) is table
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


def test_product_tables_are_the_reference_unit_tables_bit_for_bit():
    # derivative, force and classical pack and unpack tables against the
    # reference stack of their product maps; the k + n = 6 signatures run in CI
    cases = 0
    for d in range(1, 6):
        for k in range(d + 1):
            assert product_table_mismatches(SpacetimeSignature(k, d - k)) == [], (k, d - k)
            cases += 1
    assert cases == 20


# ---------------------------------------------------------------------------
# bitensors
# ---------------------------------------------------------------------------

def test_bitensor_symmetric_lookup():
    t = Bitensor(MINK, {(0, 2): 3.5})
    assert t.get(0, 2) == 3.5
    assert t.get(2, 0) == 3.5
    assert t.get(1, 1) == 0


def test_vec_interior_bitensor_examples():
    e0 = Multivector.blade(MINK, (0,))
    u00 = Bitensor(MINK, {(0, 0): 1})
    assert vec_interior_bitensor(e0, u00) == Multivector.blade(MINK, (0,), -1)

    e1 = Multivector.blade(MINK, (1,))
    u23 = Bitensor(MINK, {(2, 3): 1})
    assert not vec_interior_bitensor(e1, u23)

    e3 = Multivector.blade(MINK, (3,))
    u03 = Bitensor(MINK, {(0, 3): 1})
    assert vec_interior_bitensor(e3, u03) == Multivector.blade(MINK, (0,), 1)


def test_odot_owedge_zero_and_symmetry():
    zero = Multivector.zero(MINK, 2)
    assert odot(zero, zero).max_abs() == 0
    assert owedge(zero, zero).max_abs() == 0

    f = Multivector(MINK, 2, {(0, 1): 0.7, (1, 2): -1.2, (0, 3): 0.4})
    for t in (odot(f, f), owedge(f, f)):
        for i in range(4):
            for j in range(4):
                assert t.get(i, j) == t.get(j, i)


def test_energy_density_unit_ex():
    # F = e_01 is a unit electric field along x; energy density is 1/2
    f = Multivector.blade(MINK, (0, 1))
    assert stress_tensor_def(f).get(0, 0) == pytest.approx(0.5)


def test_odot_two_argument_matches_transpose_rule():
    # tau_ji(a, b) = tau_ij(b, a) makes the symmetrised product consistent
    a = Multivector(MINK, 2, {(0, 1): 1.0, (2, 3): 2.0})
    b = Multivector(MINK, 2, {(0, 2): -1.5, (1, 3): 0.5})
    ab = odot(a, b)
    ba = odot(b, a)
    for i in range(4):
        for j in range(4):
            assert ab.get(i, j) == pytest.approx(ba.get(i, j))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_grade_arithmetic_and_random_identities(r, data):
    # grade bookkeeping plus the wedge-dot expansion, interior-of-wedge, and
    # triple-product identities on random multivectors
    v = data.draw(multivector_strategy(MINK, 1))
    vp = data.draw(multivector_strategy(MINK, 1))
    w = data.draw(multivector_strategy(MINK, r))
    wp = data.draw(multivector_strategy(MINK, r))

    vw = wedge(v, w)
    if vw:
        assert vw.grade == 1 + r
    lv = left_interior(v, w)
    if lv:
        assert lv.grade == r - 1

    lhs = dot(wedge(v, w), wedge(wp, vp))
    rhs = (-1) ** r * dot(v, vp) * dot(w, wp) + dot(left_interior(vp, w), right_interior(wp, v))
    assert lhs == rhs

    lhs2 = left_interior(v, wedge(vp, w))
    rhs2 = ((-1) ** r * dot(v, vp)) * w + wedge(vp, left_interior(v, w))
    assert not (lhs2 - rhs2)

    u = data.draw(multivector_strategy(MINK, 1))
    s = data.draw(multivector_strategy(MINK, max(r - 1, 0)))
    lhs3 = dot(wedge(u, s), w)
    assert lhs3 == dot(s, right_interior(w, u))
    assert lhs3 == dot(u, left_interior(s, w))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n", [(1, 3), (0, 3), (2, 2)])
def test_verify_identities_exact(k, n):
    report = verify_identities(SpacetimeSignature(k, n))
    assert report.passed
    assert report.max_residual == 0
    assert report.checks > 0


def test_verify_identities_cap():
    with pytest.raises(ValueError):
        verify_identities(SpacetimeSignature(3, 4))


# the array of the sign tables that each public product reads
PRODUCT_TABLES = {"wedge": "Cw", "left_interior": "Cl", "right_interior": "Cr", "dot": "D"}


def _corrupt_table(monkeypatch, sig, name, grades, entry=None):
    """Patch ``algebra._sign_tables`` to return, on ``sig``, a copy whose
    first nonzero ``name`` entry on a blade pair of the given grades is
    negated, or set to ``entry`` in a float copy; returns that pair's unit
    blades and the product on them before the patch."""
    tables = algebra._sign_tables(sig)
    array = getattr(tables, PRODUCT_TABLES[name])
    grade = np.array([len(I) for I in tables.blades])
    a, b = np.argwhere((array != 0) & (grade[:, None] == grades[0]) & (grade == grades[1]))[0]
    units = Multivector.blade(sig, tables.blades[a]), Multivector.blade(sig, tables.blades[b])
    before = getattr(algebra, name)(*units)
    corrupt = array.astype(float if entry is not None else array.dtype)
    corrupt[a, b] = -corrupt[a, b] if entry is None else entry
    patched = dataclasses.replace(tables, **{PRODUCT_TABLES[name]: corrupt})
    clean = algebra._sign_tables
    monkeypatch.setattr(algebra, "_sign_tables", lambda s: patched if s == sig else clean(s))
    return units, before


@pytest.mark.parametrize("name,grades", [
    ("wedge", (1, 2)),
    ("left_interior", (1, 2)),
    ("right_interior", (2, 1)),
    ("dot", (2, 2)),
])
def test_verify_identities_certifies_public_products(monkeypatch, name, grades):
    # the suite reads the table the public product reads: one flipped entry
    # fails the suite and flips the product on that blade pair
    sig = SpacetimeSignature(1, 3)
    units, before = _corrupt_table(monkeypatch, sig, name, grades)
    assert not verify_identities(sig).passed
    assert getattr(algebra, name)(*units) == -before != 0


def test_verify_identities_detects_corruption():
    sig = SpacetimeSignature(1, 1)
    report = verify_identities(sig, tables=_flipped_vector_wedge(sig))
    assert not report.passed


def _outcome(report):
    return report.residuals, report.checks, report.passed


@pytest.mark.parametrize("k,n", [(k, n) for k in range(7) for n in range(7) if 1 <= k + n <= 6])
def test_verify_identities_matches_loop_reference(k, n):
    sig = SpacetimeSignature(k, n)
    report = verify_identities(sig)
    assert _outcome(report) == _outcome(reference_verify_identities(sig))
    assert type(report.checks) is int
    assert all(type(v) is float for v in report.residuals.values())


def _flip_vector_wedge(I, J):
    merged, sign = merge_with_sign(I, J)
    return merged, -sign if len(I) == len(J) == 1 else sign


def test_flipped_vector_wedge_is_the_reference_corruption():
    # the self-test's flipped table holds the wedge the reference callback gives
    for k, n in [(k, n) for k in range(7) for n in range(7) if 1 <= k + n <= 6]:
        sig = SpacetimeSignature(k, n)
        tables, flipped = algebra._sign_tables(sig), _flipped_vector_wedge(sig)
        position = {I: a for a, I in enumerate(tables.blades)}
        signed = [_flip_vector_wedge(I, J) for I in tables.blades for J in tables.blades]
        size = len(tables.blades)
        assert np.array_equal(flipped.Kw, np.reshape([position[K] if s else 0 for K, s in signed],
                                                     (size, size)))
        assert np.array_equal(flipped.Cw, np.reshape([s for _, s in signed], (size, size)))
        assert all(getattr(flipped, name) is getattr(tables, name)
                   for name in ("blades", "Kw", "Kl", "Cl", "Kr", "Cr", "D"))


# each corruption must move the same residuals by the same amounts in both forms
@pytest.mark.parametrize("k,n", [(1, 3), (2, 2)])
@pytest.mark.parametrize("name,grades", [
    ("wedge", (1, 2)),
    ("left_interior", (1, 2)),
    ("right_interior", (2, 1)),
    ("dot", (2, 2)),
    ("wedge_sign_fn", None),
])
def test_verify_identities_matches_loop_reference_under_corruption(monkeypatch, k, n, name, grades):
    sig = SpacetimeSignature(k, n)
    if grades is None:
        report = verify_identities(sig, tables=_flipped_vector_wedge(sig))
        reference = reference_verify_identities(sig, wedge_sign_fn=_flip_vector_wedge)
    else:
        units, before = _corrupt_table(monkeypatch, sig, name, grades)
        report, reference = verify_identities(sig), reference_verify_identities(sig)
        assert getattr(algebra, name)(*units) == -before != 0
    assert not report.passed
    assert _outcome(report) == _outcome(reference)


# one signature per dimension; on (1, 0) no two vectors have a nonzero wedge,
# so the flipped table is the clean one and both forms pass
@pytest.mark.parametrize("k,n", [(1, 0), (1, 1), (2, 1), (1, 3), (3, 2), (3, 3)])
def test_flipped_vector_wedge_matches_loop_reference_in_every_dimension(k, n):
    sig = SpacetimeSignature(k, n)
    report = verify_identities(sig, tables=_flipped_vector_wedge(sig))
    assert _outcome(report) == _outcome(reference_verify_identities(sig, wedge_sign_fn=_flip_vector_wedge))
    assert report.passed == (sig.dim == 1)


def test_verify_identities_reads_the_tables_on_every_call():
    # only structural arrays are cached: clean, flipped and clean tables in turn
    sig = SpacetimeSignature(1, 3)
    flipped = _flipped_vector_wedge(sig)
    verdicts = [verify_identities(sig, tables=tables).passed for tables in (None, flipped, None)]
    assert verdicts == [True, False, True]


def _suite_arrays(dim):
    """Every array the identity suite caches for a dimension."""
    skew, transpose, *grids = algebra._suite_grids(dim)
    return [skew, transpose, *(array for grid in grids for array in grid)]


def test_suite_cache_holds_structure_only():
    # the cached arrays are read-only and no run writes a table value into them:
    # clean, flipped, NaN-dot and clean tables in turn on one signature
    sig = SpacetimeSignature(1, 3)
    before = [array.copy() for array in _suite_arrays(sig.dim)]
    tables = algebra._sign_tables(sig)
    D = tables.D.astype(float)
    D[3, 3] = math.nan
    runs = [verify_identities(sig, tables=t) for t in (None, _flipped_vector_wedge(sig),
                                                        dataclasses.replace(tables, D=D), None)]
    assert [report.passed for report in runs] == [True, False, False, True]
    assert math.isnan(runs[2].max_residual)
    cached = _suite_arrays(sig.dim)
    assert all(not array.flags.writeable for array in cached)
    assert len(cached) == len(before)
    assert all(array.dtype == old.dtype and np.array_equal(array, old) for array, old in zip(cached, before))
    assert _outcome(runs[3]) == _outcome(runs[0])


def test_identity_report_max_residual_keeps_a_nan():
    # the builtin max() dropped a NaN that did not come first, giving 0.0
    sig = SpacetimeSignature(1, 2)
    tables = algebra._sign_tables(sig)
    D = tables.D.astype(float)
    D[3, 3] = math.nan
    report = verify_identities(sig, tables=dataclasses.replace(tables, D=D))
    assert not report.passed
    assert not math.isnan(next(iter(report.residuals.values())))
    assert math.isnan(report.max_residual)
    assert math.isnan(algebra.IdentityReport(sig, {"a": 0.0, "b": math.nan}, 1, False).max_residual)
    assert algebra.IdentityReport(sig, {}, 0, True).max_residual == 0.0


# the identities that read a vector-bivector entry of each product's table
READERS = {
    "wedge": {"wedge_skew", "wedge_dot_expansion", "interior_of_wedge", "triple_product"},
    "left_interior": {"interior_transpose", "wedge_dot_expansion", "double_interior_assoc",
                      "double_interior_antisym", "interior_of_wedge", "triple_product"},
    "right_interior": {"interior_transpose", "wedge_dot_expansion", "double_interior_assoc",
                       "triple_product"},
}


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,grades", [("wedge", (1, 2)), ("left_interior", (1, 2)),
                                         ("right_interior", (2, 1))])
def test_verify_identities_fails_closed_on_a_non_finite_entry(monkeypatch, name, grades, entry):
    sig = SpacetimeSignature(1, 3)
    _corrupt_table(monkeypatch, sig, name, grades, entry=entry)
    report = verify_identities(sig)
    assert not report.passed
    assert {key for key, value in report.residuals.items() if not math.isfinite(value)} == READERS[name]
    assert all(value == 0 for key, value in report.residuals.items() if key not in READERS[name])


def test_verify_identities_fails_on_a_nan_product(monkeypatch):
    # the loop form dropped a NaN residual and passed; the suite must fail closed
    sig = SpacetimeSignature(1, 2)
    units, _ = _corrupt_table(monkeypatch, sig, "dot", (2, 2), entry=math.nan)
    report = verify_identities(sig)
    assert not report.passed
    assert math.isnan(report.residuals["wedge_dot_expansion"])
    assert math.isnan(report.residuals["triple_product"])
    assert math.isnan(dot(*units))


@pytest.mark.parametrize("k,n,checks", [(1, 0, 18), (1, 1, 120), (1, 3, 2848), (3, 3, 57872)])
def test_verify_identities_check_counts(k, n, checks):
    assert verify_identities(SpacetimeSignature(k, n)).checks == checks


@pytest.mark.parametrize("k,n,checks", [(3, 4, 261794), (4, 4, 1186944)])
def test_verify_identities_through_eight_dimensions(k, n, checks):
    # 256 blades on (4, 4): the table positions no longer fit in int8
    sig = SpacetimeSignature(k, n)
    report = verify_identities(sig, max_dim=8)
    assert report.passed and report.max_residual == 0
    assert report.checks == checks
    assert algebra._sign_tables(sig).Kw.dtype == (np.int16 if sig.dim == 8 else np.int8)


def test_verify_identities_seven_dimensions_on_request():
    report = verify_identities(SpacetimeSignature(3, 4), max_dim=7)
    assert report.passed and report.max_residual == 0
    assert report.checks == 261794


# ---------------------------------------------------------------------------
# multivector plumbing
# ---------------------------------------------------------------------------

def test_terms_prune_relative():
    v = Multivector(MINK, 1, {(0,): 1.0, (1,): 1e-20})
    assert (1,) not in v.terms


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prune_keeps_non_finite_coefficients(bad):
    # for both containers, on either index and in either insertion order, the
    # bad value and the finite term both survive and max_abs reports the bad one
    for bad_idx, fine_idx in (((1,), (2,)), ((2,), (1,))):
        pairs = [(bad_idx, bad), (fine_idx, 1.0)]
        for terms in (pairs, pairs[::-1]):
            v = Multivector(MINK, 1, dict(terms))
            assert set(v.terms) == {(1,), (2,)}
            t = Bitensor(MINK, {idx * 2: c for idx, c in terms})
            assert set(t.comps) == {(1, 1), (2, 2)}
            for value in (v.max_abs(), t.max_abs()):
                assert math.isnan(value) if math.isnan(bad) else value == math.inf


def test_complex_beyond_the_float_range_reaches_max_abs_as_inf():
    # abs() of this coefficient raises OverflowError; its magnitude is inf, so
    # it is kept like an infinite coefficient and reaches max_abs
    big = complex(1.5e308, 1.5e308)
    v = Multivector(MINK, 1, {(0,): big, (1,): 1.0})
    assert v.terms == {(0,): big, (1,): 1.0}
    t = Bitensor(MINK, {(0, 0): big, (1, 1): 1.0})
    assert set(t.comps) == {(0, 0), (1, 1)}
    assert v.max_abs() == t.max_abs() == math.inf


def test_grade_zero_behaves_as_scalar():
    s = Multivector.blade(MINK, (), 2.0)
    v = Multivector(MINK, 1, {(2,): 3.0})
    assert wedge(s, v) == v * 2.0
    assert left_interior(s, v) == v * 2.0
    assert dot(s, s) == 4.0


def test_add_requires_same_grade():
    u = Multivector.blade(MINK, (0,))
    w = Multivector.blade(MINK, (0, 1))
    with pytest.raises(GradeError):
        u + w
    # zero multivectors are absorbing regardless of nominal grade
    assert Multivector.zero(MINK, 2) + u == u


def test_complex_coefficients_no_implicit_conjugation():
    u = Multivector(MINK, 1, {(1,): 1j})
    assert dot(u, u) == -1  # bilinear: (1j)^2 * Delta_11
    assert dot(u.conjugate(), u) == 1


def test_component_count():
    sig = SpacetimeSignature(2, 3)
    for m in range(6):
        assert len(list(sig.index_lists(m))) == math.comb(5, m)
