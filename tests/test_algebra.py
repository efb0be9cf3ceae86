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
    unit_table,
    vec_interior_bitensor,
    verify_identities,
    wedge,
)

from extcalc import algebra

from _support import (
    _difference,
    merge_with_sign,
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
    assert wedge(e1, e1).is_zero()


def test_wedge_grade_overflow_is_zero():
    sig = SpacetimeSignature(0, 2)
    u = Multivector.blade(sig, (0, 1))
    v = Multivector.blade(sig, (0,))
    assert wedge(u, v).is_zero()


@settings(max_examples=50, deadline=None)
@given(multivector_strategy(MINK, 1), multivector_strategy(MINK, 2))
def test_wedge_skew_commutes(u, w):
    lhs = wedge(u, w)
    rhs = wedge(w, u) * ((-1) ** (u.grade * w.grade))
    assert (lhs - rhs).is_zero()


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
    assert left_interior(e3, e12).is_zero()


def test_left_interior_equal_grades_is_dot():
    u = Multivector(MINK, 2, {(0, 1): 2, (1, 3): -1})
    v = Multivector(MINK, 2, {(0, 1): 1, (2, 3): 5})
    res = left_interior(u, v)
    assert res.grade == 0
    assert res.scalar_value() == dot(u, v)


def test_right_interior_examples():
    e12 = Multivector.blade(MINK, (1, 2))
    e2 = Multivector.blade(MINK, (2,))
    # Delta_22 sigma((2),(1)) = -1, frozen by the signature oracle
    assert right_interior(e12, e2) == Multivector.blade(MINK, (1,), -1)
    e3 = Multivector.blade(MINK, (3,))
    assert right_interior(e12, e3).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 3), (0, 3), (2, 2)]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_interior_transpose_property(kn, gu, gv, data):
    sig = SpacetimeSignature(*kn)
    gu, gv = min(gu, sig.dim), min(gv, sig.dim)
    u = data.draw(multivector_strategy(sig, gu))
    v = data.draw(multivector_strategy(sig, gv))
    lhs = left_interior(u, v)
    rhs = right_interior(v, u) * ((-1) ** (gu * (gu + gv)))
    assert (lhs - rhs).is_zero()


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
        got = cross(u, v).vector_components()
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


def test_unit_table_tabulates_a_linear_map_and_checks_its_images():
    sig = SpacetimeSignature(1, 2)
    e0 = Multivector.blade(sig, (0,))
    # e_0 ^ e_0 = 0, e_0 ^ e_1 = e_01, e_0 ^ e_2 = e_02
    table = unit_table(sig, lambda u: wedge(e0, u), 1, 2)
    assert table.dtype == float and table.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert unit_table(sig, lambda u: 1j * u, 1, 1).tolist() == (1j * np.eye(3)).tolist()
    with pytest.raises(ValueError, match="grade-1 images"):
        unit_table(sig, lambda u: wedge(e0, u), 1, 1)
    with pytest.raises(ValueError, match="grade-1 images"):
        unit_table(sig, lambda u: Multivector.zero(EUC3, 1), 1, 1)


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
    assert vec_interior_bitensor(e1, u23).is_zero()

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
    total = -1 * (odot(f, f) + owedge(f, f))
    assert total.get(0, 0) == pytest.approx(0.5)


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
    assert (lhs2 - rhs2).is_zero()

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
    def bad_wedge(I, J):
        merged, sign = merge_with_sign(I, J)
        if sign and len(I) == 1 and len(J) == 1:
            sign = -sign
        return merged, sign

    report = verify_identities(SpacetimeSignature(1, 1), wedge_sign_fn=bad_wedge)
    assert not report.passed


def _outcome(report):
    return report.residuals, report.checks, report.passed


@pytest.mark.parametrize("k,n", [(k, n) for k in range(6) for n in range(6) if 1 <= k + n <= 5])
def test_verify_identities_matches_loop_reference(k, n):
    sig = SpacetimeSignature(k, n)
    report = verify_identities(sig)
    assert _outcome(report) == _outcome(reference_verify_identities(sig))
    assert type(report.checks) is int
    assert all(type(v) is float for v in report.residuals.values())


def _flip_vector_wedge(I, J):
    merged, sign = merge_with_sign(I, J)
    return merged, -sign if len(I) == len(J) == 1 else sign


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
        report = verify_identities(sig, wedge_sign_fn=_flip_vector_wedge)
        reference = reference_verify_identities(sig, wedge_sign_fn=_flip_vector_wedge)
    else:
        units, before = _corrupt_table(monkeypatch, sig, name, grades)
        report, reference = verify_identities(sig), reference_verify_identities(sig)
        assert getattr(algebra, name)(*units) == -before != 0
    assert not report.passed
    assert _outcome(report) == _outcome(reference)


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
    s = Multivector.scalar(MINK, 2.0)
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
