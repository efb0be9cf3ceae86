"""Exact combinatorial and metric operations on graded multivectors.

Everything here is built on flat (k, n) space-time: the first ``k`` canonical
axes are time-like (squared norm -1), the remaining ``n`` are space-like
(squared norm +1).  A grade-m multivector is a sparse association from
strictly increasing index lists of length m to real or complex coefficients.
Coefficients keep their Python numeric type, so computations done with
integers stay exact.

Every product reads one cached table per signature: the result blade and the
integer sign of the wedge and the two interior products on each ordered pair
of unit blades, and the metric diagonal of the dot product, built once from
blade bitmasks.  The exhaustive identity suite certifies those sign tables,
in exact integer arithmetic, so its residuals are zero rather than float dust.
Every dense table of the wedge or an interior product, over the unit blades
of two grades, comes from one cached function, ``_product_table``, that
fills it through those certified products; the other modules' derivative,
force and classical-bridge tables are slices of it.  The two quadratic
product bitensors read one cached table per signature and grade, contracted
from it.

All values are immutable after construction and every operation is a pure
function, so the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "SpacetimeSignature",
    "Multivector",
    "Bitensor",
    "GradeError",
    "SignatureError",
    "IdentityReport",
    "dot",
    "wedge",
    "left_interior",
    "right_interior",
    "hodge",
    "inv_hodge",
    "cross",
    "vec_interior_bitensor",
    "odot",
    "owedge",
    "verify_identities",
]

# Relative threshold below which coefficients are dropped after an operation.
PRUNE_REL = 1e-14

# verify_identities refuses to enumerate beyond this many dimensions.
IDENTITY_DIM_CAP = 6


class GradeError(ValueError):
    """Operands have incompatible grades for the requested operation."""


class SignatureError(ValueError):
    """Operands live in different (k, n) space-times."""


@dataclass(frozen=True)
class SpacetimeSignature:
    """Flat metric with k time axes (norm -1) and n space axes (norm +1)."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 0 or self.n < 0 or self.k + self.n < 1:
            raise ValueError(f"need k >= 0, n >= 0, k + n >= 1, got ({self.k}, {self.n})")

    @property
    def dim(self) -> int:
        return self.k + self.n

    def metric(self, i: int) -> int:
        """Diagonal metric entry for axis i: -1 time-like, +1 space-like."""
        if not 0 <= i < self.dim:
            raise IndexError(f"axis {i} out of range for dimension {self.dim}")
        return -1 if i < self.k else 1

    def metric_list(self, indices: Iterable[int]) -> int:
        """Product of metric entries over an index list (the Delta_II factor)."""
        sign = 1
        for i in indices:
            sign *= self.metric(i)
        return sign

    def axes(self) -> range:
        return range(self.dim)

    def index_lists(self, grade: int) -> Iterator[tuple[int, ...]]:
        """All strictly increasing index lists of the given grade."""
        return combinations(range(self.dim), grade)


def _reorder_sign(A: np.ndarray, B: np.ndarray, dim: int) -> np.ndarray:
    """Sign of the canonical reordering of e_A e_B, elementwise over blade
    bitmasks: -1 to the number of pairs i in A, j in B with i > j."""
    parity = above = 0
    for j in reversed(range(dim)):
        parity = parity + (B >> j & 1) * above
        above = above + (A >> j & 1)
    return 1 - 2 * (parity & 1)


@dataclass(frozen=True, eq=False)
class _SignTables:
    """Read-only unit-blade products of one signature, blades in grade order
    (the scalar at position 0, the vectors at 1..dim): ``product(e_a, e_b) =
    C[a, b] e_{K[a, b]}`` for the wedge (Kw, Cw), the left interior (Kl, Cl)
    and the right interior (Kr, Cr), a zero product stored as (0, 0), and the
    metric diagonal ``D[a, b] = e_a . e_b``."""

    blades: tuple
    Kw: np.ndarray
    Cw: np.ndarray
    Kl: np.ndarray
    Cl: np.ndarray
    Kr: np.ndarray
    Cr: np.ndarray
    D: np.ndarray
    _lookup: dict = field(default_factory=dict, init=False, repr=False)

    def lookup(self, product: str) -> dict:
        """Python rows of one product, built on its first use: for "w", "l"
        or "r", ``{I: {J: (K, c)}}`` over the nonzero entries; for "dot",
        ``{I: Delta_II}``."""
        rows = self._lookup.get(product)
        if rows is None:
            blades = self.blades
            if product == "dot":
                rows = dict(zip(blades, np.diagonal(self.D).tolist()))
            else:
                K, C = getattr(self, "K" + product).tolist(), getattr(self, "C" + product).tolist()
                rows = {I: {blades[b]: (blades[k], c) for b, (k, c) in enumerate(zip(Ka, Ca)) if c}
                        for I, Ka, Ca in zip(blades, K, C)}
            self._lookup[product] = rows
        return rows


@lru_cache(maxsize=None)
def _sign_tables(sig: SpacetimeSignature) -> _SignTables:
    """The signature's unit-blade products from integer bit operations on
    blade bitmasks: e_I ^ e_J = sigma(I, J) e_{I+J} when I and J are
    disjoint, e_I lint e_J = Delta_II sigma(J\\I, I) e_{J\\I} when I is in J,
    and e_I rint e_J = Delta_JJ sigma(J, I\\J) e_{I\\J} when J is in I."""
    dim = sig.dim
    blades = tuple(I for m in range(dim + 1) for I in sig.index_lists(m))
    masks = np.array([sum(1 << i for i in I) for I in blades])
    position = np.empty(len(blades), dtype=np.int8 if len(blades) <= 128 else np.int16)
    position[masks] = np.arange(len(blades))
    metric = (-1) ** sum((masks >> i & 1 for i in range(sig.k)), np.zeros_like(masks))
    A, B = masks[:, None], masks[None, :]
    rest = A ^ B
    tables = []
    # where each product is nonzero, its blade and its sign: wedge, left, right
    for nonzero, blade, sign in (((A & B) == 0, A | B, _reorder_sign(A, B, dim)),
                                 ((A & B) == A, rest, metric[:, None] * _reorder_sign(rest, A, dim)),
                                 ((A & B) == B, rest, metric[None, :] * _reorder_sign(B, rest, dim))):
        tables += [np.where(nonzero, position[blade], 0).astype(position.dtype),
                   np.where(nonzero, sign, 0).astype(np.int8)]
    tables.append(np.diag(metric).astype(np.int8))
    for table in tables:
        table.flags.writeable = False
    return _SignTables(blades, *tables)


class Multivector:
    """Fixed-grade element of the exterior algebra over a (k, n) space-time.

    Stored as a sparse map from strictly increasing index tuples to nonzero
    coefficients.  Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("signature", "grade", "terms")

    def __init__(self, signature: SpacetimeSignature, grade: int,
                 terms: dict[tuple[int, ...], complex] | Iterable[tuple[tuple[int, ...], complex]] = ()):
        if not 0 <= grade <= signature.dim:
            raise GradeError(f"grade {grade} out of range for dimension {signature.dim}")
        items = terms.items() if isinstance(terms, dict) else terms
        collected: dict[tuple[int, ...], complex] = {}
        for indices, coeff in items:
            indices = tuple(indices)
            if len(indices) != grade:
                raise GradeError(f"index list {indices} does not match grade {grade}")
            if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
                raise ValueError(f"index list {indices} is not strictly increasing")
            if indices and not 0 <= indices[0] <= indices[-1] < signature.dim:
                raise IndexError(f"index list {indices} out of range for dimension {signature.dim}")
            if coeff != 0:
                collected[indices] = collected.get(indices, 0) + coeff
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "terms", _prune(collected))

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def _from_valid(cls, signature: SpacetimeSignature, grade: int,
                    terms: dict[tuple[int, ...], complex]) -> "Multivector":
        """Build from index lists already known to be valid for this grade,
        such as those of existing operands: only the pruning is redone."""
        out = object.__new__(cls)
        object.__setattr__(out, "signature", signature)
        object.__setattr__(out, "grade", grade)
        object.__setattr__(out, "terms", _prune(terms))
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: SpacetimeSignature, grade: int) -> "Multivector":
        return cls(signature, grade)

    @classmethod
    def scalar(cls, signature: SpacetimeSignature, value: complex) -> "Multivector":
        return cls(signature, 0, {(): value})

    @classmethod
    def blade(cls, signature: SpacetimeSignature, indices: Iterable[int], coeff: complex = 1) -> "Multivector":
        indices = tuple(indices)
        return cls(signature, len(indices), {indices: coeff})

    @classmethod
    def vector(cls, signature: SpacetimeSignature, components: Iterable[complex]) -> "Multivector":
        comps = list(components)
        if len(comps) != signature.dim:
            raise ValueError(f"expected {signature.dim} components, got {len(comps)}")
        return cls(signature, 1, {(i,): c for i, c in enumerate(comps) if c != 0})

    @classmethod
    def from_row(cls, signature: SpacetimeSignature, grade: int, row) -> "Multivector":
        """The multivector whose components, in ``index_lists(grade)`` order,
        are one dense row (an array or a list); zero components are absent."""
        return cls._from_valid(signature, grade, dict(zip(signature.index_lists(grade),
                                                          np.asarray(row).tolist())))

    # -- basic queries -----------------------------------------------------

    def row(self) -> np.ndarray:
        """The components as one dense row in ``index_lists(grade)`` order."""
        return np.array([self.terms.get(idx, 0) for idx in self.signature.index_lists(self.grade)])

    def coeff(self, indices: Iterable[int]) -> complex:
        return self.terms.get(tuple(indices), 0)

    def vector_components(self) -> list[complex]:
        if self.grade != 1:
            raise GradeError("vector_components requires grade 1")
        return [self.terms.get((i,), 0) for i in self.signature.axes()]

    def scalar_value(self) -> complex:
        if self.grade != 0:
            raise GradeError("scalar_value requires grade 0")
        return self.terms.get((), 0)

    def max_abs(self) -> float:
        return _max_abs(self.terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multivector) and self.signature == other.signature
                and self.grade == other.grade and self.terms == other.terms)

    def __hash__(self):
        return hash((self.signature, self.grade, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for indices in sorted(self.terms):
                label = "e_" + "".join(map(str, indices)) if indices else "1"
                parts.append(f"{self.terms[indices]!r}*{label}")
            body = " + ".join(parts)
        return f"<Multivector grade={self.grade} ({self.signature.k},{self.signature.n}) {body}>"

    # -- linear structure ----------------------------------------------------

    def _check_same_space(self, other: "Multivector"):
        if self.signature != other.signature:
            raise SignatureError(f"signatures differ: {self.signature} vs {other.signature}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same_space(other)
        if self.grade != other.grade:
            if not self.terms:
                return other
            if not other.terms:
                return self
            raise GradeError(f"cannot add grades {self.grade} and {other.grade}")
        merged = dict(self.terms)
        for idx, c in other.terms.items():
            merged[idx] = merged.get(idx, 0) + c
        return Multivector._from_valid(self.signature, self.grade, merged)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._from_valid(self.signature, self.grade, {i: -c for i, c in self.terms.items()})

    def __mul__(self, factor: complex) -> "Multivector":
        if isinstance(factor, Multivector):
            return NotImplemented
        return Multivector._from_valid(self.signature, self.grade,
                                       {i: c * factor for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, factor: complex) -> "Multivector":
        return self * (1.0 / factor)

    def conjugate(self) -> "Multivector":
        """Complex conjugation of the coefficients (never applied implicitly)."""
        return Multivector(self.signature, self.grade,
                           {i: c.conjugate() if isinstance(c, complex) else c for i, c in self.terms.items()})

    # -- products ------------------------------------------------------------

    def __xor__(self, other: "Multivector") -> "Multivector":
        return wedge(self, other)


def _prune(terms: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """Drop exact zeros and coefficients below PRUNE_REL of the largest one.

    Fails closed: a NaN or infinite coefficient is never dropped, and while one
    is present no relative cut is made, so it reaches every check downstream.
    """
    if not terms:
        return {}
    mags = _magnitudes(terms.values())
    cut = PRUNE_REL * max(mags) if math.isfinite(sum(mags)) else 0.0
    # with a cut every magnitude is finite, so abs() cannot overflow
    return {i: c for i, c in sorted(terms.items()) if c != 0 and not (cut and abs(c) < cut)}


def _magnitudes(values) -> list:
    """abs() of each value, with inf where abs() raises OverflowError: a
    complex whose finite parts give a magnitude beyond the float range.

    ``values`` is read a second time after an overflow, so it must be a
    collection or a dict view, not an iterator. The hypot route runs only
    then because it is about twice as slow as abs() on a few terms."""
    try:
        return [abs(c) for c in values]
    except OverflowError:
        return [math.hypot(c.real, c.imag) if isinstance(c, complex) else abs(c) for c in values]


def _max_abs(values) -> float:
    """Largest magnitude, NaN when any value is NaN.

    The builtin max() keeps a NaN only when it comes first.
    """
    mags = _magnitudes(values)
    return math.nan if math.isnan(sum(mags)) else max(mags, default=0.0)


def dot(u: Multivector, v: Multivector) -> complex:
    """Metric dot product of equal-grade multivectors; bilinear, no conjugation."""
    u._check_same_space(v)
    if u.grade != v.grade:
        raise GradeError(f"dot requires equal grades, got {u.grade} and {v.grade}")
    metric = _sign_tables(u.signature).lookup("dot")
    first, second = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
    total: complex = 0
    for indices, c in first.terms.items():
        other = second.terms.get(indices)
        if other is not None:
            total += c * other * metric[indices]
    return total


def _table_product(product: str, u: Multivector, v: Multivector, grade: int) -> Multivector:
    """The sum of c a b e_K over the terms a e_I of u and b e_J of v, u's in
    the outer loop, (K, c) the sign-table entry of ``product`` on (I, J)."""
    rows = _sign_tables(u.signature).lookup(product)
    out: dict[tuple[int, ...], complex] = {}
    for I, a in u.terms.items():
        row = rows[I]
        for J, b in v.terms.items():
            if J in row:
                K, sign = row[J]
                out[K] = out.get(K, 0) + sign * a * b
    return Multivector._from_valid(u.signature, grade, out)


def wedge(u: Multivector, v: Multivector) -> Multivector:
    """Exterior product; grade adds, zero on overlapping index lists."""
    u._check_same_space(v)
    if u.grade + v.grade > u.signature.dim:
        return Multivector.zero(u.signature, 0)
    return _table_product("w", u, v, u.grade + v.grade)


def left_interior(u: Multivector, v: Multivector) -> Multivector:
    """Left interior product u into v; lowers grade to gr(v) - gr(u):
    e_I with e_J gives Delta_II sigma(J\\I, I) e_{J\\I}."""
    u._check_same_space(v)
    if u.grade > v.grade:
        return Multivector.zero(u.signature, 0)
    return _table_product("l", u, v, v.grade - u.grade)


def right_interior(u: Multivector, v: Multivector) -> Multivector:
    """Right interior product: e_I with e_J gives Delta_JJ sigma(J, I\\J) e_{I\\J}."""
    u._check_same_space(v)
    if v.grade > u.grade:
        return Multivector.zero(u.signature, 0)
    return _table_product("r", u, v, u.grade - v.grade)


def hodge(v: Multivector) -> Multivector:
    """Hodge complement, the right interior product of the volume blade with v:
    e_I maps to Delta_II sigma(I, I^c) e_{I^c}."""
    sig = v.signature
    return right_interior(Multivector.blade(sig, sig.axes()), v)


def inv_hodge(v: Multivector) -> Multivector:
    """Inverse Hodge complement, (-1)^k times the left interior product of v with
    the volume blade: e_I maps to Delta_{I^c I^c} sigma(I^c, I) e_{I^c}."""
    sig = v.signature
    return (-1) ** sig.k * left_interior(v, Multivector.blade(sig, sig.axes()))


def cross(u: Multivector, v: Multivector) -> Multivector:
    """Cross product of grade-1 multivectors in three dimensions."""
    if u.signature.dim != 3:
        raise ValueError("cross product requires a three-dimensional space-time")
    return inv_hodge(wedge(u, v))


class Bitensor:
    """Symmetric rank-2 object with components T_ij on the basis u_ij.

    Stored sparsely on ordered pairs i <= j; lookup is symmetric.  Immutable.
    """

    __slots__ = ("signature", "comps")

    def __init__(self, signature: SpacetimeSignature,
                 comps: dict[tuple[int, int], complex] | Iterable[tuple[tuple[int, int], complex]] = ()):
        items = comps.items() if isinstance(comps, dict) else comps
        collected: dict[tuple[int, int], complex] = {}
        for (i, j), value in items:
            if not (0 <= i < signature.dim and 0 <= j < signature.dim):
                raise IndexError(f"component ({i}, {j}) out of range for dimension {signature.dim}")
            key = (i, j) if i <= j else (j, i)
            if value != 0:
                collected[key] = collected.get(key, 0) + value
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "comps", _prune(collected))

    def __setattr__(self, name, value):
        raise AttributeError("Bitensor is immutable")

    @classmethod
    def from_row(cls, signature: SpacetimeSignature, row) -> "Bitensor":
        """The bitensor whose components T_ij, pairs i <= j in
        ``combinations_with_replacement`` order, are one dense row."""
        return cls(signature, zip(combinations_with_replacement(signature.axes(), 2),
                                  np.asarray(row).tolist()))

    def row(self) -> np.ndarray:
        """The components T_ij as one dense row, pairs i <= j in
        ``combinations_with_replacement`` order."""
        pairs = combinations_with_replacement(self.signature.axes(), 2)
        return np.array([self.get(i, j) for i, j in pairs])

    def get(self, i: int, j: int) -> complex:
        key = (i, j) if i <= j else (j, i)
        return self.comps.get(key, 0)

    def max_abs(self) -> float:
        return _max_abs(self.comps.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Bitensor) and self.signature == other.signature
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.signature, tuple(sorted(self.comps.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"T{i}{j}={c!r}" for (i, j), c in sorted(self.comps.items())) or "0"
        return f"<Bitensor ({self.signature.k},{self.signature.n}) {body}>"


@lru_cache(maxsize=None)
def _product_table(sig: SpacetimeSignature, product: str, u_grade: int, v_grade: int) -> np.ndarray:
    """``P[a, b, c]``: component c of ``product(e_a, e_b)`` over the unit
    blades a of ``u_grade``, b of ``v_grade`` and c of the product's grade,
    each in ``index_lists`` order, for ``product`` "w" (``wedge``), "l"
    (``left_interior``) or "r" (``right_interior``), filled by that public
    product on every unit-blade pair.  A product that leaves the grade range
    has no columns.  Dense rows u and v of the operand grades give
    ``product(u, v)`` as ``einsum("abc,a,b->c", P, u, v)``."""
    fn, out = {"w": (wedge, u_grade + v_grade), "l": (left_interior, v_grade - u_grade),
               "r": (right_interior, u_grade - v_grade)}[product]
    us = [Multivector.blade(sig, idx) for idx in sig.index_lists(u_grade)]
    vs = [Multivector.blade(sig, idx) for idx in sig.index_lists(v_grade)]
    shape = (len(us), len(vs), math.comb(sig.dim, out) if out >= 0 else 0)
    rows = [[fn(u, v).row() for v in vs] for u in us] if 0 <= out <= sig.dim else []
    table = np.array(rows, dtype=float).reshape(shape)
    # cached and shared by every caller
    table.flags.writeable = False
    return table


def vec_interior_bitensor(a: Multivector, t: Bitensor) -> Multivector:
    """Interior product of a grade-1 multivector with a bitensor.

    Bilinear extension of e_i into u_jk: e_j Delta_ii when i = k, e_k Delta_ii
    when i = j, their common value e_i Delta_ii on the diagonal.
    """
    if a.signature != t.signature:
        raise SignatureError("signatures differ")
    if a.grade != 1:
        raise GradeError("vec_interior_bitensor requires a grade-1 multivector")
    sig = a.signature
    out: dict[tuple[int, ...], complex] = {}
    for (h,), coeff in a.terms.items():
        delta = sig.metric(h)
        for (i, j), value in t.comps.items():
            if h == j:
                out[(i,)] = out.get((i,), 0) + delta * coeff * value
            if h == i and i != j:
                out[(j,)] = out.get((j,), 0) + delta * coeff * value
    return Multivector(sig, 1, out)


def odot(f: Multivector, g: Multivector) -> Bitensor:
    """Interior-product bitensor with ordered components
    (1/2) Delta_ii Delta_jj (e_i interior f) . (g interior e_j), symmetrised.

    The two-argument form is what the Fourier-domain flux derivation consumes;
    with f == g the symmetrisation is the identity.  Complex arguments are not
    conjugated; the caller conjugates explicitly where needed.
    """
    return _table_bitensor(_quadratic_table(f.signature, f.grade, "odot"), f, g)


def owedge(f: Multivector, g: Multivector) -> Bitensor:
    """Exterior-product bitensor with ordered components
    (1/2) Delta_ii Delta_jj (e_i wedge f) . (g wedge e_j), symmetrised."""
    return _table_bitensor(_quadratic_table(f.signature, f.grade, "owedge"), f, g)


def _table_bitensor(table: np.ndarray, f: Multivector, g: Multivector) -> Bitensor:
    """The bitensor sum_ab C[p, a, b] f_a g_b of a ``_quadratic_table``-shaped
    table C, at one pair of equal-grade values."""
    f._check_same_space(g)
    if f.grade != g.grade:
        raise GradeError(f"bitensor products require equal grades, got {f.grade} and {g.grade}")
    return Bitensor.from_row(f.signature, np.einsum("pab,a,b->p", table, f.row(), g.row()))


@lru_cache(maxsize=None)
def _quadratic_table(sig: SpacetimeSignature, grade: int, kind: str) -> np.ndarray:
    """``C[p, a, b]``: component p (pairs i <= j in
    ``combinations_with_replacement`` order) of the ``kind`` bitensor of unit
    blades a and b of ``grade`` (``index_lists`` order).

    tau_ij[a, b] = sum_K L[i, a, K] R[b, j, K] Delta_KK, with L the
    ``_product_table`` of ``left_interior`` on (e_i, e_a) and R that of
    ``right_interior`` on (e_b, e_j) for "odot" (of ``wedge`` on both for
    "owedge"), and C at (i, j) is
    (1/4) Delta_ii Delta_jj (tau_ij + tau_ji): exact multiples of 1/4, zeros +0.0.
    """
    left, right, step = {"odot": ("l", "r", -1), "owedge": ("w", "w", 1)}[kind]
    out, ncomp = grade + step, math.comb(sig.dim, grade)
    tau = np.zeros((sig.dim, sig.dim, ncomp, ncomp))
    # a product out of the grade range is zero
    if 0 <= out <= sig.dim:
        metric = np.array([sig.metric_list(idx) for idx in sig.index_lists(out)])
        tau = np.einsum("iaK,bjK->ijab", _product_table(sig, left, 1, grade) * metric,
                        _product_table(sig, right, grade, 1))
    delta = np.array([sig.metric(i) for i in sig.axes()])
    i, j = np.triu_indices(sig.dim)
    table = 0.25 * (delta[i] * delta[j])[:, None, None] * (tau[i, j] + tau[j, i]) + 0.0
    # cached and shared by every caller
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Exhaustive identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the exhaustive basis-blade identity suite for one (k, n)."""

    signature: SpacetimeSignature
    residuals: dict[str, float]
    checks: int
    passed: bool

    @property
    def max_residual(self) -> float:
        return _worst(list(self.residuals.values()))


def _worst(values) -> float:
    """Largest magnitude, 0 when empty; NaN when any value is NaN, so it fails."""
    return float(np.abs(values).max(initial=0))


def _gap(lhs, *rhs) -> float:
    """Largest |coefficient| of the term lhs minus the sum of the rhs terms, each
    a pair of broadcastable arrays (blade positions, coefficients), one blade per
    grid element.  A blade's coefficient sums the element's terms on it, with one
    comparison per pair of terms; ``np.maximum`` folds the magnitudes, keeping NaN."""
    terms = [lhs, *((K, -C) for K, C in rhs)]
    sums = [C for _, C in terms]
    for (i, (Ki, Ci)), (j, (Kj, Cj)) in combinations(enumerate(terms), 2):
        same = Ki == Kj
        sums[i], sums[j] = sums[i] + np.where(same, Cj, 0), sums[j] + np.where(same, Ci, 0)
    return _worst(reduce(np.maximum, map(np.abs, sums)))


@lru_cache(maxsize=None)
def _suite_grids(dim: int) -> tuple:
    """The suite's read-only arrays that depend on the dimension alone: the
    wedge skew and interior transpose signs on blade pairs, as int16 (exact for
    sums of int8 table products); per grid, the flat indices of its lookups on
    basis vectors and blades, its row offsets and columns, and (-1)^grade."""
    grade = np.repeat(np.arange(dim + 1, dtype=np.int16), [math.comb(dim, r) for r in range(dim + 1)])
    gu, gv, sign, N = grade[:, None], grade, (-1) ** grade, len(grade)
    (W, Wp), (V, U), vec = np.nonzero(gu == gv), np.nonzero(gu + 1 == gv), np.arange(1, dim + 1)
    v3, v2, B = vec[:, None, None], vec[:, None], np.arange(N)[:, None]
    vjW, Wpvj = v2 * N + W, Wp * N + v2
    grids = ((-1) ** (gu * gv), (-1) ** (gu * (gu + gv)),
             # vi (dim, 1, 1), vj (dim, 1), and the pairs W, Wp of grades (r, r) on the last axis
             (vjW[:, None], Wpvj, vjW, Wpvj[:, None], W * N + Wp, v3 * N + v2, sign[W]),
             # vi (dim, 1, 1), every blade W (N, 1), vj (dim,)
             (v3 * N + B, B * N + vec, vec * N + B, v3 * N + vec, v3 * N, vec * N, vec, B, sign[B]),
             # vi (dim, 1), and the pairs V, U of grades (r - 1, r) on the last axis
             (v2 * N + V, U * N + v2, V * N + U, v2 * N, V * N, U))
    for array in (*grids[:2], *grids[2], *grids[3], *grids[4]):
        array.flags.writeable = False
    return grids


@np.errstate(invalid="ignore")  # 0 * inf and inf - inf give the NaN that fails the run
def verify_identities(sig: SpacetimeSignature, tol: float = 0.0, max_dim: int = IDENTITY_DIM_CAP,
                      tables: _SignTables | None = None) -> IdentityReport:
    """Exhaustively check the product identities over every basis blade.

    Covers skew-commutativity of the wedge, the left/right interior relation,
    the wedge/interior dot expansion, double-interior associativity and
    antisymmetry, the interior-of-wedge expansion, and the triple-product
    equalities.  Each identity is gathers, over one grid of the blades it
    quantifies over (all grades at once), from the signature's sign tables: the
    integer arrays that ``wedge``, ``left_interior``, ``right_interior`` and
    ``dot`` read.  So the suite certifies the tables the package calls through,
    and ``hodge`` and ``inv_hodge``, interior products with the volume blade,
    with them.  Residuals are exact integers; a NaN or infinite coefficient
    fails the run.  The tables are read on every call: the flat indices of the
    lookups on basis vectors and grid blades are cached per dimension, those on
    a blade read from a table are computed per call.  ``tables`` replaces the
    sign tables, so a self-test can hand in a corrupted copy.
    """
    if sig.dim > max_dim:
        raise ValueError(
            f"identity suite refused: dimension {sig.dim} exceeds cap {max_dim}; raise max_dim explicitly")
    tables = _sign_tables(sig) if tables is None else tables
    size, (skew, transpose, pairs, blades, steps) = len(tables.blades), _suite_grids(sig.dim)

    # wedge skew-commutativity and interior transpose, over all blade pairs
    residuals = {"wedge_skew": _gap((tables.Kw, tables.Cw), (tables.Kw.T, skew * tables.Cw.T)),
                 "interior_transpose": _gap((tables.Kl, tables.Cl), (tables.Kr.T, transpose * tables.Cr.T))}
    Kw, Cw, Kl, Cl, Kr, Cr, D = (getattr(tables, name).ravel() for name in "Kw Cw Kl Cl Kr Cr D".split())
    def at(rows, cols):  # the flat index of a lookup on a blade read from a table
        return np.multiply(rows, size, dtype=np.intp) + cols

    # basis vectors vi, vj and blades W, Wp of one grade r, all grades at once:
    # (vi ^ W) . (Wp ^ vj) = (-1)^r (vi . vj)(W . Wp) + (vj lint W) . (Wp rint vi)
    viW, Wpvj, vjW, Wpvi, WWp, vivj, sign = pairs
    residuals["wedge_dot_expansion"] = _worst(
        D[at(Kw[viW], Kw[Wpvj])] * Cw[viW] * Cw[Wpvj] - sign * D[WWp] * D[vivj]
        - D[at(Kl[vjW], Kr[Wpvi])] * Cl[vjW] * Cr[Wpvi])

    # basis vectors vi, vj and a blade W of every grade r
    viW, Wvj, vjW, vivj, viN, vjN, vj, W, sign = blades
    Li, ci = Kl[viW], Cl[viW]
    # vi lint (W rint vj) = (vi lint W) rint vj
    vi_K, Li_vj = viN + Kr[Wvj], at(Li, vj)
    residuals["double_interior_assoc"] = _gap((Kl[vi_K], Cl[vi_K] * Cr[Wvj]), (Kr[Li_vj], Cr[Li_vj] * ci))
    # vi lint (vj lint W) = -vj lint (vi lint W)
    vi_Lj, vj_Li = viN + Kl[vjW], vjN + Li
    residuals["double_interior_antisym"] = _gap((Kl[vi_Lj], Cl[vi_Lj] * Cl[vjW]), (Kl[vj_Li], -Cl[vj_Li] * ci))
    # vi lint (vj ^ W) = (-1)^r (vi . vj) W + vj ^ (vi lint W)
    vi_K = viN + Kw[vjW]
    residuals["interior_of_wedge"] = _gap((Kl[vi_K], Cl[vi_K] * Cw[vjW]), (W, sign * D[vivj]),
                                          (Kw[vj_Li], Cw[vj_Li] * ci))

    # basis vector vi, V of grade r - 1, U of grade r: (vi ^ V) . U = V . (U rint vi) = vi . (V lint U)
    viV, Uvi, VU, viN, VN, U = steps
    lhs = D[at(Kw[viV], U)] * Cw[viV]
    residuals["triple_product"] = _worst([lhs - D[VN + Kr[Uvi]] * Cr[Uvi], lhs - D[viN + Kl[VU]] * Cl[VU]])

    # one check per element of each grid above, the triple product's counting twice
    checks = 2 * size ** 2 + sig.dim ** 2 * (3 * size + len(WWp)) + 2 * sig.dim * len(VU)
    return IdentityReport(sig, residuals, checks, all(v <= tol for v in residuals.values()))
