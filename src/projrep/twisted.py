"""The complex twisted group algebra: both regular actions, the conjugation
twist, c-regular classes, center, and the Wedderburn block degrees.

Unit-modulus cocycle values make every regular matrix unitary and the
algebra star-closed, so all spectral work happens on Hermitian matrices;
c-regularity is decided exactly, on the algebra's exact cocycle.
``alpha_tilde`` is the one place a conjugation twist is formed, for this
module and for the Clifford steps of reps.py.  Algebras are immutable;
``wedderburn`` is a pure function of (A, seed).

Every random draw of the package, here and in reps.py, comes from
``gaussians``: Box-Muller on the standard library's ``random.Random(seed)``,
whose sequence Python keeps stable across versions.  numpy.random is never
imported; it would add about 6 MB and OpenSSL to each process for a few
hundred draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .cohomology import Cocycle
from .errors import CrossCheckMismatch, DegreeNotIntegral, NumericDegeneracy
from .groups import FiniteGroup, Subgroup, conjugacy_classes
from .tolerances import TOL_DEFECT, TOL_GAP, TOL_UNIT

WEDDERBURN_RETRIES = 5


def gaussians(seed: int, count: int) -> np.ndarray:
    """count complex draws whose real and imaginary parts are independent
    standard normals, a pure function of (seed, count).

    Box-Muller on ``random.Random(seed).random()``: each pair (u, v) of
    uniforms in [0, 1) gives sqrt(-2 ln(1 - u)) exp(2 pi i v).
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        phase = 2.0 * math.pi * rng.random()
        out.append(complex(r * math.cos(phase), r * math.sin(phase)))
    return np.array(out, dtype=np.complex128)


class TwistedAlgebra:
    """C^c G on the basis {g sigma} with g sigma * h sigma = a(g,h) gh sigma.

    ``cocycle`` is the exact cocycle: the one it was built from, or the
    mu_n cocycle of the same class that ``Cocycle.from_units`` rounds a
    complex ``table`` to."""

    def __init__(self, group: FiniteGroup, table: np.ndarray):
        # a copy: _hold freezes the table it keeps, not the caller's
        self._hold(Cocycle.from_units(group, table),
                   np.array(table, dtype=np.complex128))

    @classmethod
    def from_cocycle(cls, c: Cocycle) -> "TwistedAlgebra":
        A = cls.__new__(cls)
        A._hold(c, c.unit_table())
        return A

    def restrict(self, H: Subgroup) -> "TwistedAlgebra":
        """The algebra of H under the restricted cocycle, which is exact, so
        nothing is rounded."""
        A = TwistedAlgebra.__new__(TwistedAlgebra)
        A._hold(self.cocycle.restrict(H),
                self.table[np.ix_(H.elements, H.elements)])
        return A

    def _hold(self, cocycle: Cocycle, table: np.ndarray) -> None:
        self.cocycle, self.group = cocycle, cocycle.group
        self.table = np.ascontiguousarray(table, dtype=np.complex128)
        self.table.setflags(write=False)
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return self.group.order

    def action_matrix(self, v: np.ndarray) -> np.ndarray:
        """Left multiplication by the algebra element with coefficients v."""
        n = self.group.order
        M = np.zeros((n, n), dtype=np.complex128)
        g = np.nonzero(np.abs(v) > 0)[0]
        # column h meets each g in a different row, so no entry sums terms
        M[self.group.mul[g], np.arange(n)] += v[g, None] * self.table[g]
        return M

    def right_action_matrix(self, v: np.ndarray) -> np.ndarray:
        """Right multiplication by the algebra element with coefficients v."""
        n = self.group.order
        M = np.zeros((n, n), dtype=np.complex128)
        g = np.nonzero(np.abs(v) > 0)[0]
        # column h meets each g in a different row, so no entry sums terms
        M[self.group.mul[:, g].T, np.arange(n)] += v[g, None] * self.table[:, g].T
        return M

    def multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        out = np.zeros(self.group.order, dtype=np.complex128)
        g = np.nonzero(np.abs(u) > 0)[0]
        # ufunc.at adds in index order: each entry sums its terms by rising g
        np.add.at(out, self.group.mul[g].ravel(),
                  (u[g, None] * self.table[g] * v).ravel())
        return out

    def star(self, v: np.ndarray) -> np.ndarray:
        """(g sigma)* = conj(a(g, g^-1)) g^-1 sigma, extended antilinearly."""
        n = self.group.order
        inv = self.group.inv
        out = np.zeros(n, dtype=np.complex128)
        g = np.arange(n)
        out[inv] = np.conj(v * self.table[g, inv])
        return out

    def identity_vector(self) -> np.ndarray:
        e = np.zeros(self.group.order, dtype=np.complex128)
        e[0] = 1.0
        return e

    def __repr__(self) -> str:
        return f"TwistedAlgebra({self.group.name})"


def alpha_tilde(A: TwistedAlgebra, x: int | np.ndarray,
                g: int | np.ndarray) -> np.ndarray:
    """The conjugation twist a(x,g) * a(g, x^g)^-1 for index arrays x and g,
    broadcast against each other.

    ``np.multiply`` rounds integer arguments as it rounds arrays; the
    product of two numpy scalars would take the scalar path.
    """
    G = A.group
    xg = G.mul[G.mul[G.inv[g], x], g]
    return np.multiply(A.table[x, g], np.conj(A.table[g, xg]))


@dataclass(frozen=True)
class RegularClassRecord:
    representative: int
    c_regular: bool
    class_sum: np.ndarray


@dataclass(frozen=True)
class RegularClassData:
    records: list[RegularClassRecord]

    @property
    def flags(self) -> list[bool]:
        return [r.c_regular for r in self.records]

    @property
    def regular_count(self) -> int:
        return sum(r.c_regular for r in self.records)

    def regular_representatives(self) -> list[int]:
        return [r.representative for r in self.records if r.c_regular]


def c_regular_classes(A: TwistedAlgebra) -> RegularClassData:
    """Flag each class x exactly: a(x, g) = a(g, x) mod the modulus for
    every g in C_G(x).  The averaged twisted class sum being nonzero is the
    cross-check; disagreement means the algebra data is inconsistent."""
    if "c_regular" in A._cache:
        return A._cache["c_regular"]
    G = A.group
    t, m = A.cocycle.table, A.cocycle.modulus
    g = np.arange(G.order)
    records = []
    for cls in conjugacy_classes(G):
        x = cls.representative
        xg = G.mul[G.mul[G.inv[g], x], g]
        vec = np.zeros(G.order, dtype=np.complex128)
        np.add.at(vec, xg, alpha_tilde(A, x, g))
        vec /= cls.centralizer_order
        cent = np.nonzero(G.mul[:, x] == G.mul[x, :])[0]
        regular = not np.any((t[x, cent] - t[cent, x]) % m)
        if regular != bool(np.max(np.abs(vec)) > TOL_UNIT):
            raise CrossCheckMismatch(
                f"class-sum and centralizer criteria disagree at x={x}")
        records.append(RegularClassRecord(representative=x, c_regular=regular,
                                          class_sum=vec))
    data = RegularClassData(records=records)
    if not data.records[0].c_regular:
        raise CrossCheckMismatch("identity class must be c-regular")
    A._cache["c_regular"] = data
    return data


def center_basis(A: TwistedAlgebra) -> list[np.ndarray]:
    """The nonzero twisted class sums; dimension verified independently."""
    if "center" in A._cache:
        return A._cache["center"]
    data = c_regular_classes(A)
    vecs = [r.class_sum for r in data.records if r.c_regular]
    dim = _center_dimension(A)
    if dim != len(vecs):
        raise CrossCheckMismatch(
            f"center dimension {dim} != {len(vecs)} regular class sums")
    A._cache["center"] = vecs
    return vecs


def _center_dimension(A: TwistedAlgebra) -> int:
    """dim of {z : z commutes with every generator's regular action}."""
    G = A.group
    gens = G.gen_set()
    if not gens:
        return G.order
    e = np.eye(G.order, dtype=np.complex128)
    stacks = [A.action_matrix(e[g]) - A.right_action_matrix(e[g]) for g in gens]
    M = np.concatenate(stacks, axis=0)
    s = np.linalg.svd(M, compute_uv=False)
    scale = max(1.0, float(s[0])) if s.size else 1.0
    return int(np.sum(s < TOL_GAP * scale)) + G.order - len(s)


@dataclass(frozen=True)
class WedderburnData:
    """``images[i]`` is an orthonormal basis of the block that
    ``idempotents[i]`` cuts out of the regular module; ``degrees`` are
    sorted."""

    idempotents: list[np.ndarray]
    images: list[np.ndarray]
    degrees: list[int]
    residual: float
    seed: int


def wedderburn(A: TwistedAlgebra, seed: int = 0) -> WedderburnData:
    """Central primitive idempotents and block degrees of C^c G.

    A random Hermitian central element is diagonalized on the regular
    module; eigenvalue clusters give the spectral projectors, and each
    degree is sqrt(rank).  Retries with fresh seeds on degeneracy, raises
    DegreeNotIntegral if a rank fails integer certification.
    """
    key = ("wedderburn", seed)
    if key in A._cache:
        return A._cache[key]
    n = A.group.order
    center = center_basis(A)
    dim = len(center)
    last_error = None
    for attempt in range(WEDDERBURN_RETRIES):
        coeff = gaussians(seed + 7919 * attempt, dim)
        z = np.zeros(n, dtype=np.complex128)
        for c, vec in zip(coeff, center):
            z += c * vec
        z = z + A.star(z)
        Z = A.action_matrix(z)
        herm_defect = np.max(np.abs(Z - Z.conj().T))
        if herm_defect > TOL_DEFECT:
            raise CrossCheckMismatch("regular action of z + z* is not Hermitian")
        evals, evecs = np.linalg.eigh(Z)
        spread = max(evals[-1] - evals[0], 1.0)
        clusters = _cluster(evals, TOL_GAP * spread)
        if len(clusters) != dim:
            last_error = NumericDegeneracy(
                f"{len(clusters)} eigenvalue clusters for center of dim {dim}")
            continue
        idempotents = []
        images = []
        degrees = []
        for idx in clusters:
            rank = len(idx)
            d = math.isqrt(rank)
            if d * d != rank:
                raise DegreeNotIntegral(
                    f"block rank {rank} is not a perfect square")
            degrees.append(d)
            # the spectral projector of Z onto a cluster is left
            # multiplication by that block's central idempotent
            V = evecs[:, idx[0]:idx[-1] + 1]
            images.append(V)
            # e = V V^H applied to 1 sigma, the projector's first column
            idempotents.append(V @ V[0].conj())
        if sum(d * d for d in degrees) != n:
            raise DegreeNotIntegral("block degrees violate the degree formula")
        residual = _idempotent_residual(A, idempotents)
        if residual > TOL_DEFECT:
            last_error = NumericDegeneracy(
                f"idempotent defect {residual:.2e}")
            continue
        data = WedderburnData(idempotents=idempotents, images=images,
                              degrees=sorted(degrees),
                              residual=float(residual), seed=seed)
        A._cache[key] = data
        return data
    raise last_error or NumericDegeneracy("wedderburn failed")


def _cluster(evals: np.ndarray, gap: float) -> list[list[int]]:
    clusters = [[0]]
    for i in range(1, evals.size):
        if evals[i] - evals[i - 1] < gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _idempotent_residual(A: TwistedAlgebra, idempotents: list[np.ndarray]) -> float:
    worst = 0.0
    total = np.zeros(A.group.order, dtype=np.complex128)
    for e in idempotents:
        ee = A.multiply(e, e)
        worst = max(worst, float(np.max(np.abs(ee - e))))
        total += e
    worst = max(worst, float(np.max(np.abs(total - A.identity_vector()))))
    return worst
