"""Explicit projective representations and the Clifford toolkit.

Representations are unitary matrices per group element over a unit-modulus
cocycle table.  Isomorphism always means Hom dimension one, read off the
characters by ``hom_dim``; similarity classes are never compared by matrix
equality.  Conjugation twists come from ``twisted.alpha_tilde`` and the
right regular action from the algebra, so every product of cocycle values
has numpy's array rounding.  All values are immutable and safe to share;
randomized splits are pure in (input, seed): their Gaussian draws come from
``twisted.gaussians``, the standard library's ``random.Random(seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CocycleMismatch,
    CrossCheckMismatch,
    FactorizationFailure,
    InertiaMismatch,
    NotNormal,
    NumericDegeneracy,
    PhaseInstability,
)
from .groups import (
    FiniteGroup,
    Quotient,
    Subgroup,
    conjugacy_classes,
    quotient_group,
    sorted_unique,
)
from .tolerances import TOL_CHECK, TOL_DEFECT, TOL_GAP, TOL_UNITARY
from .twisted import (
    RegularClassData,
    TwistedAlgebra,
    _cluster,
    alpha_tilde,
    c_regular_classes,
    gaussians,
    wedderburn,
)

SPLIT_RETRIES = 5


class ProjRep:
    """A unitary projective representation: phi(x) phi(y) = a(x,y) phi(xy)."""

    def __init__(self, group: FiniteGroup, table: np.ndarray, matrices: np.ndarray,
                 check: bool = True):
        self.group = group
        self.table = np.ascontiguousarray(np.asarray(table, dtype=np.complex128))
        self.matrices = np.ascontiguousarray(np.asarray(matrices,
                                                        dtype=np.complex128))
        if self.matrices.shape[0] != group.order:
            raise ValueError("one matrix per group element required")
        self.degree = int(self.matrices.shape[1])
        if check:
            self._validate()
        self.table.setflags(write=False)
        self.matrices.setflags(write=False)

    def _validate(self) -> None:
        eye = np.eye(self.degree)
        if np.max(np.abs(self.matrices[0] - eye)) > TOL_DEFECT:
            raise ValueError("phi(1) is not the identity")
        M = self.matrices
        resid = np.abs(M @ M.conj().transpose(0, 2, 1) - eye).max(axis=(1, 2))
        if (resid > TOL_DEFECT).any():
            raise ValueError(f"phi({np.argmax(resid > TOL_DEFECT)}) is not unitary")
        # phi(g) phi(y) = a(g,y) phi(gy) on generators suffices: the relation
        # propagates to products of generators through the cocycle identity
        if self.defect() > TOL_DEFECT:
            raise ValueError("matrices violate the cocycle relation")

    def defect(self, full: bool = False) -> float:
        """Max residual of phi(x) phi(y) - a(x,y) phi(xy)."""
        G = self.group
        xs = range(G.order) if full else (G.gen_set() or [0])
        worst = 0.0
        for x in xs:
            prod = self.matrices[x] @ self.matrices
            target = self.table[x][:, None, None] * self.matrices[G.mul[x]]
            worst = max(worst, float(np.max(np.abs(prod - target))))
        return worst

    def __repr__(self) -> str:
        return f"ProjRep({self.group.name}, degree={self.degree})"


def _nullspace(M: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the right null space."""
    if M.shape[0] == 0:
        return [v for v in np.eye(M.shape[1], dtype=np.complex128)]
    _, s, vh = np.linalg.svd(M)
    scale = max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > TOL_GAP * scale))
    return [vh[i].conj() for i in range(rank, M.shape[1])]


def _check_same_cocycle(r1: ProjRep, r2: ProjRep) -> None:
    if r1.group is not r2.group and (
            r1.group.order != r2.group.order
            or not np.array_equal(r1.group.mul, r2.group.mul)):
        raise CocycleMismatch("representations live on different groups")
    if np.max(np.abs(r1.table - r2.table)) > TOL_CHECK:
        raise CocycleMismatch("cocycles differ beyond tolerance")


def intertwiner_space(r1: ProjRep, r2: ProjRep) -> tuple[int, list[np.ndarray]]:
    """Solutions of X r1(g) = r2(g) X; orthonormal under Frobenius."""
    _check_same_cocycle(r1, r2)
    d1, d2 = r1.degree, r2.degree
    gens = r1.group.gen_set()
    if not gens:
        basis = [v.reshape(d2, d1) for v in np.eye(d1 * d2, dtype=np.complex128)]
        return d1 * d2, basis
    # per generator g the block kron(1, r1(g)^T) - kron(r2(g), 1), all
    # generators in one broadcast product (bitwise equal to np.kron)
    m1 = r1.matrices[gens].transpose(0, 2, 1)
    m2 = r2.matrices[gens]
    eye1 = np.eye(d1)
    eye2 = np.eye(d2)
    stack = eye2[None, :, None, :, None] * m1[:, None, :, None, :] \
        - m2[:, :, None, :, None] * eye1[None, None, :, None, :]
    null = _nullspace(stack.reshape(len(gens) * d1 * d2, d1 * d2))
    return len(null), [v.reshape(d2, d1) for v in null]


def _traces(r: ProjRep) -> np.ndarray:
    return np.trace(r.matrices, axis1=1, axis2=2)


def _hom_counts(chi1: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    """Rounded <chi1, chi2> along the last axis, as integers.

    Raises NumericDegeneracy if a value lies more than TOL_CHECK from an
    integer: the characters are not those of unitary representations over
    one cocycle.
    """
    value = np.sum(np.conj(chi1) * chi2, axis=-1) / chi1.shape[-1]
    count = np.rint(value.real)
    if np.max(np.abs(value - count)) > TOL_CHECK:
        raise NumericDegeneracy("character inner product is not an integer")
    return count.astype(np.int64)


def hom_dim(r1: ProjRep, r2: ProjRep) -> int:
    """dim Hom(r1, r2), read off the characters.

    For unitary representations over one cocycle, averaging
    r2(g) X r1(g)^-1 over the group projects onto the intertwiners, and its
    trace gives dim Hom(r1, r2) = sum_g conj(chi1(g)) chi2(g) / |G|.
    """
    _check_same_cocycle(r1, r2)
    return int(_hom_counts(_traces(r1), _traces(r2)))


def is_irreducible(r: ProjRep) -> bool:
    """Commutant dimension one."""
    return hom_dim(r, r) == 1


def restrict_rep(r: ProjRep, H: Subgroup) -> ProjRep:
    """Same matrices on H, cocycle restricted; lives on H.as_group()."""
    if H.parent is not r.group:
        raise ValueError("subgroup of a different group")
    el = H.elements
    return ProjRep(H.as_group(), r.table[np.ix_(el, el)], r.matrices[el],
                   check=False)


def tensor_reps(r1: ProjRep, r2: ProjRep) -> ProjRep:
    """Kronecker product; the cocycles multiply pointwise."""
    if r1.group is not r2.group and \
            not np.array_equal(r1.group.mul, r2.group.mul):
        raise CocycleMismatch("tensor factors live on different groups")
    a, b = r1.matrices, r2.matrices
    mats = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
        a.shape[0], r1.degree * r2.degree, r1.degree * r2.degree)
    return ProjRep(r1.group, r1.table * r2.table, mats, check=False)


def character(r: ProjRep, regular: RegularClassData | None = None) -> np.ndarray:
    """Traces at class representatives; zero off the c-regular classes."""
    classes = conjugacy_classes(r.group)
    chi = np.array([np.trace(r.matrices[c.representative]) for c in classes])
    if regular is None:
        regular = c_regular_classes(TwistedAlgebra(r.group, r.table))
    for value, rec in zip(chi, regular.records):
        if not rec.c_regular and abs(value) > TOL_CHECK * max(1, r.degree):
            raise CrossCheckMismatch(
                "character does not vanish on a non-regular class")
    return chi


def _character_key(r: ProjRep) -> tuple:
    """Character values in units of TOL_CHECK, as integers."""
    classes = conjugacy_classes(r.group)
    chi = [np.trace(r.matrices[c.representative]) for c in classes]
    return tuple((round(v.real / TOL_CHECK), round(v.imag / TOL_CHECK))
                 for v in chi)


def split_regular(A: TwistedAlgebra, seed: int = 0) -> list[ProjRep]:
    """One irreducible per Wedderburn block, split off the regular module.

    Inside the image of a central idempotent the commutant of the left
    action is the right multiplications, so an eigenspace of a generic
    Hermitian right multiplication is a single irreducible copy.
    """
    w = wedderburn(A, seed=seed)
    out = []
    for e_vec, V in zip(w.idempotents, w.images):
        if np.max(np.abs(A.action_matrix(e_vec) @ V - V)) > TOL_DEFECT:
            raise NumericDegeneracy("block image is not fixed by its idempotent")
        out.append(_split_block(A, V, math.isqrt(V.shape[1]), seed))
    out.sort(key=lambda r: (r.degree, _character_key(r)))
    return out


def _split_block(A: TwistedAlgebra, V: np.ndarray, degree: int,
                 seed: int) -> ProjRep:
    n = A.group.order
    last = None
    for attempt in range(SPLIT_RETRIES):
        z = gaussians(seed + 104729 * attempt + degree, n)
        b = z + A.star(z)
        C = V.conj().T @ A.right_action_matrix(b) @ V
        evals, evecs = np.linalg.eigh((C + C.conj().T) / 2)
        # pick the lowest eigenvalue cluster; it must have dim = degree
        gap = TOL_GAP * max(1.0, float(evals[-1] - evals[0]))
        k = len(_cluster(evals, gap)[0])
        if k != degree:
            last = NumericDegeneracy(f"eigenspace of dim {k}, expected {degree}")
            continue
        W, _ = np.linalg.qr(V @ evecs[:, :degree])
        try:
            rep = ProjRep(A.group, A.table, _compress_left_action(A, W))
        except ValueError as exc:
            last = NumericDegeneracy(str(exc))
            continue
        if not is_irreducible(rep):
            last = NumericDegeneracy("split block is reducible")
            continue
        return rep
    raise last or NumericDegeneracy("block split failed")


def _compress_left_action(A: TwistedAlgebra, W: np.ndarray) -> np.ndarray:
    """W^H L_g W for every g: the left regular action compressed to span W."""
    n = A.group.order
    LW = np.empty((n, n, W.shape[1]), dtype=np.complex128)  # LW[g] = L_g W
    LW[np.arange(n)[:, None], A.group.mul] = A.table[:, :, None] * W
    return W.conj().T @ LW


@dataclass(frozen=True)
class Constituent:
    rep: ProjRep
    multiplicity: int
    projector: np.ndarray


def decompose(r: ProjRep, seed: int = 0) -> list[Constituent]:
    """Isotypic decomposition via eigenspaces of a generic commutant element.

    Constituents are pairwise non-isomorphic and sorted by (degree,
    character); multiplicities satisfy sum(mult * deg) = deg(r).
    """
    if hom_dim(r, r) == 1:
        return [Constituent(rep=r, multiplicity=1,
                            projector=np.eye(r.degree, dtype=np.complex128))]
    _, basis = intertwiner_space(r, r)
    d = r.degree
    last = None
    for attempt in range(SPLIT_RETRIES):
        H = np.zeros((d, d), dtype=np.complex128)
        for c, X in zip(gaussians(seed + 7127 * attempt + d, len(basis)),
                        basis):
            H += c * X
        H = H + H.conj().T
        evals, evecs = np.linalg.eigh(H)
        gap = TOL_GAP * max(1.0, float(evals[-1] - evals[0]))
        pieces = [evecs[:, idx[0]:idx[-1] + 1] for idx in _cluster(evals, gap)]
        try:
            subreps = []
            for W in pieces:
                mats = np.einsum("ak,gab,bl->gkl", W.conj(), r.matrices, W)
                sub = ProjRep(r.group, r.table, mats)
                if not is_irreducible(sub):
                    raise NumericDegeneracy("eigenspace is not irreducible")
                subreps.append((sub, W))
        except (ValueError, NumericDegeneracy) as exc:
            last = exc if isinstance(exc, NumericDegeneracy) \
                else NumericDegeneracy(str(exc))
            continue
        groups: list[list[int]] = []
        for i, (sub, _) in enumerate(subreps):
            placed = False
            for grp in groups:
                if hom_dim(subreps[grp[0]][0], sub) == 1:
                    grp.append(i)
                    placed = True
                    break
            if not placed:
                groups.append([i])
        out = []
        for grp in groups:
            proj = np.zeros((d, d), dtype=np.complex128)
            for i in grp:
                W = subreps[i][1]
                proj += W @ W.conj().T
            out.append(Constituent(rep=subreps[grp[0]][0],
                                   multiplicity=len(grp), projector=proj))
        if sum(c.multiplicity * c.rep.degree for c in out) != d:
            last = NumericDegeneracy("isotypic dimensions do not add up")
            continue
        out.sort(key=lambda c: (c.rep.degree, _character_key(c.rep)))
        return out
    raise last or NumericDegeneracy("decompose failed")


def conjugate_rep(r: ProjRep, N: Subgroup, g: int, A: TwistedAlgebra) -> ProjRep:
    """x -> twist(x, g) phi(x^g): the conjugate over the same cocycle."""
    G = A.group
    if N.parent is not G:
        raise ValueError("subgroup of a different group")
    el = N.elements
    xg = G.mul[G.mul[G.inv[g], el], g]
    if not N.mask()[xg].all():
        raise NotNormal("conjugation leaves the subgroup")
    tw = alpha_tilde(A, el, g)
    mats = tw[:, None, None] * r.matrices[N.positions()[xg]]
    return ProjRep(r.group, r.table, mats, check=False)


def is_inertial(r: ProjRep, N: Subgroup, g: int, A: TwistedAlgebra) -> bool:
    return hom_dim(r, conjugate_rep(r, N, g, A)) == 1


def inertia_group(r: ProjRep, N: Subgroup, A: TwistedAlgebra) -> Subgroup:
    """All g whose twisted conjugate of r is isomorphic to r.

    Membership is constant on cosets of N, so one test per coset suffices:
    the conjugate by t has character x -> twist(x, t) chi(x^t), and t is
    inertial iff its inner product with chi is one.
    """
    G = A.group
    if N.parent is not G:
        raise ValueError("subgroup of a different group")
    quot = quotient_group(G, N)
    t = quot.section[:, None]
    el = N.elements
    xt = G.mul[G.mul[G.inv[t], el], t]
    if not N.mask()[xt].all():
        raise NotNormal("conjugation leaves the subgroup")
    chi = _traces(r)
    tw = alpha_tilde(A, el, t)
    inertial = _hom_counts(chi, tw * chi[N.positions()[xt]]) == 1
    # closure is checked by the constructor
    return Subgroup(G, G.mul[quot.section[inertial][:, None], el].ravel())


@dataclass(frozen=True)
class CliffordExtension:
    """An extension of an inertia-invariant irreducible to its inertia group.

    ``extension`` lives on J.as_group() with the numerically read cocycle
    ``beta``; ``delta`` = restricted cocycle / beta is coset-constant with
    trivial rows and columns on N, and ``b_table`` is its quotient read-out.
    """

    base: ProjRep
    inertia: Subgroup
    n_in_j: Subgroup
    extension: ProjRep
    beta: np.ndarray
    delta: np.ndarray
    quotient: Quotient
    b_table: np.ndarray


def _coset_intertwiners(r: ProjRep, N: Subgroup, quot: Quotient,
                        A: TwistedAlgebra) -> np.ndarray:
    """T_t for each coset representative t of quot, in section order.

    T_t is a unitary intertwiner from r to its t^-1-conjugate, its phase
    fixed by a positive trace (else by its first entry above TOL_CHECK in
    modulus); T_1 = 1.
    """
    d = r.degree
    T = np.empty((quot.section.size, d, d), dtype=np.complex128)
    T[0] = np.eye(d)
    for k, t in enumerate(quot.section[1:].tolist(), 1):
        conj = conjugate_rep(r, N, int(A.group.inv[t]), A)
        dim, basis = intertwiner_space(r, conj)
        if dim != 1:
            raise InertiaMismatch(f"no intertwiner at coset rep {t}")
        X = basis[0]
        lam = float(np.real(np.trace(X.conj().T @ X))) / d
        U = X / np.sqrt(lam)
        if np.max(np.abs(U @ U.conj().T - np.eye(d))) > TOL_UNITARY:
            raise PhaseInstability("intertwiner is not proportional to unitary")
        tr = np.trace(U)
        if abs(tr) > TOL_DEFECT * d:
            U = U * (np.conj(tr) / abs(tr))
        else:
            flat = U.reshape(-1)
            idx = int(np.argmax(np.abs(flat) > TOL_CHECK))
            e = flat[idx]
            U = U * (np.conj(e) / abs(e))
        T[k] = U
    return T


def _obstruction(table: np.ndarray, beta: np.ndarray, n_in_j: Subgroup,
                 quot: Quotient, error: type[Exception]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """delta = table / beta and its read-out on the quotient's section.

    delta must be an exact inflation from J/N: 1 on N in both arguments and
    constant on cosets; otherwise ``error`` is raised.
    """
    delta = table * np.conj(beta)
    nel = n_in_j.elements
    if np.max(np.abs(delta[nel, :] - 1)) > TOL_CHECK or \
            np.max(np.abs(delta[:, nel] - 1)) > TOL_CHECK:
        raise error("obstruction is not trivial on the base subgroup")
    b_table = delta[np.ix_(quot.section, quot.section)]
    spread = np.abs(delta - b_table[np.ix_(quot.projection, quot.projection)])
    if np.max(spread) > TOL_CHECK:
        raise error("obstruction is not constant on cosets")
    return delta, b_table


def clifford_extend(r: ProjRep, N: Subgroup, J: Subgroup,
                    A: TwistedAlgebra) -> CliffordExtension:
    """Extend the invariant irreducible r of N to its inertia group J.

    Y(n t) = conj(a(n,t)) phi(n) T_t with T_t a phase-fixed unitary
    intertwiner from r to its t^-1-conjugate; this choice makes the
    obstruction delta exactly trivial on N in both arguments.
    """
    Aj = A.restrict(J)
    Jg, jtab = Aj.group, Aj.table
    n_in_j = Subgroup(Jg, J.positions()[N.elements])
    if not np.array_equal(n_in_j.as_group().mul, r.group.mul):
        raise ValueError("restricted subgroup does not match the rep's group")
    quot = quotient_group(Jg, n_in_j)
    d = r.degree
    T = _coset_intertwiners(r, n_in_j, quot, Aj)
    tj = quot.section[quot.projection]  # the coset representative of each j
    nn = Jg.mul[np.arange(Jg.order), Jg.inv[tj]]
    mats = np.conj(jtab[nn, tj])[:, None, None] * \
        (r.matrices[n_in_j.positions()[nn]] @ T[quot.projection])
    # read beta from Y(g) Y(h) = beta Y(gh)
    prod = mats[:, None] @ mats[None]
    targets = mats[Jg.mul]
    scal = np.einsum("ghab,ghab->gh", prod, targets.conj()) / d
    resid = np.abs(prod - scal[:, :, None, None] * targets).max(axis=(1, 2, 3))
    if (resid > TOL_CHECK * d).any():
        g = int(np.argmax(resid > TOL_CHECK * d))
        raise PhaseInstability(f"product at {g} is not a scalar multiple")
    beta = scal / np.abs(scal)
    Y = ProjRep(Jg, beta, mats, check=False)
    if Y.defect() > TOL_CHECK:
        raise PhaseInstability("extension violates its own cocycle")
    delta, b_table = _obstruction(jtab, beta, n_in_j, quot, PhaseInstability)
    return CliffordExtension(base=r, inertia=J, n_in_j=n_in_j, extension=Y,
                             beta=beta, delta=delta, quotient=quot,
                             b_table=b_table)


def inflate_rep_on(G: FiniteGroup, W: ProjRep, quot: Quotient) -> ProjRep:
    """Pull a representation of G/N back to G through the projection."""
    proj = quot.projection
    return ProjRep(G, W.table[np.ix_(proj, proj)], W.matrices[proj], check=False)


def factor_over_extension(X: ProjRep, ext: CliffordExtension) -> ProjRep:
    """The quotient factor W with X = Y (x) inf W, via the N-hom space.

    The inertia group acts on Hom_N(res Y, res X) by w -> X(g) w Y(g)^-1;
    this action is exactly trivial on N and its cocycle is the obstruction
    delta, so it reads out as a projective representation of J/N.
    """
    Y = ext.extension
    Jg = Y.group
    if X.group.order != Jg.order or not np.array_equal(X.group.mul, Jg.mul):
        raise CocycleMismatch("X does not live on the inertia group")
    # the W-action cocycle is X's cocycle divided by beta
    quot = ext.quotient
    _, b_table = _obstruction(X.table, ext.beta, ext.n_in_j, quot,
                              CocycleMismatch)
    mult, ws = intertwiner_space(ext.base, restrict_rep(X, ext.n_in_j))
    if mult == 0:
        raise FactorizationFailure("base constituent absent from restriction")
    nq = quot.group.order
    Wm = np.empty((nq, mult, mult), dtype=np.complex128)
    for c in range(nq):
        g = int(quot.section[c])
        imgs = [X.matrices[g] @ w @ Y.matrices[g].conj().T for w in ws]
        for i in range(mult):
            for j in range(mult):
                Wm[c, i, j] = np.sum(np.conj(ws[i]) * imgs[j])
    W = ProjRep(quot.group, b_table, Wm)
    # certify the factorization: X is isomorphic to Y tensor (inflated W)
    W_J = inflate_rep_on(Jg, W, quot)
    if hom_dim(tensor_reps(Y, W_J), X) != 1:
        raise FactorizationFailure("tensor reconstruction is not isomorphic")
    return W


def induce_rep(r: ProjRep, H: Subgroup, A: TwistedAlgebra) -> ProjRep:
    """Block-monomial induced representation over a minimal left transversal."""
    G = A.group
    if H.parent is not G:
        raise ValueError("subgroup of a different group")
    n = G.order
    # each coset gH is represented by its minimal element
    first = G.mul[:, H.elements].min(axis=1)
    reps = sorted_unique(first)
    coset_of = np.searchsorted(reps, first)
    k = reps.size
    d = r.degree
    # block (i, j) of g is scal * r(h), where g t_j = t_i h
    gt = G.mul[:, reps]
    i = coset_of[gt]
    ti = reps[i]
    h = G.mul[G.inv[ti], gt]
    scal = A.table[:, reps] * np.conj(A.table[ti, h])
    mats = np.zeros((n, k, d, k, d), dtype=np.complex128)
    mats[np.arange(n)[:, None], i, :, np.arange(k), :] = \
        scal[:, :, None, None] * r.matrices[H.positions()[h]]
    return ProjRep(G, A.table, mats.reshape(n, k * d, k * d))

