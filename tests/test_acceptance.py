"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import sys
import time

import numpy as np
import pytest

from projrep.catalog import catalog, coclass_contexts, get_group
from projrep.cohomology import (
    Cocycle,
    cocycle_from_extension,
    is_trivial_coclass,
    schur_multiplier,
)
from projrep.groups import (
    PiSet,
    Subgroup,
    closure,
    is_p_solvable,
    is_pi_separable,
    is_solvable,
    prime_divisors,
)
from projrep.reps import (
    induce_rep,
    restrict_rep,
    split_regular,
)
from projrep.twisted import TwistedAlgebra, c_regular_classes, wedderburn
from projrep.verify import (
    pi_decompose,
    verify_a5_negative_control,
    verify_ito_michler,
    verify_pi_theorem,
)

from conftest import center_subgroup, transport_rep_reference


def _emit(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)


def _sweep_names(max_order: int) -> list[str]:
    return [e.name for e in catalog() if e.order <= max_order]


@pytest.fixture(scope="module")
def sweep60():
    """Every catalog group of order <= 60 with every enumerable coclass."""
    out = []
    for name in _sweep_names(60):
        out.extend(coclass_contexts(name))
    return out


def test_criterion_01_degree_formula_and_counting(sweep60):
    t0 = time.time()
    instances = 0
    for ctx in sweep60:
        w = wedderburn(ctx.algebra, seed=ctx.seed)
        assert sum(d * d for d in w.degrees) == ctx.group.order, ctx.group.name
        assert w.residual < 1e-6
        assert len(w.degrees) == ctx.regular_data.regular_count
        instances += 1
    dt = time.time() - t0
    ok = dt < 300
    _emit(1, "degree-formula-and-counting", ok,
          f"{instances} (group, coclass) instances, {dt:.1f}s")
    assert ok


def test_criterion_02_order_divisibilities(sweep60):
    violations = 0
    instances = 0
    for ctx in sweep60:
        o = ctx.order
        n = ctx.group.order
        for d in ctx.degrees:
            if d % o or n % d:
                violations += 1
        if n % (o * o):
            violations += 1
        instances += 1
    _emit(2, "coclass-order-divisibilities", violations == 0,
          f"{instances} instances, {violations} violations")
    assert violations == 0


def test_criterion_03_brute_force_c2xc2():
    t0 = time.time()
    G = get_group("C2xC2")
    mul = G.mul
    # all 2^16 sign tables; keep the normalized valid cocycles
    bits = np.arange(65536, dtype=np.int64)
    tables = ((bits[:, None] >> np.arange(16)) & 1).reshape(-1, 4, 4)
    signs = 1.0 - 2.0 * tables.astype(np.float64)
    normalized = np.all(signs[:, 0, :] == 1, axis=1) & \
        np.all(signs[:, :, 0] == 1, axis=1)
    lhs = signs[:, :, :, None] * signs[:, mul, :]
    rhs = signs[:, None, :, :] * signs[:, :, mul]
    valid = normalized & np.all((lhs - rhs).reshape(65536, -1) == 0, axis=1)
    cocycles = signs[valid]
    assert cocycles.shape[0] == 16
    # partition by the degree-one test on quotient tables (independent of
    # the multiplier solver)
    classes: list[list[int]] = []
    for i in range(cocycles.shape[0]):
        placed = False
        for cls in classes:
            quot = cocycles[i] * cocycles[cls[0]]  # mu_2: inverse = itself
            if is_trivial_coclass(Cocycle.from_units(G, quot.astype(np.complex128))):
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    assert len(classes) == 2
    trivial_cls = next(cls for cls in classes
                       if np.all(cocycles[cls[0]] == 1)
                       or is_trivial_coclass(
                           Cocycle.from_units(
                               G, cocycles[cls[0]].astype(np.complex128))))
    nontrivial = next(cls for cls in classes if cls is not trivial_cls)
    A = TwistedAlgebra(G, cocycles[nontrivial[0]].astype(np.complex128))
    degrees = wedderburn(A, seed=0).degrees
    regular = c_regular_classes(A).regular_count
    dt = time.time() - t0
    ok = degrees == [2] and regular == 1 and dt < 10
    _emit(3, "brute-force-oracle-C2xC2", ok,
          f"16 valid cocycles, 2 classes, degrees {degrees}, {dt:.1f}s")
    assert ok
    # cross-check against the solver's invariants
    assert schur_multiplier(G).invariants == [2]
    assert len(trivial_cls) == len(nontrivial) == 8


def test_criterion_04_covering_group_oracle():
    E = get_group("SL(2,5)")
    Z = center_subgroup(E)
    c, quot = cocycle_from_extension(E, Z)
    A = TwistedAlgebra.from_cocycle(c)
    w = wedderburn(A, seed=0)
    twisted = w.degrees
    # ordinary irreducibles of the cover with faithful central character,
    # computed by the same engine over the trivial cocycle
    z = next(int(g) for g in Z.elements if g != 0)
    faithful = []
    from projrep.cohomology import trivial_cocycle
    for r in split_regular(TwistedAlgebra.from_cocycle(trivial_cocycle(E)),
                           seed=0):
        if np.max(np.abs(r.matrices[z] + np.eye(r.degree))) < 1e-6:
            faithful.append(r.degree)
    ok = twisted == [2, 2, 4, 6] and sorted(faithful) == [2, 2, 4, 6] \
        and sum(d * d for d in twisted) == 60 and w.residual < 1e-6
    _emit(4, "covering-group-oracle-A5", ok,
          f"twisted {twisted}, faithful cover degrees {sorted(faithful)}")
    assert ok


def test_criterion_05_ito_michler_equivalence():
    t0 = time.time()
    checked = 0
    nontrivial = 0
    failures = []
    for e in catalog():
        ctxs = coclass_contexts(e.name)
        G = ctxs[0].group
        for p in prime_divisors(G.order):
            if not is_p_solvable(G, p):
                continue
            for ctx in ctxs:
                r = verify_ito_michler(ctx, p)
                assert r.verdict != "inapplicable"
                if r.verdict != "pass":
                    failures.append((e.name, ctx.label, p))
                checked += 1
                if ctx.coclass is not None and not ctx.coclass.is_trivial():
                    nontrivial += 1
    dt = time.time() - t0
    ok = not failures and nontrivial >= 50
    _emit(5, "ito-michler-equivalence", ok,
          f"{checked} instances, {nontrivial} with nontrivial coclass, "
          f"{len(failures)} failures, {dt:.1f}s")
    assert ok, failures


def test_criterion_06_pi_theorem():
    t0 = time.time()
    checked = 0
    failures = []
    for e in catalog():
        ctxs = coclass_contexts(e.name)
        G = ctxs[0].group
        ps = prime_divisors(G.order)
        pis = [PiSet([p]) for p in ps] + \
            [PiSet([p, q]) for i, p in enumerate(ps) for q in ps[i + 1:]]
        for pi in pis:
            if not is_pi_separable(G, pi):
                continue
            for ctx in ctxs:
                r = verify_pi_theorem(ctx, pi)
                if r.verdict != "pass":
                    failures.append((e.name, ctx.label, pi.label()))
                checked += 1
    dt = time.time() - t0
    _emit(6, "pi-prime-degree-theorem", not failures,
          f"{checked} instances, {len(failures)} failures, {dt:.1f}s")
    assert not failures, failures


def test_criterion_07_a5_negative_control():
    ctx = coclass_contexts("A5")[0]
    r = verify_a5_negative_control(ctx)
    ok = r.verdict == "pass" and r.lhs is False and r.rhs is True
    _emit(7, "a5-negative-control", ok,
          f"(i)={r.lhs} (ii)={r.rhs} degrees {r.witnesses['degrees']}")
    assert ok


def test_criterion_08_decomposition_certificates():
    t0 = time.time()
    checked = 0
    failures = []
    for name in _sweep_names(60):
        ctxs = coclass_contexts(name)
        G = ctxs[0].group
        if not is_solvable(G):
            continue
        for ctx in ctxs:
            for p in prime_divisors(G.order):
                for V in ctx.irreps:
                    cert, rep = pi_decompose(V, PiSet([p]), ctx)
                    good = (cert.intertwiner_dim == 1
                            and cert.residual < 1e-6
                            and rep.verdict == "pass")
                    if not good:
                        failures.append((name, ctx.label, p, V.degree))
                    checked += 1
    dt = time.time() - t0
    _emit(8, "decomposition-certificates", not failures,
          f"{checked} certificates, {len(failures)} failures, {dt:.1f}s")
    assert not failures, failures[:5]


def _all_subgroups(G):
    seen = {}
    singles = []
    for g in range(G.order):
        H = tuple(closure(G, [g]).tolist())
        seen[H] = True
        singles.append(H)
    for a in range(G.order):
        for b in range(a + 1, G.order):
            seen[tuple(closure(G, [a, b]).tolist())] = True
    return [Subgroup(G, list(els)) for els in sorted(seen)]


def _traces(rep) -> np.ndarray:
    from projrep.groups import conjugacy_classes
    return np.array([np.trace(rep.matrices[c.representative])
                     for c in conjugacy_classes(rep.group)])


def _double_transversal(G, H, L):
    assigned = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if assigned[g]:
            continue
        reps.append(g)
        block = G.mul[np.ix_(G.mul[H.elements, g].reshape(-1), L.elements)]
        assigned[np.unique(block)] = True
    return reps


def _rebase(rep, sub):
    """Move a rep onto the structurally equal as_group of another subgroup."""
    from projrep.reps import ProjRep
    target = sub.as_group()
    assert np.array_equal(target.mul, rep.group.mul)
    return ProjRep(target, rep.table, rep.matrices, check=False)


def test_criterion_09_induction_laws():
    from projrep.reps import tensor_reps
    t0 = time.time()
    checked = 0
    failures = []
    for gname in ("S4", "D6"):
        for ctx in coclass_contexts(gname):
            G = ctx.group
            A = ctx.algebra
            subgroups = _all_subgroups(G)
            induced = {}
            for H in subgroups:
                U = split_regular(TwistedAlgebra(
                    H.as_group(), A.table[np.ix_(H.elements, H.elements)]),
                    seed=ctx.seed)[-1]
                induced[H] = (U, induce_rep(U, H, A))
            V_G = ctx.irreps[-1]
            for H in subgroups:
                U, indU = induced[H]
                chi_ind = _traces(indU)
                # transitivity through every intermediate subgroup
                for K in subgroups:
                    if K.order <= H.order or K.order == G.order:
                        continue
                    if not K.mask()[H.elements].all():
                        continue
                    A_K = TwistedAlgebra(
                        K.as_group(), A.table[np.ix_(K.elements, K.elements)])
                    H_in_K = Subgroup(K.as_group(), K.positions()[H.elements])
                    step = induce_rep(_rebase(U, H_in_K), H_in_K, A_K)
                    two_step = induce_rep(step, K, A)
                    if np.max(np.abs(_traces(two_step) - chi_ind)) > 1e-6:
                        failures.append(("transitivity", gname, ctx.label,
                                         H.order, K.order))
                    checked += 1
                # projection formula: V (x) ind U = ind(res V (x) U)
                lhs = tensor_reps(V_G, indU)
                rhs = induce_rep(tensor_reps(restrict_rep(V_G, H), U), H,
                                 TwistedAlgebra(G, A.table * V_G.table))
                if np.max(np.abs(_traces(lhs) - _traces(rhs))) > 1e-6:
                    failures.append(("projection", gname, ctx.label, H.order))
                checked += 1
                # Mackey: res_L ind_H U = sum over H\G/L double cosets
                for L in subgroups:
                    lhs_chi = _traces(restrict_rep(indU, L))
                    rhs_chi = np.zeros_like(lhs_chi)
                    Lg = L.as_group()
                    A_L = TwistedAlgebra(
                        Lg, A.table[np.ix_(L.elements, L.elements)])
                    for t in _double_transversal(G, H, L):
                        Ut, Ht = transport_rep_reference(U, H, t, A)
                        inter = np.array(sorted(
                            set(Ht.elements.tolist())
                            & set(L.elements.tolist())))
                        K_loc = Subgroup(Ht.as_group(), Ht.positions()[inter])
                        K_in_L = Subgroup(Lg, L.positions()[inter])
                        piece = _rebase(restrict_rep(Ut, K_loc), K_in_L)
                        rhs_chi = rhs_chi + _traces(
                            induce_rep(piece, K_in_L, A_L))
                    if np.max(np.abs(lhs_chi - rhs_chi)) > 1e-6:
                        failures.append(("mackey", gname, ctx.label,
                                         H.order, L.order))
                    checked += 1
    dt = time.time() - t0
    _emit(9, "induction-laws", not failures,
          f"{checked} identities on S4 and D6, {len(failures)} failures, "
          f"{dt:.1f}s")
    assert not failures, failures[:5]


def test_criterion_10_coboundary_invariance():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for name in _sweep_names(24):
        for ctx in coclass_contexts(name):
            G = ctx.group
            base = ctx.algebra
            base_degrees = ctx.degrees
            base_flags = ctx.regular_data.flags
            for _ in range(20):
                phases = np.exp(2j * np.pi * rng.random(G.order))
                phases[0] = 1.0
                tab = base.table * phases[:, None] * phases[None, :] \
                    / phases[G.mul]
                B = TwistedAlgebra(G, tab)
                assert wedderburn(B, seed=ctx.seed).degrees == base_degrees
                assert c_regular_classes(B).flags == base_flags
                checked += 1
    dt = time.time() - t0
    _emit(10, "coboundary-invariance", True,
          f"{checked} perturbations, {dt:.1f}s")
