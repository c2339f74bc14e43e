"""Tests for cocycles, the multiplier pipeline, and coclass arithmetic."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projrep import cohomology
from projrep.cohomology import (
    Cocycle,
    _cocycle_generators,
    _cokernel,
    _generator_lift,
    _kernel_from_chain,
    _rref_mod_p,
    class_order,
    cocycle_from_extension,
    is_trivial_coclass,
    kernel_mod_prime_power,
    multiplier_report,
    pi_part,
    restrict_coclass,
    schur_multiplier,
    smith_mod_prime_power,
    solve_mod_prime_power,
    trivial_cocycle,
)
from projrep.errors import (
    CocycleMismatch,
    CrossCheckMismatch,
    LiftOverflow,
    ModulusMismatch,
    NotCentral,
)
from projrep.groups import (
    PiSet,
    Subgroup,
    build_group,
    default_pi_sets,
    factorize,
    hall_subgroup,
    is_pi_separable,
    quotient_group,
    sylow_subgroup,
)
from projrep.twisted import TwistedAlgebra, wedderburn

from conftest import center_subgroup, cyclic_gens, dihedral_gens, direct_gens


def _coboundary_reference(G, m, values):
    """delta z (x, y) = z(x) + z(y) - z(xy) of a normalized Z/m-valued
    1-cochain z."""
    v = np.asarray(values, dtype=np.int64) % m
    assert v.shape == (G.order,) and v[0] == 0
    return Cocycle(G, m, (v[:, None] + v[None, :] - v[G.mul]) % m, check=False)


def _inflate_cocycle_reference(c, quot, G):
    """The pullback a(x, y) = a(Nx, Ny) of a cocycle of G/N to G."""
    assert quot.group is c.group
    proj = quot.projection
    return Cocycle(G, c.modulus, c.table[np.ix_(proj, proj)], check=False)


def _inflate_coclass_reference(b, quot, mult_G):
    """The class in mult_G of the pullback of a coclass of G/N."""
    inflated = _inflate_cocycle_reference(b.representative, quot, mult_G.group)
    return mult_G.coclass(mult_G.resolve(inflated))


# The recursive kernel and the loop Smith form that one decomposition replaced,
# kept verbatim: the new code must match them bit for bit.


def _kernel_mod_prime_power_reference(M, p, k):
    """Generators of {v : M v = 0 mod p^k} as a subgroup of (Z/p^k)^cols.

    Recursion on k: v = K x + p y with (x, y) in the kernel of [MK/p | M]
    mod p^(k-1), where K spans the kernel mod p.
    """
    q = p**k
    M = np.asarray(M, dtype=np.int64) % q
    R, pivots = _rref_mod_p(M, p)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(M.shape[1]) if c not in pivot_cols]
    basis = []
    for f in free:
        v = np.zeros(M.shape[1], dtype=np.int64)
        v[f] = 1
        for r, c in pivots:
            v[c] = (-int(R[r, f])) % p
        basis.append(v)
    if k == 1 or not basis:
        return basis
    K = np.stack(basis, axis=1)
    MK = M @ K
    if np.any(MK % p):
        raise CrossCheckMismatch("kernel basis mod p is not in the kernel")
    Mrec = np.concatenate([MK // p, M], axis=1) % (p ** (k - 1))
    kappa = K.shape[1]
    out = []
    for w in _kernel_mod_prime_power_reference(Mrec, p, k - 1):
        out.append((K @ w[:kappa] + p * w[kappa:]) % q)
    return out


def _rref_mod_p_reference(M, p):
    """The int64 elimination that the narrow, lazily reduced one replaced.

    Forward elimination keeps rows below unreduced (entries stay well inside
    int64 since every update adds less than p^2); reductions happen only on
    pivot rows and on the columns being inspected.
    """
    M = np.array(M, dtype=np.int64) % p
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        colv = M[r:, c] % p
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] %= p
        piv = int(M[r, c])
        if piv != 1:
            M[r] = (M[r] * pow(piv, p - 2, p)) % p
        f = M[r + 1:, c] % p
        touch = np.nonzero(f)[0]
        if touch.size:
            M[r + 1 + touch] -= np.outer(f[touch], M[r])
        pivots.append((r, c))
        r += 1
    for i in range(len(pivots) - 1, 0, -1):
        ri, ci = pivots[i]
        M[ri] %= p
        f = M[:ri, ci] % p
        touch = np.nonzero(f)[0]
        if touch.size:
            M[touch] -= np.outer(f[touch], M[ri])
    if pivots:
        M[:len(pivots)] %= p
    return M, pivots


def _smith_mod_prime_power_reference(P, p, k, rows):
    """Smith form of a Z/p^k module presentation (columns are relations).

    coker = (Z/q)^rows / colspan(P).  Pivoting on minimal p-valuation keeps
    every entry reduced mod q, so there is no coefficient growth.  Returns
    (invariants, uinv) with one invariant per row coordinate, ascending, and
    uinv's column i the generator of the i-th cyclic factor in the original
    coordinates (mod q).
    """
    q = p**k
    A = np.asarray(P, dtype=np.int64) % q
    if A.ndim != 2 or A.shape[0] != rows:
        raise ModulusMismatch(f"presentation of shape {A.shape} for {rows} rows")
    cols = A.shape[1]
    uinv = np.eye(rows, dtype=np.int64)
    if A.size == 0:
        return [q] * rows, uinv
    s = 0
    vals: list[int] = []
    while s < min(rows, cols):
        # minimal-valuation entry of the trailing block
        block = A[s:, s:]
        piv = None
        for v in range(k):
            nz = np.nonzero(block % (p ** (v + 1)))
            if nz[0].size:
                piv = (v, s + int(nz[0][0]), s + int(nz[1][0]))
                break
        if piv is None:
            break
        v, bi, bj = piv
        if bi != s:
            A[[s, bi]] = A[[bi, s]]
            uinv[:, [s, bi]] = uinv[:, [bi, s]]
        if bj != s:
            A[:, [s, bj]] = A[:, [bj, s]]
        unit = int(A[s, s]) // p**v
        uinv_unit = pow(unit, -1, q)
        A[s] = (A[s] * uinv_unit) % q
        uinv[:, s] = (uinv[:, s] * unit) % q  # U^-1 picks up the inverse op
        pv = p**v
        for i in range(rows):
            if i == s or A[i, s] == 0:
                continue
            f = int(A[i, s]) // pv
            A[i] = (A[i] - f * A[s]) % q
            uinv[:, s] = (uinv[:, s] + f * uinv[:, i]) % q
        for j in range(s + 1, cols):
            if A[s, j]:
                A[:, j] = (A[:, j] - (int(A[s, j]) // pv) * A[:, s]) % q
        vals.append(v)
        s += 1
    invariants = [p**v for v in vals] + [q] * (rows - s)
    return invariants, uinv


def test_trivial_cocycle_is_cocycle(v4):
    assert trivial_cocycle(v4).is_cocycle()


def test_random_coboundaries_are_cocycles(v4, s3g):
    rng = np.random.default_rng(3)
    for G in (v4, s3g):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            vals = np.concatenate([[0], rng.integers(0, m, size=G.order - 1)])
            assert _coboundary_reference(G, m, vals).is_cocycle()


def test_perturbed_table_fails(v4):
    tab = np.zeros((4, 4), dtype=np.int64)
    tab[1, 1] = 1
    with pytest.raises(CocycleMismatch):
        Cocycle(v4, 2, tab)
    c = Cocycle(v4, 2, tab, check=False)
    assert not c.is_cocycle()


@pytest.mark.parametrize("gens,name,expect", [
    (direct_gens([[2, 1]], 2, [[2, 1]], 2), "C2xC2", [2]),
    (cyclic_gens(6), "C6", []),
    (dihedral_gens(4), "D4", [2]),
    ([[2, 1, 3], [2, 3, 1]], "S3", []),
    ([[2, 1, 3, 4], [2, 3, 4, 1]], "S4", [2]),
    ([[2, 3, 1, 4], [1, 3, 4, 2]], "A4", [2]),
    (direct_gens([[2, 3, 1]], 3, [[2, 3, 1]], 3), "C3xC3", [3]),
    (direct_gens([[2, 1]], 2, [[2, 3, 4, 1]], 4), "C2xC4", [2]),
    (direct_gens([[2, 1]], 2, direct_gens([[2, 1]], 2, [[2, 1]], 2), 4),
     "C2xC2xC2", [2, 2, 2]),
    (direct_gens([[2, 3, 4, 1]], 4, [[2, 3, 4, 1]], 4), "C4xC4", [4]),
    # at the default cap: Kunneth for C2 x S4, and the dihedral group of order 40
    (direct_gens([[2, 1]], 2, [[2, 1, 3, 4], [2, 3, 4, 1]], 4), "C2xS4", [2, 2]),
    ([[(i + 1) % 20 + 1 for i in range(20)], [(-i) % 20 + 1 for i in range(20)]],
     "D20", [2]),
])
def test_schur_invariants(gens, name, expect):
    G = build_group(gens, name=name)
    assert schur_multiplier(G).invariants == expect


def test_schur_q8_trivial(q8g):
    assert schur_multiplier(q8g).invariants == []


@pytest.mark.parametrize("name,expect", [
    ("E27+", [3, 3]), ("E27-", []), ("Q16", []), ("C7:C3", []),
    ("C5:C4", []), ("C2xD4", [2, 2, 2]), ("C2xQ8", [2, 2]), ("C2xA4", [2]),
    ("C2xC2xS3", [2, 2, 2]), ("S3xS3", [2]), ("C3xS3", []), ("D5", []),
    ("D6", [2]), ("D8", [2]), ("D12", [2]), ("C2xC6", [2]), ("C3xC6", [3]),
    ("C6xC6", [6]), ("A5", [2]),
])
def test_schur_catalog_known_values(name, expect):
    # cross-checked against the Kunneth formula / classical tables
    from projrep.catalog import get_group
    assert schur_multiplier(get_group(name)).invariants == expect


def test_schur_exponent_squared_divides_order(v4, d4g, s4g, a4g):
    for G in (v4, d4g, s4g, a4g):
        m = schur_multiplier(G)
        assert G.order % (m.exponent**2) == 0


def test_schur_cap(sl25g):
    # no H^2 cap: the report solves a group of order 120 as it is given
    assert multiplier_report(sl25g)["invariants"] == []


def test_d4_nontrivial_degrees(d4g):
    # cross-check by counting degree-2 twisted irreducibles: 2^2+2^2 = 8
    m = schur_multiplier(d4g)
    c = m.coclasses()[1]
    A = TwistedAlgebra.from_cocycle(c.representative)
    assert wedderburn(A, seed=0).degrees == [2, 2]


def test_coclass_order(v4):
    m = schur_multiplier(v4)
    assert m.trivial_coclass().order == 1
    assert m.coclass([1]).order == 2


def test_coclass_order_c4xc4():
    G = build_group(direct_gens([[2, 3, 4, 1]], 4, [[2, 3, 4, 1]], 4), name="C4xC4")
    m = schur_multiplier(G)
    assert m.invariants == [4]
    assert m.coclass([1]).order == 4
    assert m.coclass([2]).order == 2


def test_restrict_to_trivial_and_cyclic(v4, s4g):
    mv = schur_multiplier(v4)
    c = mv.coclass([1])
    triv = Subgroup(v4, [0])
    assert restrict_coclass(c, triv).is_trivial()
    C2 = Subgroup(v4, [0, 1])
    assert restrict_coclass(c, C2).is_trivial()
    assert restrict_coclass(mv.trivial_coclass(), C2).is_trivial()
    # restriction of any coclass to a cyclic subgroup is trivial
    ms = schur_multiplier(s4g)
    cs = ms.coclass([1])
    for g in range(s4g.order):
        from projrep.groups import closure
        H = Subgroup(s4g, closure(s4g, [g]))
        assert restrict_coclass(cs, H).is_trivial()


def test_restrict_to_whole_group_stays_in_its_multiplier(s4g):
    ms = schur_multiplier(s4g)
    full = s4g.full_subgroup()
    for c in ms.coclasses():
        r = restrict_coclass(c, full)
        assert r.multiplier is ms and r == c
    assert "schur" not in full.as_group()._cache


def test_inflate_from_s4_quotient(s4g):
    # S4/V4 is S3-shaped with trivial multiplier: only trivial inflations
    from projrep.groups import PiSet, o_pi
    V4 = o_pi(s4g, PiSet([2]))
    quot = quotient_group(s4g, V4)
    mq = schur_multiplier(quot.group)
    assert mq.invariants == []
    ms = schur_multiplier(s4g)
    assert _inflate_coclass_reference(mq.trivial_coclass(), quot,
                                      ms).is_trivial()


def test_inflate_trivial_and_d4(d4g):
    md = schur_multiplier(d4g)
    Z = center_subgroup(d4g)
    assert Z.order == 2
    quot = quotient_group(d4g, Z)
    mq = schur_multiplier(quot.group)
    assert mq.invariants == [2]
    assert _inflate_coclass_reference(mq.trivial_coclass(), quot,
                                      md).is_trivial()
    inflated = _inflate_coclass_reference(mq.coclass([1]), quot, md)
    # the pullback table is exactly zero on the kernel in both slots
    tab = _inflate_cocycle_reference(mq.coclass([1]).representative, quot, d4g)
    assert not np.any(tab.table[Z.elements, :])
    assert not np.any(tab.table[:, Z.elements])
    # inflation lands in the restriction kernel of the quotient map
    assert restrict_coclass(inflated, Z).is_trivial()


def test_pi_part_trivial_and_simple(v4):
    m = schur_multiplier(v4)
    c = m.coclass([1])
    cpi, cpip = pi_part(c, PiSet([2]))
    assert cpi == c and cpip.is_trivial()
    t1, t2 = pi_part(m.trivial_coclass(), PiSet([2]))
    assert t1.is_trivial() and t2.is_trivial()


def test_pi_part_composite_order():
    G = build_group(direct_gens(cyclic_gens(6), 6, cyclic_gens(6), 6), name="C6xC6")
    m = schur_multiplier(G)
    assert m.invariants == [6]
    c = m.coclass([1])
    assert c.order == 6
    cpi, cpip = pi_part(c, PiSet([2]))
    assert cpi.order == 2 and cpip.order == 3
    assert cpi.mul(cpip) == c
    assert np.gcd(cpi.order, cpip.order) == 1
    # idempotence: the pi-part of the pi-part is itself
    again, rest = pi_part(cpi, PiSet([2]))
    assert again == cpi and rest.is_trivial()


def test_cocycle_from_extension_c4():
    C4 = build_group(cyclic_gens(4), name="C4")
    Z = Subgroup(C4, [0, 2])
    c, quot = cocycle_from_extension(C4, Z)
    assert quot.group.order == 2
    assert is_trivial_coclass(Cocycle.from_units(quot.group, c.unit_table()))


def test_cocycle_from_extension_q8(q8g):
    Z = center_subgroup(q8g)
    c, quot = cocycle_from_extension(q8g, Z)
    assert quot.group.order == 4
    A = TwistedAlgebra.from_cocycle(c)
    assert wedderburn(A, seed=0).degrees == [2]
    assert not is_trivial_coclass(Cocycle.from_units(quot.group,
                                                     c.unit_table()))


def test_cocycle_from_extension_not_central(s4g):
    from projrep.groups import sylow_subgroup
    P = sylow_subgroup(s4g, 3)
    with pytest.raises(NotCentral):
        cocycle_from_extension(s4g, P)


def test_sl25_covering_multiplier(sl25g):
    # the double cover's extension cocycle generates the directly solved
    # multiplier of its quotient table, a copy of A5
    c, quot = cocycle_from_extension(sl25g, center_subgroup(sl25g))
    mult = schur_multiplier(quot.group)
    assert mult.invariants == [2]
    assert mult.resolve(c) == (1,)
    A = TwistedAlgebra.from_cocycle(c)
    assert wedderburn(A, seed=0).degrees == [2, 2, 4, 6]


def test_covering_quotient_is_private(sl25g):
    # the cover's quotient is the shared group of its table and serves only
    # as an oracle; the catalog A5 is a group of its own, solved on its own
    from projrep.catalog import get_group

    Z = center_subgroup(sl25g)
    _, quot = cocycle_from_extension(sl25g, Z)
    assert quot.group is quotient_group(sl25g, Z).group
    A5 = get_group("A5")
    assert A5 is not quot.group
    m_cover, m_cat = schur_multiplier(quot.group), schur_multiplier(A5)
    assert m_cover is not m_cat
    assert m_cover.group is quot.group and m_cat.group is A5
    assert m_cover.invariants == m_cat.invariants == [2]


def test_resolve_roundtrip(s4g, d4g):
    # every catalog group with a multiplier too: on C3xC6 (|G| = 18, p-part
    # q = 9) resolving t mod q without the unit (18/9)^-1 swapped [1] and [2]
    from projrep.catalog import catalog, get_group
    catalog_groups = [get_group(e.name) for e in catalog() if e.order <= 60]
    for G in (s4g, d4g, *catalog_groups):
        m = schur_multiplier(G)
        # a modulus that is not a divisor of |G|: 7 |G|, or 11 |G| where 7
        # divides |G|
        wide = (11 if G.order % 7 == 0 else 7) * G.order
        for c in m.coclasses():
            assert m.resolve(c.representative) == c.vector, G.name
            # perturbation by a coboundary does not move the class
            for mod in (G.order, wide):
                rng = np.random.default_rng(G.order)
                vals = np.concatenate([[0], rng.integers(0, mod,
                                                         size=G.order - 1)])
                rep = c.representative
                lifted = Cocycle(G, mod, rep.table * (mod // rep.modulus),
                                 check=False)
                pert = lifted.mul(_coboundary_reference(G, mod, vals))
                assert pert.modulus == mod
                assert m.resolve(pert) == c.vector, (G.name, mod)


def test_restricted_coclass_has_the_order_of_its_table():
    # resolve in H's multiplier and the class test on the restricted table
    # agree, at every Sylow and Hall subgroup of every small catalog group
    from projrep.catalog import catalog, get_group
    count = 0
    for e in catalog():
        if e.order > 60:
            continue
        G = get_group(e.name)
        subgroups = [sylow_subgroup(G, p) for p in G.primes()]
        subgroups += [hall_subgroup(G, pi) for pi in default_pi_sets(G.order)
                      if len(pi.primes) > 1 and is_pi_separable(G, pi)]
        for c in schur_multiplier(G).coclasses():
            for H in subgroups:
                rc = restrict_coclass(c, H)
                assert rc.order == class_order(c.representative.restrict(H)), \
                    (e.name, c.label(), H.order)
                count += 1
    assert count == 225


def test_edge_rows_decide_and_all_rows_check(s4g):
    # resolve reads the table on the edges (x, g) only; a table that breaks
    # the cocycle identity elsewhere must still fail where it is built
    m = schur_multiplier(s4g)
    gens = set(s4g.gen_set())
    y = next(y for y in range(2, s4g.order) if y not in gens)
    bad = np.array(m.coclasses()[1].representative.table)
    bad[1, y] += 1
    with pytest.raises(CocycleMismatch):
        Cocycle(s4g, m.modulus, bad)


def test_resolve_certifies_its_answer(monkeypatch):
    # a wrong solution of the annihilator congruences must not come back as
    # an exponent vector: the class test on the remainder catches it
    from projrep.catalog import get_group
    G = get_group("C2xC2")
    m = schur_multiplier(G)
    rep = m.coclass([1]).representative
    solve = cohomology.solve_mod_prime_power

    def wrong(M, t, p, k):
        return (solve(M, t, p, k) + 1) % p**k

    monkeypatch.setattr(cohomology, "solve_mod_prime_power", wrong)
    with pytest.raises(CrossCheckMismatch):
        m.resolve(rep)


def test_relation_kernel_checks_the_mu_n_forms(monkeypatch):
    # an E column off by one breaks the divisibility N E = 0 mod p^(v-k)
    # that every Z/q cocycle of a p-group of order p^v meets
    forms = cohomology._edge_forms

    def off_by_one(G, Z, q):
        E = forms(G, Z, q)
        E[:, 0] += 1
        return E

    monkeypatch.setattr(cohomology, "_edge_forms", off_by_one)
    fresh = build_group(direct_gens([[2, 1]], 2, [[2, 1]], 2), name="C2xC2")
    with pytest.raises(CrossCheckMismatch):
        schur_multiplier(fresh)


def test_solver_brute_force_small():
    rng = np.random.default_rng(11)
    rng_t = np.random.default_rng(12)
    solvable_seen = set()
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 3))
        q = p**k
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        M = rng.integers(0, q, size=(rows, cols))
        v = rng.integers(0, q, size=cols)
        t = (M @ v) % q
        sol = solve_mod_prime_power(M, t, p, k)
        assert sol is not None
        assert np.all((M @ sol - t) % q == 0)
        # random targets, often inconsistent: None iff no u in (Z/q)^cols
        # solves M u = t, else a true solution
        every_u = np.array(list(itertools.product(range(q), repeat=cols)))
        for t in rng_t.integers(0, q, size=(4, rows)):
            solvable = bool(np.any(np.all((every_u @ M.T - t) % q == 0,
                                          axis=1)))
            sol = solve_mod_prime_power(M, t, p, k)
            assert (sol is not None) == solvable
            if sol is not None:
                assert np.all((M @ sol - t) % q == 0)
            solvable_seen.add(solvable)
    assert solvable_seen == {True, False}


def test_smith_mod_prime_power_known():
    # coker of [[2,0],[0,4]] over Z/8
    inv, uinv = _cokernel(np.array([[2, 0], [0, 4]]), 2, 3)
    assert inv == [2, 4]
    inv, _ = _cokernel(np.zeros((2, 0), dtype=np.int64), 2, 2)
    assert inv == [4, 4]
    inv, _ = _cokernel(np.array([[1], [1]]), 3, 1)
    assert sorted(inv) == [1, 3]


def test_cocycle_power_mul_restrict(s4g):
    m = schur_multiplier(s4g)
    c = m.coclass([1]).representative
    assert not np.any(c.power(2).table) or not any(m.resolve(c.power(2)))
    prod = c.mul(c)
    assert not any(m.resolve(prod))


def test_hash_stable(v4):
    from projrep.catalog import get_group
    m = schur_multiplier(v4)
    c = m.coclass([1]).representative
    assert c.hash_hex() == c.hash_hex()
    assert c.hash_hex() != trivial_cocycle(v4).hash_hex()
    assert [c.hash_hex() for c in schur_multiplier(get_group("C2xD4")).basis] \
        == ["0c2ebcd270ba87c6", "c5431f170e067d85", "ba2a9cec09b1afb4"]


def _cocycle_constraints_reference(G):
    """The full cocycle-identity matrix on (|G|-1)^2 unknowns.

    Rows F(x, y, g) = a(x,y) + a(xy,g) - a(y,g) - a(x,yg) for all nonidentity
    x, y and generators g.
    """
    n = G.order
    gens = G.gen_set()
    m = n - 1
    N = m * m
    M = np.zeros((len(gens) * N, N), dtype=np.int16)
    X, Y = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    xf, yf = X.reshape(-1), Y.reshape(-1)
    ridx = np.arange(N)
    for bi, g in enumerate(gens):
        base = bi * N
        np.add.at(M, (base + ridx, ridx), 1)                       # a(x, y)
        xy = G.mul[xf, yf]
        ok = xy != 0
        np.add.at(M, (base + ridx[ok], (xy[ok] - 1) * m + (g - 1)), 1)   # a(xy, g)
        np.add.at(M, (base + ridx, (yf - 1) * m + (g - 1)), -1)          # a(y, g)
        yg = G.mul[yf, g]
        ok = yg != 0
        np.add.at(M, (base + ridx[ok], (xf[ok] - 1) * m + (yg[ok] - 1)), -1)  # a(x, yg)
    return M


def _small_catalog():
    from projrep.catalog import catalog
    return [e.name for e in catalog() if 1 < e.order <= 27]


@pytest.mark.parametrize("name", _small_catalog())
def test_generator_lift_matches_full_constraints(name):
    # includes the k = 2 groups C4xC4, Q16, C2xD4, C2xQ8 and E27+/- at p = 3
    from projrep.catalog import get_group
    G = get_group(name)
    L, FL = _generator_lift(G)
    reference = _cocycle_constraints_reference(G)
    for p, e in factorize(G.order).items():
        k = e // 2
        if k == 0:
            continue
        new = _cocycle_generators(L, FL, p, k)
        old = _kernel_mod_prime_power_reference(reference, p, k)
        assert len(new) == len(old)
        # the generators come in the narrowest type that holds q, int8 here
        assert new.dtype == np.int8
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


def _scrambled(gens, p, j, cols, rng):
    """Another generating set, as rows, of the same subgroup of (Z/p^j)^cols."""
    q = p**j
    if not gens:
        return np.zeros((0, cols), dtype=np.int64)
    A = np.stack(gens)
    units = np.array([x for x in range(1, q) if x % p], dtype=np.int64)
    scaled = A * rng.choice(units, size=(A.shape[0], 1))
    mixed = rng.integers(0, q, size=(2, A.shape[0])) @ A
    out = np.concatenate([scaled, mixed]) % q
    return out[rng.permutation(out.shape[0])]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3]), k=st.integers(1, 3),
       rows=st.integers(1, 6), cols=st.integers(1, 6),
       data=st.data())
def test_kernel_from_chain_matches_kernel_mod_prime_power(p, k, rows, cols, data):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols,
                                 max_size=rows * cols))
    M = np.array(entries, dtype=np.int64).reshape(rows, cols)
    # rank-deficient mod p often enough to exercise the higher levels
    if data.draw(st.booleans()):
        M = (M * p) % p**k
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chain = [_scrambled(_kernel_mod_prime_power_reference(M, p, j), p, j,
                        cols, rng)
             for j in range(1, k + 1)]
    got = _kernel_from_chain(chain, p)
    want = _kernel_mod_prime_power_reference(M, p, k)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _matrix(data, p, rows, cols):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols,
                                 max_size=rows * cols))
    M = np.array(entries, dtype=np.int64).reshape(rows, cols)
    # multiples of p keep the higher levels busy
    return M * p ** data.draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), k=st.integers(1, 3),
       rows=st.integers(0, 6), cols=st.integers(0, 6), data=st.data())
def test_kernel_mod_prime_power_matches_reference(p, k, rows, cols, data):
    M = _matrix(data, p, rows, cols)
    got = kernel_mod_prime_power(M, p, k)
    want = _kernel_mod_prime_power_reference(M, p, k)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), k=st.integers(1, 3),
       rows=st.integers(1, 6), cols=st.integers(0, 6), data=st.data())
def test_cokernel_matches_smith_reference(p, k, rows, cols, data):
    P = _matrix(data, p, rows, cols)
    inv, uinv = _cokernel(P, p, k)
    want_inv, want_uinv = _smith_mod_prime_power_reference(P, p, k, rows)
    assert inv == want_inv
    assert uinv.dtype == want_uinv.dtype and np.array_equal(uinv, want_uinv)
    # the decomposition itself: U P V = D, valuations ascending
    q = p**k
    vals, V, U = smith_mod_prime_power(P, p, k, np.eye(rows, dtype=np.int64))
    D = np.zeros((rows, cols), dtype=np.int64)
    D[range(len(vals)), range(len(vals))] = [p**v for v in vals]
    assert vals == sorted(vals)
    assert np.array_equal(U @ P @ V % q, D)
    # the inverse read off the same decomposition
    assert np.array_equal(U @ uinv % q, np.eye(rows, dtype=np.int64))


def test_cokernel_brute_force():
    # |coker| and the order of each generator, by enumerating colspan(P)
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 3))
        q = p**k
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        P = rng.integers(0, q, size=(rows, cols)) * p ** rng.integers(0, 2)
        span = {(0,) * rows}
        for c in P.T:
            span = {tuple((np.array(x) + m * c) % q)
                    for x in span for m in range(q)}
        inv, uinv = _cokernel(P, p, k)
        assert len(inv) == rows
        assert int(np.prod(inv)) * len(span) == q**rows
        for d, g in zip(inv, uinv.T):
            order = next(m for m in range(1, q + 1)
                         if tuple(m * g % q) in span)
            assert order == d


def test_cross_check_catches_a_corrupt_transform(monkeypatch):
    smith = cohomology.smith_mod_prime_power

    def corrupt(*args, **kwargs):
        vals, V, X = smith(*args, **kwargs)
        return vals, V[:, ::-1], X

    M = np.array([[1, 1]])
    assert len(kernel_mod_prime_power(M, 2, 1)) == 1
    monkeypatch.setattr(cohomology, "smith_mod_prime_power", corrupt)
    with pytest.raises(CrossCheckMismatch):
        kernel_mod_prime_power(M, 2, 1)
    with pytest.raises(CrossCheckMismatch):
        solve_mod_prime_power(M, np.array([1]), 2, 1)


def test_coclass_rejects_vectors_of_the_wrong_length(v4):
    m = schur_multiplier(v4)
    assert m.invariants == [2]
    for vector in ([1, 0], []):
        with pytest.raises(ValueError):
            m.coclass(vector)


# -- the narrow Z^2 solve ------------------------------------------------------


def _identity_rows_reference(G, L):
    """The all-x fill that the rows at the generators replaced.

    Row (b m + x - 1) m + y - 1, m = |G| - 1, holds F(x, y, gens[b]) L for
    every nonidentity x and y; zero rows are dropped, and so is every row
    after its first copy (the dict loop that keyed them as bytes).
    """
    n = G.order
    lift = np.zeros((n, n, L.shape[2]), dtype=np.int8)
    lift[1:, 1:] = L
    x = np.arange(1, n)[:, None]
    y = np.arange(1, n)[None, :]
    M = np.concatenate([
        lift[x, y] + lift[G.mul[x, y], g] - lift[y, g] - lift[x, G.mul[y, g]]
        for g in G.gen_set()]).reshape(-1, L.shape[2])
    M = M[np.any(M, axis=1)]
    first: dict[bytes, int] = {}
    for i, row in enumerate(M):
        first.setdefault(row.tobytes(), i)
    return M[list(first.values())]


def test_generator_rows_solve_as_all_rows():
    # FL holds F(g, y, h) for generators g and edges (y, h) off the Cayley
    # tree only; at every prime whose square divides |G| the canonical
    # cocycle generators equal those of the deduplicated rows over every x
    from projrep.catalog import catalog, get_group
    cases = 0
    for name in [e.name for e in catalog() if 1 < e.order <= 60]:
        G = get_group(name)
        n, gens = G.order, G.gen_set()
        L, FL = _generator_lift(G)
        assert FL.shape == (len(gens) * (len(gens) * n - (n - 1)),
                            L.shape[2]), name
        reference = _identity_rows_reference(G, L)
        for p, e in factorize(n).items():
            if e < 2:
                continue
            new = _cocycle_generators(L, FL, p, e // 2)
            old = _cocycle_generators(L, reference, p, e // 2)
            assert new.dtype == old.dtype and np.array_equal(new, old), \
                (name, p)
            cases += 1
    assert _generator_lift(get_group("A5"))[1].shape[0] == 122
    assert cases == 39


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), rows=st.integers(1, 8),
       cols=st.integers(1, 8), data=st.data())
def test_rref_mod_p_matches_the_int64_reference(p, rows, cols, data):
    # M = A B has rank at most r, and mostly exactly r, up to full rank;
    # entries past p and below zero make every first read reduce
    r = data.draw(st.integers(0, min(rows, cols)))
    A, B = (np.array(data.draw(st.lists(st.integers(-2 * p, 2 * p),
                                        min_size=a * b, max_size=a * b)),
                     dtype=np.int64).reshape(a, b)
            for a, b in ((rows, r), (r, cols)))
    M = A @ B
    R, pivots = _rref_mod_p(M, p)
    want, want_pivots = _rref_mod_p_reference(M, p)
    assert pivots == want_pivots
    # the reference leaves rows past the rank unreduced, all 0 mod p
    assert np.array_equal(R, want % p)


@pytest.mark.parametrize("p, size", [(2, 150), (3, 90), (11, 40)])
def test_rref_mod_p_reduces_before_the_narrow_type_wraps(p, size):
    # a row takes about size / 2 updates of up to (p-1)^2: past int8 at
    # p = 3 unless blocks are reduced on the way (int8 wraps mod 2^8, which
    # keeps residues mod 2, so p = 2 could not show it)
    M = np.random.default_rng(p).integers(0, p, size=(size, size + 5))
    R, pivots = _rref_mod_p(M, p)
    want, want_pivots = _rref_mod_p_reference(M, p)
    assert R.dtype == (np.int8 if p < 5 else np.int16)
    assert pivots == want_pivots and len(pivots) >= size - 2
    assert np.array_equal(R, want % p)


def test_matmul_mod_refuses_products_past_float64_integers():
    # inner (q-1)^2 = 2^53 is the last exact size: every dot product of
    # reduced entries is then an integer that float64 holds
    q = 2**20 + 1
    X = np.full((1, 2**13), q - 1, dtype=np.int64)
    assert cohomology._matmul_mod(X, X.T, q)[0, 0] == 2**13 * (q - 1)**2 % q
    Y = np.ones((2**13 + 1, 1), dtype=np.int64)
    with pytest.raises(ModulusMismatch):
        cohomology._matmul_mod(Y.T, Y, q)
    # the bound is checked before an entry is read: a broadcast matrix of
    # 2^51 columns is never copied
    huge = np.broadcast_to(np.int8(1), (1, 2**51))
    with pytest.raises(ModulusMismatch):
        cohomology._matmul_mod(huge, huge.T, 4)


def test_a5_multiplier_stays_narrow():
    from projrep.catalog import entry
    G = entry("A5").build()   # a fresh group: nothing of its solve is cached
    L, FL = _generator_lift(G)
    assert L.dtype == np.int8 and FL.dtype == np.int8
    G = entry("A5").build()
    tracemalloc.start()
    try:
        mult = schur_multiplier(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mult.invariants == [2]
    # about 1.2 MB with FL on the rows at the generators; 1.8 MB when FL was
    # filled over every x and deduplicated, 6.2 MB when the chain was also
    # widened to int64 and copied
    assert peak < 1.5 * 2**20


def test_c2xa5_multiplier_stays_narrow_at_cap_200():
    from projrep.catalog import entry
    G = entry("C2xA5").build()
    tracemalloc.start()
    try:
        mult = schur_multiplier(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mult.invariants == [2]
    # about 10.5 MB; 26.4 MB when FL was filled over every x
    assert peak < 16 * 2**20


def test_lift_overflow_is_raised_not_wrapped(monkeypatch):
    from projrep.catalog import get_group
    G = get_group("C4")
    monkeypatch.setattr(cohomology, "_LIFT_BOUND", 0)
    with pytest.raises(LiftOverflow):
        _generator_lift(G)


def _is_cocycle_reference(c):
    """The identity on all triples, as one (n, n, n) check."""
    t, mul, m = c.table, c.group.mul, c.modulus
    lhs = t[:, :, None] + t[mul, :]
    rhs = t[None, :, :] + t[:, mul]
    return bool(np.all((lhs - rhs) % m == 0))


def test_is_cocycle_fails_on_a_single_bad_row(s4g):
    # the identity's row and column (index 0) too: only Cocycle(check=False)
    # holds such a table
    base = schur_multiplier(s4g).coclass([1]).representative
    n, m = s4g.order, base.modulus
    assert base.is_cocycle()
    for x in range(n):
        for y in (0, 1, n - 1):
            for i, j in ((x, y), (y, x)):
                table = base.table.copy()
                table[i, j] = (table[i, j] + 1) % m
                c = Cocycle(s4g, m, table, check=False)
                assert not c.is_cocycle()
                assert not _is_cocycle_reference(c)


def test_generator_triples_decide_the_identity_on_the_catalog():
    # is_cocycle reads only the triples (x, y, g), g a generator; on every
    # catalog group up to order 60 it agrees with all triples, on
    # a cocycle shifted by a non-normalized coboundary and on that table
    # with one entry off, in the identity's row and column and beyond
    from projrep.catalog import catalog, get_group
    rng = np.random.default_rng(5)
    tables = 0
    for name in [e.name for e in catalog() if e.order <= 60]:
        G = get_group(name)
        n = G.order
        basis = schur_multiplier(G).basis
        base = basis[-1] if basis else trivial_cocycle(G, 2 * n)
        m = base.modulus
        ell = rng.integers(0, m, size=n)
        shifted = (base.table + ell[:, None] + ell[None, :] - ell[G.mul]) % m
        c = Cocycle(G, m, shifted, check=False)
        assert c.is_cocycle() and _is_cocycle_reference(c), name
        for x in range(n):
            for i, j in {(x, 0), (0, x), (x, n - 1)}:
                table = shifted.copy()
                table[i, j] = (table[i, j] + 1) % m
                c = Cocycle(G, m, table, check=False)
                assert c.is_cocycle() == _is_cocycle_reference(c), (name, i, j)
                tables += 1
    assert tables == 2760


def test_catalog_multipliers_are_pinned():
    # sha256 over the invariants and basis tables of every catalog
    # multiplier of order <= 60; hash_hex, on the builtin SHA-256, gives
    # hashlib's digest of each basis table
    from projrep.catalog import catalog, get_group
    h = hashlib.sha256()
    names = [e.name for e in catalog() if e.order <= 60]
    for name in names:
        m = schur_multiplier(get_group(name))
        h.update(f"{name}:{m.invariants}".encode())
        for c in m.basis:
            h.update(f"{c.modulus}:".encode() + c.table.tobytes())
            assert c.hash_hex() == hashlib.sha256(
                str(c.modulus).encode() + c.table.tobytes()).hexdigest()[:16]
    assert len(names) == 59
    assert h.hexdigest() == (
        "5921f0c90420e630e151841d50e3ac6b8e70e52add688154d18c6881efd157cf")


@pytest.mark.parametrize("name, expect", [
    ("C3xSL(2,3)", [3]),   # M(C3) + M(SL(2,3)) + C3 (x) SL(2,3)^ab
    ("C2xA5", [2]),        # Kunneth: M(A5) = C2, and A5 is perfect
    ("SL(2,5)", []),       # the Schur cover of A5
    ("C5xC5:C4", []),
])
def test_multipliers_past_the_default_cap(name, expect):
    from projrep.catalog import get_group
    assert schur_multiplier(get_group(name)).invariants == expect


def test_catalog_multipliers_are_pinned_at_cap_200():
    # the same digest over the whole catalog, orders up to 120
    from projrep.catalog import catalog, get_group
    h = hashlib.sha256()
    names = [e.name for e in catalog() if e.order <= 200]
    for name in names:
        m = schur_multiplier(get_group(name))
        h.update(f"{name}:{m.invariants}".encode())
        for c in m.basis:
            h.update(f"{c.modulus}:".encode() + c.table.tobytes())
    assert len(names) == 63
    assert h.hexdigest() == (
        "f186f2273b2e888ffe66f7226363fa124d4a4c2b3e3d57620440ce825e069ab0")


def _lifts_of(monkeypatch, G):
    """The primes at which G's own cocycles are solved, filled in as
    schur_multiplier(G) runs."""
    solved = []
    generators = cohomology._cocycle_generators

    def record(L, FL, p, k):
        if L.shape[0] == G.order - 1:
            solved.append(p)
        return generators(L, FL, p, k)

    monkeypatch.setattr(cohomology, "_cocycle_generators", record)
    return solved


@pytest.mark.parametrize("name", ["SL(2,3)", "SL(2,5)", "C3xS3",
                                  "C5xC5:C4"])
def test_trivial_sylow_multipliers_skip_the_solve(monkeypatch, name):
    # SL(2,3), SL(2,5): a Sylow 2-subgroup is quaternion, with trivial
    # multiplier, and 2 is the one prime whose square divides the order.
    # C3xS3, C5xC5:C4: M(P) = C_p for P = C_p x C_p, and N_G(P) acts on it
    # by a determinant that is not 1, so it fixes no class.  Either way
    # M(G) is trivial without a lift of G (its Sylow subgroups are solved)
    from projrep.catalog import entry
    G = entry(name).build()
    lift = cohomology._generator_lift

    def no_lift_of_G(H):
        if H is G:
            raise LiftOverflow(f"{name} was lifted")
        return lift(H)

    monkeypatch.setattr(cohomology, "_generator_lift", no_lift_of_G)
    assert multiplier_report(G)["invariants"] == []
    for p in factorize(G.order):
        P = sylow_subgroup(G, p)
        assert P.order < G.order and schur_multiplier(P.as_group()).order \
            in (1, p)


@pytest.mark.parametrize("name, solved", [
    ("S3xS3", [2]),       # the inversions of either factor move M(C3xC3)
    ("C2xA4", [2]),       # M(C2^3) = C2^3: the 3-cycle fixes one class
    ("C3xSL(2,3)", [3]),  # N_G(C3xC3) adds a central C2, which fixes
                          # M(C3xC3) = C3; and M(Q8) = 1
])
def test_sylow_parts_are_solved_only_where_the_normalizer_fixes_a_class(
        monkeypatch, name, solved):
    from projrep.catalog import entry
    G = entry(name).build()
    primes = _lifts_of(monkeypatch, G)
    assert schur_multiplier(G).order == math.prod(solved)
    assert primes == solved


def _abelian_invariants(G):
    """Invariant factors n_1 | ... | n_r of an abelian G, read off how many
    elements have each p-power order."""
    orders = G.element_orders()
    parts = []
    for p, e in factorize(G.order).items():
        # p^s_j elements satisfy x^(p^j) = 1, and s_j = sum_i min(e_i, j)
        s = [round(math.log(np.count_nonzero(p**j % orders == 0), p))
             for j in range(e + 2)]
        parts.append((p, [j for j in range(1, e + 1)
                          for _ in range(2 * s[j] - s[j - 1] - s[j + 1])]))
    width = max((len(exps) for _, exps in parts), default=0)
    return [math.prod(p ** exps[t - width + len(exps)] for p, exps in parts
                 if t - width + len(exps) >= 0) for t in range(width)]


def _power_gens(n, r):
    gens, points = cyclic_gens(n), n
    for _ in range(r - 1):
        gens, points = direct_gens(gens, points, cyclic_gens(n), n), points + n
    return gens


def test_abelian_multipliers_match_schur_closed_form():
    # M(Z/n_1 + ... + Z/n_r) = sum_(i<j) Z/gcd(n_i, n_j) (I. Schur, J. reine
    # angew. Math. 132, 1907); with n_1 | ... | n_r that is n_i taken r - i
    # times, already in invariant-factor order
    from projrep.catalog import catalog, get_group
    groups = [get_group(e.name) for e in catalog()]
    groups = [G for G in groups if G.is_abelian()] + [
        build_group(_power_gens(n, r), name=f"C{n}^{r}")
        for n, r in ((2, 4), (3, 4), (5, 3))]
    assert len(groups) > 20
    for G in groups:
        ns = _abelian_invariants(G)
        assert math.prod(ns) == G.order
        expect = [n for i, n in enumerate(ns) for _ in range(len(ns) - 1 - i)]
        assert schur_multiplier(G).invariants == [n for n in expect if n > 1], \
            G.name
