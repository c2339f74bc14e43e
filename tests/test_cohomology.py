"""Tests for cocycles, the multiplier pipeline, and coclass arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projrep.cohomology import (
    Cochain1,
    Cocycle,
    _cocycle_generators,
    _generator_lift,
    _kernel_from_chain,
    cocycle_from_extension,
    inflate_coclass,
    is_cocycle,
    is_trivial_coclass_numeric,
    kernel_mod_prime_power,
    pi_part,
    restrict_coclass,
    schur_multiplier,
    smith_mod_prime_power,
    solve_mod_prime_power,
    trivial_cocycle,
)
from projrep.errors import GroupTooLargeForH2, ModulusMismatch, NotCentral
from projrep.groups import (
    PiSet,
    Subgroup,
    build_group,
    factorize,
    quotient_group,
)
from projrep.twisted import TwistedAlgebra, wedderburn

from conftest import center_subgroup, cyclic_gens, dihedral_gens, direct_gens


def test_trivial_cocycle_is_cocycle(v4):
    assert is_cocycle(trivial_cocycle(v4))


def test_random_coboundaries_are_cocycles(v4, s3g):
    rng = np.random.default_rng(3)
    for G in (v4, s3g):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            vals = np.concatenate([[0], rng.integers(0, m, size=G.order - 1)])
            assert is_cocycle(Cochain1(G, m, vals).coboundary())


def test_perturbed_table_fails(v4):
    tab = np.zeros((4, 4), dtype=np.int64)
    tab[1, 1] = 1
    with pytest.raises(ModulusMismatch):
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
    with pytest.raises(GroupTooLargeForH2):
        schur_multiplier(sl25g)


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
    assert inflate_coclass(mq.trivial_coclass(), quot, ms).is_trivial()


def test_inflate_trivial_and_d4(d4g):
    md = schur_multiplier(d4g)
    Z = center_subgroup(d4g)
    assert Z.order == 2
    quot = quotient_group(d4g, Z)
    mq = schur_multiplier(quot.group)
    assert mq.invariants == [2]
    assert inflate_coclass(mq.trivial_coclass(), quot, md).is_trivial()
    inflated = inflate_coclass(mq.coclass([1]), quot, md)
    # the pullback table is exactly zero on the kernel in both slots
    from projrep.cohomology import inflate_cocycle
    tab = inflate_cocycle(mq.coclass([1]).representative, quot, d4g)
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
    assert is_trivial_coclass_numeric(quot.group, c.unit_table())


def test_cocycle_from_extension_q8(q8g):
    Z = center_subgroup(q8g)
    c, quot = cocycle_from_extension(q8g, Z)
    assert quot.group.order == 4
    A = TwistedAlgebra.from_cocycle(c)
    assert wedderburn(A, seed=0).degrees == [2]
    assert not is_trivial_coclass_numeric(quot.group, c.unit_table())


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
    assert mult.resolve(c.table, c.modulus) == (1,)
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
        for c in m.coclasses():
            assert m.resolve(c.representative.table, c.representative.modulus) \
                == c.vector, G.name
            # perturbation by a coboundary does not move the class
            rng = np.random.default_rng(G.order)
            vals = np.concatenate([[0], rng.integers(0, G.order,
                                                     size=G.order - 1)])
            pert = c.representative.mul(Cochain1(G, G.order, vals).coboundary())
            assert m.resolve(pert.table, pert.modulus) == c.vector, G.name


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
    inv, uinv = smith_mod_prime_power(np.array([[2, 0], [0, 4]]), 2, 3, 2)
    assert inv == [2, 4]
    inv, _ = smith_mod_prime_power(np.zeros((2, 0), dtype=np.int64), 2, 2, 2)
    assert inv == [4, 4]
    inv, _ = smith_mod_prime_power(np.array([[1], [1]]), 3, 1, 2)
    assert sorted(inv) == [1, 3]


def test_cocycle_power_mul_restrict(s4g):
    m = schur_multiplier(s4g)
    c = m.coclass([1]).representative
    assert c.power(2).is_identity_table() or \
        m.is_trivial_class(c.power(2).table, c.modulus)
    prod = c.mul(c)
    assert m.is_trivial_class(prod.table, prod.modulus)


def test_hash_stable(v4):
    m = schur_multiplier(v4)
    c = m.coclass([1]).representative
    assert c.hash_hex() == c.hash_hex()
    assert c.hash_hex() != trivial_cocycle(v4).hash_hex()


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
        old = kernel_mod_prime_power(reference, p, k)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and np.array_equal(a, b)


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
    chain = [_scrambled(kernel_mod_prime_power(M, p, j), p, j, cols, rng)
             for j in range(1, k + 1)]
    got = _kernel_from_chain(chain, p)
    want = kernel_mod_prime_power(M, p, k)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
