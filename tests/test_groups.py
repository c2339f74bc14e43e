"""Tests for Cayley-table group arithmetic and the pi-separability toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from projrep.catalog import catalog, get_group
from projrep.errors import ClosureTooLarge, NotNormal, NotPermutation, NotPiSeparable
from projrep.groups import (
    PiSet,
    build_group,
    centralizer,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    default_pi_sets,
    hall_higman_check,
    hall_subgroup,
    is_p_solvable,
    is_pi_separable,
    is_solvable,
    o_pi,
    pi_series,
    quotient_group,
    sorted_unique,
    sylow_subgroup,
)

S3_GENS = [[2, 1, 3], [2, 3, 1]]
S4_GENS = [[2, 1, 3, 4], [2, 3, 4, 1]]
A4_GENS = [[2, 3, 1, 4], [1, 3, 4, 2]]
A5_GENS = [[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]]
C6_GENS = [[2, 3, 4, 5, 6, 1]]
C4_GENS = [[2, 3, 4, 1]]


@pytest.fixture(scope="module")
def s3():
    return build_group(S3_GENS, name="S3")


@pytest.fixture(scope="module")
def s4():
    return build_group(S4_GENS, name="S4")


@pytest.fixture(scope="module")
def a5():
    return build_group(A5_GENS, name="A5")


@pytest.fixture(scope="module")
def c6():
    return build_group(C6_GENS, name="C6")


def brute_classes(G):
    """Independent conjugation-orbit partition with plain python loops."""
    seen = set()
    sizes = []
    for x in range(G.order):
        if x in seen:
            continue
        orbit = set()
        for g in range(G.order):
            orbit.add(int(G.mul[int(G.mul[int(G.inv[g]), x]), g]))
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


def test_build_group_s3(s3):
    assert s3.order == 6
    assert s3.identity == 0


def test_build_group_trivial():
    G = build_group([], name="C1")
    assert G.order == 1


def test_build_group_a5(a5):
    assert a5.order == 60
    # closure of even permutations stays even
    perms = a5._cache["perm_elements"]
    for row in perms:
        inversions = sum(1 for i in range(5) for j in range(i + 1, 5)
                         if row[i] > row[j])
        assert inversions % 2 == 0


def test_build_group_rejects_bad_perm():
    with pytest.raises(NotPermutation):
        build_group([[1, 1, 3]])


def test_build_group_cap():
    # S6 has order 720, above the order cap of 200
    with pytest.raises(ClosureTooLarge, match="exceeds cap 200"):
        build_group([[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]], name="S6")


def test_group_axioms_validated(s4):
    n = s4.order
    mul = s4.mul
    assert np.array_equal(mul[0], np.arange(n))
    sample = np.random.default_rng(0).integers(0, n, size=(50, 3))
    for a, b, c in sample:
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]


def test_conjugacy_classes_s3(s3):
    cls = brute_classes(s3)
    got = conjugacy_classes(s3)
    assert [c.size for c in got] == cls == [1, 3, 2]
    assert sum(c.size for c in got) == 6


def test_conjugacy_classes_trivial():
    G = build_group([], name="C1")
    assert len(conjugacy_classes(G)) == 1


def test_conjugacy_classes_a5(a5):
    got = sorted(c.size for c in conjugacy_classes(a5))
    assert got == sorted(brute_classes(a5)) == [1, 12, 12, 15, 20]


def test_class_equation(s4, a5, c6):
    for G in (s4, a5, c6):
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order
        for c in classes:
            assert G.order % c.size == 0
            assert c.size * c.centralizer_order == G.order


def test_centralizer(s3, c6):
    assert centralizer(s3, 0).order == 6
    transposition = next(g for g in range(6) if s3.order_of(g) == 2)
    assert centralizer(s3, transposition).order == 2
    for x in range(c6.order):
        assert centralizer(c6, x).order == 6
    C4 = build_group(C4_GENS, name="C4")
    for x in range(4):
        assert centralizer(C4, x).order == 4


def test_sylow_s4(s4):
    P = sylow_subgroup(s4, 2)
    assert P.order == 8
    assert not P.as_group().is_abelian()
    assert sylow_subgroup(s4, 3).order == 3


def test_sylow_missing_prime(s3):
    assert sylow_subgroup(s3, 5).order == 1


def test_sylow_a5(a5):
    P = sylow_subgroup(a5, 5)
    assert P.order == 5
    assert P.as_group().is_abelian()


def catalog_groups(max_order=120):
    return [get_group(e.name) for e in catalog() if e.order <= max_order]


def is_pi_group(G, H, pi):
    return all(pi.is_pi_number(int(o)) for o in G.element_orders()[H.elements])


def test_sylow_order_exact(s4, a5, c6):
    for G in (s4, a5, c6):
        for p in G.primes():
            assert sylow_subgroup(G, p).order == PiSet([p]).part(G.order)
    for G in catalog_groups():
        for p in G.primes():
            P = sylow_subgroup(G, p)
            assert P.order == PiSet([p]).part(G.order), (G.name, p)
            assert is_pi_group(G, P, PiSet([p])), (G.name, p)


def test_hall_s4(s4):
    assert hall_subgroup(s4, PiSet([2, 3])).order == 24
    H = hall_subgroup(s4, PiSet([3]))
    assert H.order == 3


def test_hall_s3(s3):
    H = hall_subgroup(s3, PiSet([3]))
    assert H.order == 3
    assert H.is_normal()


def test_hall_coprime_index(s4, c6):
    for G in (s4, c6):
        for pi in (PiSet([2]), PiSet([3]), PiSet([2, 3])):
            H = hall_subgroup(G, pi)
            assert H.order == pi.part(G.order)
            assert np.gcd(H.order, G.order // H.order) == 1
    for G in catalog_groups():
        for pi in default_pi_sets(G.order):
            if not is_pi_separable(G, pi):
                continue
            H = hall_subgroup(G, pi)
            assert H.order == pi.part(G.order), (G.name, pi)
            assert np.gcd(H.order, G.order // H.order) == 1
            assert is_pi_group(G, H, pi), (G.name, pi)


def test_hall_not_separable(a5):
    with pytest.raises(NotPiSeparable):
        hall_subgroup(a5, PiSet([2]))


def test_o_pi_s4(s4):
    V = o_pi(s4, PiSet([2]))
    assert V.order == 4
    # the Klein four group: identity plus the three double transpositions
    orders = [s4.order_of(int(g)) for g in V.elements]
    assert sorted(orders) == [1, 2, 2, 2]


def test_o_pi_s3_c6(s3, c6):
    assert o_pi(s3, PiSet([2])).order == 1
    assert o_pi(c6, PiSet([2, 3])).order == 6
    assert o_pi(c6, PiSet([2])).order == 2


def test_pi_series_s4(s4):
    series = pi_series(s4, PiSet([2]))
    assert [t.order for t in series.terms] == [1, 4, 12, 24]
    assert series.reaches_group
    assert series.factor_pi_tags == ["pi", "pi_prime", "pi"]


def test_pi_series_a5(a5):
    series = pi_series(a5, PiSet([2]))
    assert not series.reaches_group
    assert [t.order for t in series.terms] == [1]
    assert not is_p_solvable(a5, 2)


def test_pi_series_c6(c6):
    series = pi_series(c6, PiSet([2]))
    assert [t.order for t in series.terms] == [1, 2, 6]
    assert series.reaches_group


def test_quotient_s4_v4(s4):
    V = o_pi(s4, PiSet([2]))
    quot = quotient_group(s4, V)
    assert quot.group.order == 6
    assert not quot.group.is_abelian()
    # projection is a homomorphism
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.integers(0, 24, size=2)
        assert quot.projection[s4.mul[a, b]] == \
            quot.group.mul[quot.projection[a], quot.projection[b]]
    assert np.all(quot.projection[quot.section] == np.arange(6))


def test_quotient_trivial_and_c6(s3, c6):
    q = quotient_group(s3, s3.trivial_subgroup())
    assert q.group.order == 6
    C3 = o_pi(c6, PiSet([3]))
    assert quotient_group(c6, C3).group.order == 2


def test_quotient_not_normal(s3):
    transposition = next(g for g in range(6) if s3.order_of(g) == 2)
    H = s3.subgroup(closure(s3, [transposition]))
    with pytest.raises(NotNormal):
        quotient_group(s3, H)


def test_hall_higman(s4, c6):
    assert hall_higman_check(s4, 2)
    assert hall_higman_check(c6, 2)  # vacuous: O_3(C6) != 1
    assert o_pi(c6, PiSet([3])).order > 1


def test_hall_higman_sl23():
    # SL(2,3) acting on the 8 nonzero vectors of F_3^2
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def act(m):
        return [pos[((m[0][0] * a + m[0][1] * b) % 3,
                     (m[1][0] * a + m[1][1] * b) % 3)] for a, b in vecs]

    G = build_group([act([[1, 1], [0, 1]]), act([[0, -1], [1, 0]])], name="SL(2,3)")
    assert G.order == 24
    assert hall_higman_check(G, 2)
    assert is_solvable(G)


def test_commutator_subgroup(s4, s3, c6):
    assert commutator_subgroup(s4).order == 12
    assert commutator_subgroup(s3).order == 3
    assert commutator_subgroup(c6).order == 1


def test_solvability(s3, s4, a5, c6):
    assert is_solvable(s3) and is_solvable(s4) and is_solvable(c6)
    assert not is_solvable(a5)


def test_normalizer_and_closure(s4):
    P = sylow_subgroup(s4, 3)
    m = P.mask()
    normalizer = [g for g in range(s4.order)
                  if m[s4.mul[s4.mul[s4.inv[g], P.elements], g]].all()]
    assert len(normalizer) == 6
    assert closure(s4, [0]).size == 1


def test_subgroup_as_group_roundtrip(s4):
    P = sylow_subgroup(s4, 2)
    D = P.as_group()
    assert D.order == 8
    # embedding respects multiplication
    el = P.elements
    for i in range(8):
        for j in range(8):
            assert el[D.mul[i, j]] == s4.mul[el[i], el[j]]


def test_as_group_shared_per_table(s3, s4):
    # two subgroup objects with one re-indexed table give one group, also
    # across parents: every subgroup of order 2 re-indexes to the C2 table
    P = sylow_subgroup(s4, 2)
    assert P.as_group() is s4.subgroup(P.elements).as_group()
    t3 = next(g for g in range(6) if s3.order_of(g) == 2)
    t4 = next(g for g in range(24) if s4.order_of(g) == 2)
    assert s3.subgroup([0, t3]).as_group() is s4.subgroup([0, t4]).as_group()


def test_quotient_group_shared_per_table(s4, c6):
    V = o_pi(s4, PiSet([2]))
    assert quotient_group(s4, V).group is quotient_group(s4, s4.subgroup(
        V.elements)).group
    # C6/C3 and a C2 subgroup of S4 have the same table
    C3 = o_pi(c6, PiSet([3]))
    t4 = next(g for g in range(24) if s4.order_of(g) == 2)
    assert quotient_group(c6, C3).group is s4.subgroup([0, t4]).as_group()


def test_built_groups_stay_out_of_the_registry(s4):
    # the full subgroup has s4's table but not its generators
    full = s4.full_subgroup().as_group()
    assert full is not s4
    assert np.array_equal(full.mul, s4.mul)
    assert quotient_group(s4, s4.trivial_subgroup()).group is full


def test_registry_race_gives_one_group():
    # threads that build the same new table at once must all get one group;
    # a lost update (plain assignment instead of setdefault) would not
    import sys
    import threading

    from projrep.groups import FiniteGroup, Subgroup

    rng = np.random.default_rng(5)
    n = 160
    cyc = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
            mul = np.empty_like(cyc)
            mul[np.ix_(perm, perm)] = perm[cyc]
            G = FiniteGroup(mul, validate=False)   # a table nobody built yet
            barrier = threading.Barrier(8)
            got = [None] * 8

            def build(i):
                barrier.wait(timeout=10)
                H = Subgroup(G, range(n))
                got[i] = (H.as_group(), H.positions())

            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(g is not None for g in got)
            assert len({id(g) for g, _ in got}) == 1
            assert got[0][0] is not G
    finally:
        sys.setswitchinterval(old)


def test_pi_set_arithmetic():
    pi = PiSet([2, 3])
    assert pi.part(24) == 24
    assert pi.part(40) == 8
    assert pi.complement_in(60).primes == frozenset([5])
    assert PiSet([]).part(12) == 1
    assert PiSet([2]).is_pi_number(8)
    assert not PiSet([2]).is_pi_number(12)


@settings(max_examples=200, deadline=None)
@given(a=arrays(st.sampled_from([np.int64, np.intp, np.int32]),
                array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                elements=st.integers(-5, 5)))
def test_sorted_unique_is_np_unique_byte_for_byte(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the smallest loop that is not a group: a Latin square with identity 0 and
# x x = 0, but (1 1) 2 = 2 while 1 (1 2) = 4
_LOOP5 = np.array([[0, 1, 2, 3, 4],
                   [1, 0, 3, 4, 2],
                   [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1],
                   [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("k", [1, 4, 20, 40, 52])
def test_associativity_check_rejects_loops(k):
    # the loop times C_k passes every other check of _validate; only some
    # triples fail associativity, spread over every chunk size, and tables
    # above order 256 are checked too
    from projrep.groups import FiniteGroup
    a, i = np.divmod(np.arange(5 * k), k)
    mul = _LOOP5[a[:, None], a[None, :]] * k + (i[:, None] + i[None, :]) % k
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(mul)
    cyc = (i[:k, None] + i[None, :k]) % k
    assert FiniteGroup(cyc).order == k


def test_associativity_check_is_chunked_by_entries():
    # about 32k table entries a chunk: validating an order-100 table traces
    # under 1 MB (row chunks of 40 traced about 6.5 MB)
    import tracemalloc

    from projrep.groups import FiniteGroup
    G = get_group("C5xC5:C4")
    tracemalloc.start()
    try:
        FiniteGroup(G.mul, generators=G.generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
