"""Catalog-wide structural properties that cut across modules."""

import numpy as np
import pytest

from projrep.catalog import catalog, coclass_contexts, get_group
from projrep.cohomology import (
    Cocycle,
    cocycle_from_extension,
    is_trivial_coclass,
    pi_part,
    schur_multiplier,
)
from projrep.groups import (
    PiSet,
    Subgroup,
    alternating_pi_series,
    default_pi_sets,
    hall_higman_check,
    hall_subgroup,
    o_pi,
    pi_series,
    preimage,
    prime_divisors,
    quotient_group,
)
from projrep.reps import (
    induce_rep,
    intertwiner_space,
    is_irreducible,
    restrict_rep,
    split_regular,
    decompose,
)
from projrep.twisted import TwistedAlgebra
from projrep.verify import _is_pi_prime_pi_pi_prime

from conftest import transport_rep_reference


def test_hall_higman_never_false_on_catalog():
    for e in catalog():
        G = get_group(e.name)
        for p in prime_divisors(G.order):
            assert hall_higman_check(G, p), (e.name, p)


def test_closure_order_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup
    from projrep.groups import build_group
    rng = np.random.default_rng(31)
    for _ in range(25):
        points = int(rng.integers(2, 7))
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            perm = rng.permutation(points)
            gens.append([int(v) + 1 for v in perm])
        sym = PermutationGroup([Permutation([g - 1 for g in gen])
                                for gen in gens])
        if sym.order() > 200:
            continue
        G = build_group(gens)
        assert G.order == sym.order()


def test_brute_force_mu4_classes_on_v4():
    # every normalized mu_4-valued cocycle on C2xC2 falls into the same two
    # complex classes; the mod-4 overcount (8 classes over Z/4) collapses
    G = get_group("C2xC2")
    mul = G.mul
    n = 9
    grids = np.indices((4,) * n).reshape(n, -1).T  # all 4^9 assignments
    tables = np.zeros((grids.shape[0], 4, 4), dtype=np.int64)
    slots = [(x, y) for x in range(1, 4) for y in range(1, 4)]
    for k, (x, y) in enumerate(slots):
        tables[:, x, y] = grids[:, k]
    lhs = tables[:, :, :, None] + tables[:, mul, :]
    rhs = tables[:, None, :, :] + tables[:, :, mul]
    valid = np.all(((lhs - rhs) % 4).reshape(grids.shape[0], -1) == 0, axis=1)
    cocycles = tables[valid]
    assert cocycles.shape[0] == 128  # |B^2(mu_4)| * |H^2(V4, Z/4)| = 16 * 8
    classes: list[list[int]] = []
    for i in range(cocycles.shape[0]):
        ti = np.exp(2j * np.pi * cocycles[i] / 4)
        placed = False
        for cls in classes:
            tj = np.exp(2j * np.pi * cocycles[cls[0]] / 4)
            if is_trivial_coclass(Cocycle.from_units(G, ti * np.conj(tj))):
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    assert sorted(len(c) for c in classes) == [64, 64]
    # the solver context agrees with the numeric partition
    mult = schur_multiplier(G)
    for cls in classes:
        vecs = {mult.resolve(Cocycle(G, 4, cocycles[i])) for i in cls}
        assert len(vecs) == 1


def test_pi_series_terms_normal_and_monotone():
    for name in ("S4", "SL(2,3)", "C6xC6", "E27+", "C2xC2xS3"):
        G = get_group(name)
        for p in prime_divisors(G.order):
            series = pi_series(G, PiSet([p]))
            orders = [t.order for t in series.terms]
            assert orders == sorted(orders)
            assert all(t.is_normal() for t in series.terms)
            assert series.reaches_group


def _o_pi_prime_pi_pi_prime_is_whole(G, pi):
    # reference: the three quotient steps of O_(pi' pi pi')(G), spelled out
    pip = pi.complement_in(G.order)
    t1 = o_pi(G, pip)
    q1 = quotient_group(G, t1)
    t2 = preimage(G, q1, o_pi(q1.group, pi))
    q2 = quotient_group(G, t2)
    t3 = preimage(G, q2, o_pi(q2.group, pip))
    return t3.order == G.order


def test_alternating_pi_series_on_catalog():
    for e in catalog():
        if e.order > 72:
            continue
        G = get_group(e.name)
        for pi in default_pi_sets(G.order):
            assert _is_pi_prime_pi_pi_prime(G, pi) == \
                _o_pi_prime_pi_pi_prime_is_whole(G, pi), (e.name, pi)
        if not e.solvable:
            continue
        for p in prime_divisors(G.order):
            pi = PiSet([p])
            alt = alternating_pi_series(G, pi)
            orders = [t.order for t in alt.terms]
            assert orders == sorted(orders), (e.name, p)
            assert all(t.is_normal() for t in alt.terms), (e.name, p)
            tags = alt.factor_pi_tags
            assert len(tags) == len(alt.terms) - 1
            assert tags == [("pi", "pi_prime")[k % 2]
                            for k in range(len(tags))], (e.name, p)
            assert alt.terms[-1].order == G.order and tags[-1] == "pi_prime"
            distinct = [alt.terms[0]] + [
                t for s, t in zip(alt.terms, alt.terms[1:])
                if t.order > s.order]
            assert [t.elements.tolist() for t in distinct] == \
                [t.elements.tolist() for t in pi_series(G, pi).terms]


def test_hall_part_restriction_injective():
    # distinct pi-parts of coclasses restrict to distinct classes on a Hall
    # pi-subgroup, tested via nontriviality of the restricted quotient
    for name, pi in (("S4", PiSet([2])), ("C6xC6", PiSet([2])),
                     ("C6xC6", PiSet([3])), ("C2xD4", PiSet([2])),
                     ("E27+", PiSet([3]))):
        G = get_group(name)
        mult = schur_multiplier(G)
        H = hall_subgroup(G, pi)
        coclasses = mult.coclasses()
        parts = [pi_part(c, pi)[0] for c in coclasses]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if parts[i] == parts[j]:
                    continue
                diff = parts[i].mul(parts[j].inverse())
                tab = diff.representative.unit_table()[
                    np.ix_(H.elements, H.elements)]
                assert not is_trivial_coclass(
                    Cocycle.from_units(H.as_group(), tab)), \
                    (name, parts[i].label(), parts[j].label())


def test_split_extension_gives_trivial_class():
    V4 = get_group("C2xC2")
    Z = Subgroup(V4, [0, 1])
    c, quot = cocycle_from_extension(V4, Z)
    assert is_trivial_coclass(Cocycle.from_units(quot.group, c.unit_table()))
    # and the nonsplit covers give nontrivial ones (checked elsewhere too)
    Q8 = get_group("Q8")
    from conftest import center_subgroup
    cq, quotq = cocycle_from_extension(Q8, center_subgroup(Q8))
    assert not is_trivial_coclass(Cocycle.from_units(quotq.group,
                                                     cq.unit_table()))


@pytest.mark.parametrize("gname,coclass_index", [
    ("S3", 0), ("A4", 0), ("S4", 1),
])
def test_induction_bijection(gname, coclass_index):
    # induction is a bijection Irr(J|c,V) -> Irr(G|c,V): induced modules are
    # irreducible, pairwise non-isomorphic, and exhaust the fiber over V
    ctx = coclass_contexts(gname)[coclass_index]
    G = ctx.group
    A = ctx.algebra
    N = next(op for op in (o_pi(G, PiSet([p]))
                           for p in reversed(prime_divisors(G.order)))
             if 1 < op.order < G.order)
    res_alg = TwistedAlgebra(N.as_group(),
                             A.table[np.ix_(N.elements, N.elements)])
    V = split_regular(res_alg, seed=ctx.seed)[-1]
    from projrep.reps import inertia_group
    J = inertia_group(V, N, A)
    AJ = TwistedAlgebra(J.as_group(),
                        A.table[np.ix_(J.elements, J.elements)])
    n_in_j = Subgroup(J.as_group(), J.positions()[N.elements])
    fiber_J = [X for X in split_regular(AJ, seed=ctx.seed)
               if intertwiner_space(V, restrict_rep(X, n_in_j))[0] > 0]
    induced = [induce_rep(X, J, A) for X in fiber_J]
    for ind in induced:
        assert is_irreducible(ind)
    for i in range(len(induced)):
        for j in range(i + 1, len(induced)):
            assert intertwiner_space(induced[i], induced[j])[0] == 0
    fiber_G = [X for X in ctx.irreps
               if intertwiner_space(V, restrict_rep(X, N))[0] > 0]
    assert len(fiber_G) == len(induced)
    matched = 0
    for X in fiber_G:
        matched += sum(intertwiner_space(ind, X)[0] for ind in induced)
    assert matched == len(fiber_G)


def test_mackey_constituent_multisets():
    # constituent multisets of both Mackey sides agree on small S4 pairs
    ctx = coclass_contexts("S4")[0]
    G = ctx.group
    A = ctx.algebra
    from projrep.groups import sylow_subgroup
    H = sylow_subgroup(G, 2)
    L = sylow_subgroup(G, 3)
    U = split_regular(TwistedAlgebra(
        H.as_group(), A.table[np.ix_(H.elements, H.elements)]), seed=0)[-1]
    indU = induce_rep(U, H, A)

    def key(rep):
        from projrep.groups import conjugacy_classes
        chi = [np.trace(rep.matrices[c.representative])
               for c in conjugacy_classes(rep.group)]
        return tuple((round(v.real, 6), round(v.imag, 6)) for v in chi)

    lhs = sorted((c.rep.degree, key(c.rep), c.multiplicity)
                 for c in decompose(restrict_rep(indU, L)))
    pieces = []
    assigned = np.zeros(G.order, dtype=bool)
    reps_t = []
    for g in range(G.order):
        if assigned[g]:
            continue
        reps_t.append(g)
        block = G.mul[np.ix_(G.mul[H.elements, g].reshape(-1), L.elements)]
        assigned[np.unique(block)] = True
    Lg = L.as_group()
    A_L = TwistedAlgebra(Lg, A.table[np.ix_(L.elements, L.elements)])
    for t in reps_t:
        Ut, Ht = transport_rep_reference(U, H, t, A)
        inter = np.array(sorted(set(Ht.elements.tolist())
                                & set(L.elements.tolist())))
        K_loc = Subgroup(Ht.as_group(), Ht.positions()[inter])
        K_in_L = Subgroup(Lg, L.positions()[inter])
        resU = restrict_rep(Ut, K_loc)
        from projrep.reps import ProjRep
        piece = ProjRep(K_in_L.as_group(), resU.table, resU.matrices,
                        check=False)
        pieces.append(induce_rep(piece, K_in_L, A_L))
    rhs_constituents = []
    for p in pieces:
        rhs_constituents.extend(decompose(p))
    merged: dict = {}
    for c in rhs_constituents:
        k = (c.rep.degree, key(c.rep))
        merged[k] = merged.get(k, 0) + c.multiplicity
    rhs = sorted((d, k, m) for (d, k), m in merged.items())
    assert lhs == rhs
