"""Tests for projective representations and the Clifford operations."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projrep import reps
from projrep.cohomology import (
    Cocycle,
    cocycle_from_extension,
    is_trivial_coclass,
    schur_multiplier,
    trivial_cocycle,
)
from projrep.catalog import catalog, coclass_contexts
from projrep.errors import CocycleMismatch, NumericDegeneracy
from projrep.groups import (
    PiSet,
    Subgroup,
    build_group,
    closure,
    conjugacy_classes,
    o_pi,
)
from projrep.reps import (
    ProjRep,
    character,
    clifford_extend,
    conjugate_rep,
    decompose,
    factor_over_extension,
    hom_dim,
    induce_rep,
    inertia_group,
    intertwiner_space,
    is_irreducible,
    restrict_rep,
    split_regular,
    tensor_reps,
)
from projrep.twisted import TwistedAlgebra, c_regular_classes

from conftest import center_subgroup


def ordinary(G):
    return TwistedAlgebra.from_cocycle(trivial_cocycle(G))


@pytest.fixture(scope="module")
def s3_reps(s3g):
    return split_regular(ordinary(s3g), seed=0)


@pytest.fixture(scope="module")
def v4_twisted_rep(q8g):
    c, quot = cocycle_from_extension(q8g, center_subgroup(q8g))
    A = TwistedAlgebra.from_cocycle(c)
    reps = split_regular(A, seed=0)
    return A, reps


def test_split_regular_s3(s3g, s3_reps):
    assert [r.degree for r in s3_reps] == [1, 1, 2]
    chi = character(s3_reps[-1])
    assert np.allclose(chi, [2, 0, -1], atol=1e-8)
    for r in s3_reps:
        assert is_irreducible(r)
        assert r.defect(full=True) < 1e-8


def test_split_regular_trivial_group():
    G = build_group([], name="C1")
    reps = split_regular(ordinary(G), seed=0)
    assert len(reps) == 1 and reps[0].degree == 1


def test_split_regular_twisted_v4(v4_twisted_rep):
    A, reps = v4_twisted_rep
    assert len(reps) == 1 and reps[0].degree == 2
    r = reps[0]
    g1, g2 = A.group.gen_set()[:2]
    anti = r.matrices[g1] @ r.matrices[g2] + r.matrices[g2] @ r.matrices[g1]
    assert np.max(np.abs(anti)) < 1e-8  # generator images anticommute
    assert np.allclose(character(r), [2, 0, 0, 0], atol=1e-8)


def test_is_irreducible_direct_sum(s3_reps):
    r = s3_reps[0]
    mats = np.stack([np.kron(np.eye(2), r.matrices[g])[:2, :2] for g in range(6)])
    # a plain 2-fold direct sum of a linear character
    from projrep.reps import ProjRep
    double = ProjRep(r.group, r.table,
                     np.stack([np.diag([r.matrices[g][0, 0]] * 2)
                               for g in range(6)]))
    assert not is_irreducible(double)
    assert intertwiner_space(double, r)[0] == 2


def test_restrict_rep(s3g, s3_reps):
    r2 = s3_reps[-1]
    full = Subgroup(s3g, range(6))
    assert intertwiner_space(restrict_rep(r2, full), r2)[0] == 1
    C3 = o_pi(s3g, PiSet([3]))
    res = restrict_rep(r2, C3)
    cons = decompose(res)
    assert [c.rep.degree for c in cons] == [1, 1]
    assert all(c.multiplicity == 1 for c in cons)
    # two distinct linears
    assert intertwiner_space(cons[0].rep, cons[1].rep)[0] == 0
    triv = Subgroup(s3g, [0])
    res0 = restrict_rep(r2, triv)
    assert np.allclose(res0.matrices[0], np.eye(2))


def test_decompose_restriction_to_c2(v4_twisted_rep):
    A, reps = v4_twisted_rep
    r = reps[0]
    # the restricted cocycle class on C2 is trivial, but phi(x)^2 = -1 with
    # tr phi(x) = 0, so the restriction is two distinct linears
    C2 = Subgroup(A.group, closure(A.group, [1]))
    res = restrict_rep(r, C2)
    assert is_trivial_coclass(Cocycle.from_units(C2.as_group(), res.table))
    cons = decompose(res)
    assert [c.rep.degree for c in cons] == [1, 1]
    assert [c.multiplicity for c in cons] == [1, 1]
    assert intertwiner_space(cons[0].rep, cons[1].rep)[0] == 0
    assert sum(c.multiplicity * c.rep.degree for c in cons) == r.degree


def test_decompose_true_multiplicity(s3g):
    # a genuine multiplicity-2 case: double a linear character
    from projrep.reps import ProjRep
    lin = split_regular(ordinary(s3g), seed=0)[1]
    double = ProjRep(s3g, lin.table,
                     np.stack([np.diag([lin.matrices[g][0, 0]] * 2)
                               for g in range(6)]))
    cons = decompose(double)
    assert len(cons) == 1 and cons[0].multiplicity == 2


def test_intertwiner_schur(s3_reps):
    for r in s3_reps:
        assert intertwiner_space(r, r)[0] == 1
    assert intertwiner_space(s3_reps[0], s3_reps[1])[0] == 0


def _direct_sum(r1, r2):
    d1, d2 = r1.degree, r2.degree
    mats = np.zeros((r1.group.order, d1 + d2, d1 + d2), dtype=np.complex128)
    mats[:, :d1, :d1] = r1.matrices
    mats[:, d1:, d1:] = r2.matrices
    return ProjRep(r1.group, r1.table, mats)


def _normal_closures(G):
    """The normal closure of each conjugacy class, without repeats."""
    out = {}
    for cls in conjugacy_classes(G):
        N = Subgroup(G, closure(G, [int(x) for x in cls.members]))
        out.setdefault(N.elements.tobytes(), N)
    return list(out.values())


def test_hom_dim_equals_intertwiner_count():
    # the character inner product counts what the Sylvester solve counts:
    # pairs of irreducibles, a direct sum of two copies, and restrictions
    # to normal subgroups against the subgroup's irreducibles
    bad = []
    for e in catalog():
        if e.order > 24:
            continue
        for ctx in coclass_contexts(e.name):
            irreps = ctx.irreps
            for a in irreps:
                for b in irreps:
                    if hom_dim(a, b) != intertwiner_space(a, b)[0]:
                        bad.append((e.name, ctx.label, a.degree, b.degree))
            V = irreps[-1]
            double = _direct_sum(V, V)
            for a, b in ((double, double), (V, double), (double, V)):
                if hom_dim(a, b) != intertwiner_space(a, b)[0]:
                    bad.append((e.name, ctx.label, "sum", a.degree, b.degree))
            for N in _normal_closures(ctx.group):
                sub = split_regular(ctx.restricted(N), seed=ctx.seed)
                for X in irreps:
                    res = restrict_rep(X, N)
                    for W in sub:
                        if hom_dim(W, res) != intertwiner_space(W, res)[0]:
                            bad.append((e.name, ctx.label, N.order,
                                        W.degree, X.degree))
    assert bad == []


def test_hom_dim_rejects_a_non_unitary_matrix(s3_reps):
    r = s3_reps[-1]
    chi = np.abs(np.trace(r.matrices, axis1=1, axis2=2))
    g = int(np.argmax(chi[1:])) + 1
    mats = r.matrices.copy()
    mats[g] *= 1.1
    scaled = ProjRep(r.group, r.table, mats, check=False)
    with pytest.raises(NumericDegeneracy):
        hom_dim(scaled, scaled)


def test_hom_dim_cocycle_mismatch(s3_reps, v4_twisted_rep):
    _, vreps = v4_twisted_rep
    with pytest.raises(CocycleMismatch):
        hom_dim(s3_reps[0], vreps[0])
    r = s3_reps[0]
    other = ProjRep(r.group, -r.table, r.matrices, check=False)
    with pytest.raises(CocycleMismatch):
        hom_dim(r, other)


def test_intertwiner_cocycle_mismatch(s3_reps, v4_twisted_rep):
    _, twisted = v4_twisted_rep
    with pytest.raises(CocycleMismatch):
        intertwiner_space(s3_reps[0], twisted[0])


def test_conjugate_rep(s3g, s3_reps):
    A = ordinary(s3g)
    C3 = o_pi(s3g, PiSet([3]))
    lins = split_regular(ordinary(C3.as_group()), seed=0)
    nt = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) > 1e-6]
    assert len(nt) == 2
    transposition = next(g for g in range(6) if s3g.order_of(g) == 2)
    conj = conjugate_rep(nt[0], C3, transposition, A)
    assert intertwiner_space(conj, nt[1])[0] == 1
    assert intertwiner_space(conj, nt[0])[0] == 0
    # g = 1 gives the same rep; inner elements give isomorphic reps
    same = conjugate_rep(nt[0], C3, 0, A)
    assert np.allclose(same.matrices, nt[0].matrices)
    inner = conjugate_rep(nt[0], C3, int(C3.elements[1]), A)
    assert intertwiner_space(inner, nt[0])[0] == 1


def test_inertia_group(s3g, a4g, s3_reps):
    A = ordinary(s3g)
    C3 = o_pi(s3g, PiSet([3]))
    lins = split_regular(ordinary(C3.as_group()), seed=0)
    nt = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) > 1e-6]
    assert inertia_group(nt[0], C3, A).order == 3
    triv_lin = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) < 1e-6]
    assert inertia_group(triv_lin[0], C3, A).order == 6  # invariant rep
    # A4 / V4: nontrivial linears of V4 fall in orbits of size 3
    AA = ordinary(a4g)
    V4 = o_pi(a4g, PiSet([2]))
    vlins = split_regular(ordinary(V4.as_group()), seed=0)
    for r in vlins:
        J = inertia_group(r, V4, AA)
        chi1 = np.trace(r.matrices[1]) + np.trace(r.matrices[2]) + \
            np.trace(r.matrices[3])
        if abs(chi1 - 3) < 1e-6:
            assert J.order == 12  # trivial linear is invariant
        else:
            assert J.order == 4


def test_clifford_extend_at_n(s3g, s3_reps):
    # J = N: the extension is the rep itself with beta = restricted cocycle
    A = ordinary(s3g)
    C3 = o_pi(s3g, PiSet([3]))
    lins = split_regular(ordinary(C3.as_group()), seed=0)
    nt = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) > 1e-6][0]
    J = inertia_group(nt, C3, A)
    ext = clifford_extend(nt, C3, J, A)
    assert ext.extension.degree == 1
    assert np.max(np.abs(ext.beta - nt.table)) < 1e-9
    assert ext.quotient.group.order == 1


def test_clifford_extend_coprime(c6g):
    A = ordinary(c6g)
    C3 = o_pi(c6g, PiSet([3]))
    lins = split_regular(ordinary(C3.as_group()), seed=0)
    for V in lins:
        J = inertia_group(V, C3, A)
        assert J.order == 6
        ext = clifford_extend(V, C3, J, A)
        # coprime indices: the quotient obstruction class is trivial
        assert is_trivial_coclass(Cocycle.from_units(ext.quotient.group,
                                                     ext.b_table))
        W = factor_over_extension(ext.extension, ext)
        assert W.degree == 1


def test_clifford_extend_twisted(a4g):
    # V4 inside A4 with the nontrivial A4-coclass: the twisted degree-2
    # rep of V4 is invariant and extends with a nontrivial quotient factor
    m = schur_multiplier(a4g)
    calg = m.coclass([1]).representative
    A = TwistedAlgebra.from_cocycle(calg)
    V4 = o_pi(a4g, PiSet([2]))
    Vt = split_regular(TwistedAlgebra.from_cocycle(calg.restrict(V4)), seed=0)[0]
    assert Vt.degree == 2
    J = inertia_group(Vt, V4, A)
    assert J.order == 12
    ext = clifford_extend(Vt, V4, J, A)
    assert ext.extension.degree == 2
    assert ext.quotient.group.order == 3
    # obstruction rows and columns trivial on N
    nel = ext.n_in_j.elements
    assert np.max(np.abs(ext.delta[nel, :] - 1)) < 1e-6
    assert np.max(np.abs(ext.delta[:, nel] - 1)) < 1e-6
    # every irreducible over the restricted coclass factors through it
    Jg = J.as_group()
    AJ = TwistedAlgebra(Jg, A.table[np.ix_(J.elements, J.elements)])
    for X in split_regular(AJ, seed=0):
        W = factor_over_extension(X, ext)
        assert W.degree == 1
        assert X.degree == ext.extension.degree * W.degree


def test_factor_self_gives_trivial(c6g):
    A = ordinary(c6g)
    C3 = o_pi(c6g, PiSet([3]))
    V = split_regular(ordinary(C3.as_group()), seed=0)[1]
    ext = clifford_extend(V, C3, inertia_group(V, C3, A), A)
    W = factor_over_extension(ext.extension, ext)
    assert W.degree == 1
    assert np.max(np.abs(W.table - 1)) < 1e-9  # X = Y leaves no obstruction


def test_induce_rep(s3g, s3_reps):
    A = ordinary(s3g)
    C3 = o_pi(s3g, PiSet([3]))
    lins = split_regular(ordinary(C3.as_group()), seed=0)
    nt = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) > 1e-6][0]
    ind = induce_rep(nt, C3, A)
    assert ind.degree == 2
    assert is_irreducible(ind)
    assert np.allclose(character(ind), [2, 0, -1], atol=1e-8)
    # inducing the trivial rep of the trivial subgroup gives the regular rep
    triv = Subgroup(s3g, [0])
    one = split_regular(ordinary(triv.as_group()), seed=0)[0]
    reg = induce_rep(one, triv, A)
    assert reg.degree == 6
    assert np.allclose(character(reg, c_regular_classes(A)), [6, 0, 0],
                       atol=1e-8)


def test_tensor_reps(v4_twisted_rep, q8g):
    A, reps = v4_twisted_rep
    r = reps[0]
    sq = tensor_reps(r, r)
    assert np.max(np.abs(sq.table - 1)) < 1e-9  # cocycle squares away
    cons = decompose(sq)
    assert sum(c.multiplicity * c.rep.degree for c in cons) == 4
    assert all(c.rep.degree == 1 for c in cons)
    # ordinary V4: product of two nontrivial linears is the third
    lins = split_regular(ordinary(A.group), seed=0)
    nt = [x for x in lins
          if any(abs(np.trace(x.matrices[g]) - 1) > 1e-6 for g in range(1, 4))]
    t = tensor_reps(nt[0], nt[1])
    matches = [intertwiner_space(t, x)[0] for x in lins]
    assert sum(matches) == 1
    hit = lins[matches.index(1)]
    assert intertwiner_space(hit, nt[0])[0] == 0
    assert intertwiner_space(hit, nt[1])[0] == 0


def test_character_values(s3_reps, v4_twisted_rep):
    keys = [tuple(np.round(character(r), 6)) for r in s3_reps]
    assert (1, 1, 1) in [tuple(int(v.real) for v in k) for k in keys[:2]]
    _, twisted = v4_twisted_rep
    chi = character(twisted[0])
    assert abs(chi[0] - twisted[0].degree) < 1e-8


def test_frobenius_reciprocity_dimensions(s4g):
    # dim Hom_G(ind U, X) = dim Hom_H(U, res X) on a sample of subgroups
    A = ordinary(s4g)
    reps_G = split_regular(A, seed=0)
    for seed_el in (1, 5, 9):
        H = Subgroup(s4g, closure(s4g, [seed_el]))
        if H.order == s4g.order:
            continue
        U = split_regular(ordinary(H.as_group()), seed=0)[-1]
        ind = induce_rep(U, H, A)
        for X in reps_G:
            lhs = intertwiner_space(ind, X)[0]
            rhs = intertwiner_space(U, restrict_rep(X, H))[0]
            assert lhs == rhs


def test_clifford_i_constant_multiplicity(s4g):
    # restriction to a normal subgroup: conjugate constituents, equal mults
    A = ordinary(s4g)
    V4 = o_pi(s4g, PiSet([2]))
    for X in split_regular(A, seed=0):
        cons = decompose(restrict_rep(X, V4))
        mults = {c.multiplicity for c in cons}
        assert len(mults) == 1
        degs = {c.rep.degree for c in cons}
        assert len(degs) == 1


def _random_matrices(draw, n, d):
    return draw(arrays(np.complex128, (n, d, d), elements=st.complex_numbers(
        max_magnitude=4, allow_nan=False, allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(d1=st.integers(1, 4), d2=st.integers(1, 4), data=st.data())
def test_kron_products_bitwise_equal_to_np_kron(s3g, d1, d2, data):
    # arbitrary (non-unitary) matrices, signed zeros included: the broadcast
    # products must equal the per-element np.kron loop bit for bit
    n = s3g.order
    ones = np.ones((n, n), dtype=np.complex128)
    r1 = ProjRep(s3g, ones, _random_matrices(data.draw, n, d1), check=False)
    r2 = ProjRep(s3g, ones, _random_matrices(data.draw, n, d2), check=False)
    want = np.stack([np.kron(r1.matrices[g], r2.matrices[g]) for g in range(n)])
    assert tensor_reps(r1, r2).matrices.tobytes() == want.tobytes()
    gens = s3g.gen_set()
    want = np.concatenate([np.kron(np.eye(d2), r1.matrices[g].T)
                           - np.kron(r2.matrices[g], np.eye(d1))
                           for g in gens], axis=0)
    with mock.patch.object(reps, "_nullspace",
                           wraps=reps._nullspace) as nullspace:
        intertwiner_space(r1, r2)
    (stack,), _ = nullspace.call_args
    assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
