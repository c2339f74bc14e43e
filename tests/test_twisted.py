"""Tests for the twisted group algebra layer."""

import random

import numpy as np
import pytest

from projrep.cohomology import cocycle_from_extension, schur_multiplier, \
    trivial_cocycle
from projrep.errors import CocycleMismatch
from projrep.groups import conjugacy_classes
from projrep.twisted import (
    TwistedAlgebra,
    alpha_tilde,
    c_regular_classes,
    center_basis,
    gaussians,
    wedderburn,
)

from conftest import center_subgroup


@pytest.fixture(scope="module")
def v4_twisted(q8g):
    c, quot = cocycle_from_extension(q8g, center_subgroup(q8g))
    return TwistedAlgebra.from_cocycle(c)


def test_alpha_tilde_trivial(s3g):
    A = TwistedAlgebra.from_cocycle(trivial_cocycle(s3g))
    for x in range(6):
        for g in range(6):
            assert alpha_tilde(A, x, g) == 1.0


def test_alpha_tilde_normalized(v4_twisted):
    for x in range(4):
        assert abs(alpha_tilde(v4_twisted, x, 0) - 1.0) < 1e-12


def test_alpha_tilde_q8_sign(v4_twisted):
    # for x nonidentity and g outside <x>, conjugation picks up a sign
    vals = set()
    for x in range(1, 4):
        for g in range(1, 4):
            if g != x:
                vals.add(round(alpha_tilde(v4_twisted, x, g).real))
    assert vals == {-1}


def test_c_regular_trivial_cocycle(s3g):
    A = TwistedAlgebra.from_cocycle(trivial_cocycle(s3g))
    data = c_regular_classes(A)
    assert all(data.flags)
    assert data.regular_count == len(conjugacy_classes(s3g))


def test_c_regular_v4_twisted(v4_twisted):
    data = c_regular_classes(v4_twisted)
    assert data.regular_count == 1
    assert data.records[0].c_regular  # identity class


def test_center_basis_counts(s3g, v4_twisted):
    A = TwistedAlgebra.from_cocycle(trivial_cocycle(s3g))
    assert len(center_basis(A)) == 3
    assert len(center_basis(v4_twisted)) == 1


def test_wedderburn_s3(s3g):
    A = TwistedAlgebra.from_cocycle(trivial_cocycle(s3g))
    w = wedderburn(A, seed=0)
    assert w.degrees == [1, 1, 2]
    assert sum(d * d for d in w.degrees) == 6
    assert w.residual < 1e-8


def test_wedderburn_v4_twisted(v4_twisted):
    w = wedderburn(v4_twisted, seed=0)
    assert w.degrees == [2]


def test_wedderburn_a5_covering(sl25g):
    c, quot = cocycle_from_extension(sl25g, center_subgroup(sl25g))
    A = TwistedAlgebra.from_cocycle(c)
    w = wedderburn(A, seed=0)
    assert w.degrees == [2, 2, 4, 6]
    assert sum(d * d for d in w.degrees) == 60
    assert c_regular_classes(A).regular_count == 4


def test_wedderburn_seed_reproducible(s4g):
    A = TwistedAlgebra.from_cocycle(trivial_cocycle(s4g))
    w1 = wedderburn(A, seed=42)
    A2 = TwistedAlgebra.from_cocycle(trivial_cocycle(s4g))
    w2 = wedderburn(A2, seed=42)
    assert w1.degrees == w2.degrees
    for e1, e2 in zip(w1.idempotents, w2.idempotents):
        assert np.allclose(e1, e2)


@pytest.mark.parametrize("name,index,expect", [
    ("S4", 1, [2, 2, 4]),        # spin representations of the double covers
    ("A4", 1, [2, 2, 2]),        # SL(2,3) with faithful central character
    ("D6", 1, [2, 2, 2]),        # binary dihedral
    ("D4", 1, [2, 2]),
    ("C2xC2xC2", 1, [2, 2]),
    ("C4xC4", 1, [4]),           # order-4 class: radical is trivial
    ("C4xC4", 2, [2, 2, 2, 2]),  # its square: radical of index 4
    ("E27+", 1, [3, 3, 3]),
    ("C6xC6", 1, [6]),
])
def test_twisted_degrees_known_values(name, index, expect):
    from projrep.catalog import coclass_contexts
    ctx = coclass_contexts(name)[index]
    assert wedderburn(ctx.algebra, seed=0).degrees == expect


def test_degree_count_matches_regular_classes(s4g, d4g, a4g):
    for G in (s4g, d4g, a4g):
        m = schur_multiplier(G)
        for c in m.coclasses():
            A = TwistedAlgebra.from_cocycle(c.representative)
            w = wedderburn(A, seed=0)
            data = c_regular_classes(A)
            assert len(w.degrees) == data.regular_count
            assert sum(d * d for d in w.degrees) == G.order
            o = c.order
            assert all(d % o == 0 for d in w.degrees)


def test_trivial_coclass_linear_count(s4g, s3g):
    from projrep.groups import commutator_subgroup
    for G in (s4g, s3g):
        A = TwistedAlgebra.from_cocycle(trivial_cocycle(G))
        w = wedderburn(A, seed=0)
        ab_order = G.order // commutator_subgroup(G).order
        assert sum(1 for d in w.degrees if d == 1) == ab_order


def test_coboundary_invariance(v4_twisted, q8g):
    G = v4_twisted.group
    m = schur_multiplier(G)
    base = wedderburn(v4_twisted, seed=0)
    flags = c_regular_classes(v4_twisted).flags
    rng = np.random.default_rng(9)
    for _ in range(5):
        # perturb by a coboundary of a random complex-unit cochain
        phases = np.exp(2j * np.pi * rng.random(G.order))
        phases[0] = 1.0
        tab = v4_twisted.table * phases[:, None] * phases[None, :] \
            / phases[G.mul]
        B = TwistedAlgebra(G, tab)
        assert wedderburn(B, seed=0).degrees == base.degrees
        assert c_regular_classes(B).flags == flags


def _c_regular_reference(G, table, modulus):
    """x is c-regular iff a(x, g) = a(g, x) mod m for every g commuting
    with x, one g at a time."""
    return [all((int(table[x, g]) - int(table[g, x])) % modulus == 0
                for g in range(G.order) if G.mul[x, g] == G.mul[g, x])
            for x in (c.representative for c in conjugacy_classes(G))]


def test_c_regular_flags_are_exact_on_every_coclass():
    from projrep.catalog import catalog, coclass_contexts
    contexts = [ctx for e in catalog() for ctx in coclass_contexts(e.name)]
    assert len(contexts) == 123
    for ctx in contexts:
        c = ctx.cocycle
        assert c_regular_classes(ctx.algebra).flags == \
            _c_regular_reference(ctx.group, c.table, c.modulus), \
            (ctx.group.name, ctx.label)


def test_complex_tables_round_once_or_are_refused(s4g):
    # a complex table is held with the exact mu_n exponents of its class.
    # Refused: one entry rotated by 1e-6 turns, one off the unit circle, a
    # row of the identity moved, and two entries of a row moved by opposite
    # 24th roots, which keeps the row sum: its mu_n form is exact and fails
    # the identity
    mult = schur_multiplier(s4g)
    c = mult.coclass([1]).representative
    A = TwistedAlgebra(s4g, c.unit_table())
    assert A.cocycle.modulus == s4g.order
    assert mult.resolve(A.cocycle) == (1,)
    w = np.exp(2j * np.pi / 24)
    faults = [([(5, 7, np.exp(2j * np.pi * 1e-6))], "from a mu_24 cocycle"),
              ([(5, 7, 1 + 1e-6)], "off the unit circle"),
              ([(0, 7, -1.0)], "not normalized"),
              ([(5, 7, w), (5, 8, 1 / w)], "violates the cocycle identity")]
    for changes, reason in faults:
        tab = c.unit_table()
        for x, y, factor in changes:
            tab[x, y] *= factor
        with pytest.raises(CocycleMismatch, match=reason):
            TwistedAlgebra(s4g, tab)


def test_algebra_freezes_its_own_table_only(s4g):
    # the algebra's table is read-only; the caller's array stays writeable,
    # and a later write to it does not reach the algebra
    tab = schur_multiplier(s4g).coclass([1]).representative.unit_table()
    A = TwistedAlgebra(s4g, tab)
    assert tab.flags.writeable and not A.table.flags.writeable
    tab[1, 1] = 0
    assert abs(A.table[1, 1]) == 1
    B = TwistedAlgebra.from_cocycle(A.cocycle)
    assert not B.table.flags.writeable


def test_star_antiautomorphism(v4_twisted):
    A = v4_twisted
    rng = np.random.default_rng(2)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = A.star(A.multiply(u, v))
    rhs = A.multiply(A.star(v), A.star(u))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_regular_matrices_unitary(v4_twisted):
    e = np.eye(4, dtype=np.complex128)
    for g in range(4):
        for M in (v4_twisted.action_matrix(e[g]),
                  v4_twisted.right_action_matrix(e[g])):
            assert np.max(np.abs(M @ M.conj().T - np.eye(4))) < 1e-12


def test_gaussians_are_a_pure_function_of_their_seed():
    first = gaussians(17, 40)
    random.seed(5)  # the process-wide generator is not the one drawn from
    assert np.array_equal(gaussians(17, 40), first)
    assert np.array_equal(gaussians(17, 10), first[:10])
    assert not np.array_equal(gaussians(18, 40), first)
    assert first.dtype == np.complex128 and gaussians(3, 0).shape == (0,)
    # Box-Muller on random.Random(0), whose first uniforms are pinned
    u, v = 0.8444218515250481, 0.7579544029403025
    expected = np.sqrt(-2 * np.log(1 - u)) * np.exp(2j * np.pi * v)
    assert gaussians(0, 1)[0] == pytest.approx(expected, rel=1e-12)
    draws = gaussians(0, 4000)
    for part in (draws.real, draws.imag):
        assert abs(part.mean()) < 0.1 and abs(part.std() - 1) < 0.1
