"""The exact test of cocycle-class triviality and order.

The Wedderburn degree-one test it replaced is kept below as a reference: a
class is trivial iff its twisted group algebra has a block of degree one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projrep import twisted
from projrep.catalog import catalog, coclass_contexts, entry, get_group
from projrep.cohomology import (
    Cocycle,
    _flat,
    _generators,
    class_order,
    is_trivial_coclass,
    mu_n_exponents,
    schur_multiplier,
    solve_mod_prime_power,
    trivial_cocycle,
)
from projrep.errors import CocycleMismatch
from projrep.groups import prime_divisors, sylow_subgroup
from projrep.tolerances import TOL_UNIT
from projrep.twisted import TwistedAlgebra, wedderburn

SMALL = [e.name for e in catalog() if e.order <= 60]


def _is_trivial_coclass_numeric_reference(G, unit_table, seed=0):
    # the replaced numeric test: a degree-1 block trivializes the cocycle
    return 1 in wedderburn(TwistedAlgebra(G, unit_table), seed=seed).degrees


def _cases():
    """(group, exponent table, modulus, multiplier) for every power c^k,
    k = 1..3, of every coclass of every catalog group of order <= 60, and
    every coclass restricted to every Sylow subgroup."""
    for name in SMALL:
        G = get_group(name)
        mult = schur_multiplier(G)
        for c in mult.coclasses():
            for k in (1, 2, 3):
                rep = c.power(k).representative
                yield G, rep.table, rep.modulus, mult
            for p in prime_divisors(G.order):
                rc = c.representative.restrict(sylow_subgroup(G, p))
                yield rc.group, rc.table, rc.modulus, schur_multiplier(rc.group)


def test_exact_test_agrees_with_the_multiplier_and_the_numeric_test():
    count = nontrivial = 0
    worst = 0.0
    for H, table, m, mult in _cases():
        units = np.exp(2j * np.pi * table / m)
        expected = not any(mult.resolve(table, m))
        assert is_trivial_coclass(H, table, m) == expected, (H.name, m)
        assert is_trivial_coclass(H, units) == expected, (H.name, m)
        assert _is_trivial_coclass_numeric_reference(H, units) == expected
        worst = max(worst, mu_n_exponents(H, units)[1])
        count += 1
        nontrivial += not expected
    assert count == 520 and nontrivial > 0
    assert worst < TOL_UNIT


def test_class_order_matches_the_multiplier():
    for name in SMALL:
        for c in schur_multiplier(get_group(name)).coclasses():
            assert class_order(c.representative) == c.order, (name, c.label())


def _coboundary_columns_reference(G):
    """delta of the unit 1-cochains, one flattened column per nonidentity g:
    entry (x, y) of column g is [x = g] + [y = g] - [xy = g]."""
    m = G.order - 1
    out = np.zeros((m * m, m), dtype=np.int64)
    for x in range(1, G.order):
        for y in range(1, G.order):
            r = (x - 1) * m + y - 1
            out[r, x - 1] += 1
            out[r, y - 1] += 1
            if G.mul[x, y]:
                out[r, G.mul[x, y] - 1] -= 1
    return out


def test_c2_sign_cocycle_is_trivial():
    # a(g, g) = -1 on C2 is delta(lambda) with lambda(g) = i: a coboundary
    # in C* but not in mu_2, so solving mod 2 before normalizing fails
    G = get_group("C2")
    table = np.array([[0, 0], [0, 1]])
    assert solve_mod_prime_power(_coboundary_columns_reference(G),
                                 _flat(table), 2, 1) is None
    assert is_trivial_coclass(G, table, 2)
    assert is_trivial_coclass(G, np.exp(1j * np.pi * table))
    assert class_order(Cocycle(G, 2, table)) == 1


def test_exponent_tables_need_no_rounding():
    G = get_group("C2xC2")
    rep = schur_multiplier(G).coclasses()[1].representative
    e, margin = mu_n_exponents(G, rep.table, rep.modulus)
    assert margin == 0.0 and e.dtype == np.int64
    assert not np.any(e.sum(axis=1) % G.order)


@pytest.mark.parametrize("where", ["phase", "modulus"])
def test_perturbed_table_raises(where):
    G = get_group("S4")
    units = schur_multiplier(G).coclasses()[1].representative.unit_table()
    bad = units.copy()
    bad[5, 7] *= np.exp(1e-6j) if where == "phase" else 1 + 1e-6
    assert not is_trivial_coclass(G, units)
    with pytest.raises(CocycleMismatch):
        is_trivial_coclass(G, bad)


def test_non_cocycles_raise():
    G = get_group("S3")
    table = np.zeros((6, 6), dtype=np.int64)
    table[1, 2] = 1
    with pytest.raises(CocycleMismatch):
        is_trivial_coclass(G, table, 6)
    with pytest.raises(CocycleMismatch):
        is_trivial_coclass(G, np.exp(2j * np.pi * table / 6))


def test_zero_forms_need_no_class_test():
    # a table whose mu_n form is zero is trivial: no edge annihilator is
    # built for it, and the form still validates the table
    G = entry("C5xC5:C4").build()  # a fresh group with empty caches
    n = G.order
    assert is_trivial_coclass(G, np.zeros((n, n), dtype=np.int64), n)
    assert is_trivial_coclass(G, np.ones((n, n), dtype=np.complex128))
    assert class_order(trivial_cocycle(G)) == 1
    assert "coboundary_tests" not in G._cache
    table = np.zeros((n, n), dtype=np.int64)
    table[1, 2] = 1
    with pytest.raises(CocycleMismatch):
        is_trivial_coclass(G, table, n)
    with pytest.raises(CocycleMismatch):
        class_order(Cocycle(G, n, table, check=False))
    assert "coboundary_tests" not in G._cache
    # a nonzero form of a trivial class still asks the test
    ell = np.arange(n) % 7
    ell[0] = 0
    shifted = (ell[:, None] + ell[None, :] - ell[G.mul]) % n
    assert is_trivial_coclass(G, shifted, n)
    assert "coboundary_tests" in G._cache


def test_cocycle_identity_is_checked_at_every_generator():
    # exponent tables mod 2 on C2xC2 that pass the divisibility test and the
    # identity at the first generator, but fail it at another, must raise
    G = get_group("C2xC2")
    n, mul = G.order, G.mul
    gens = _generators(G)

    def holds(a, g):
        return not np.any((a + a[mul, g] - a[:, g][None, :]
                           - a[:, mul[:, g]]) % 2)

    found = 0
    for bits in range(2 ** 9):
        a = np.zeros((n, n), dtype=np.int64)
        a[1:, 1:] = np.array([(bits >> i) & 1 for i in range(9)]).reshape(3, 3)
        s = a.sum(axis=1)
        if np.any((n * a + s[mul] - s[:, None] - s[None, :]) % 2) \
                or not holds(a, gens[0]) or holds(a, gens[1]):
            continue
        found += 1
        with pytest.raises(CocycleMismatch):
            is_trivial_coclass(G, a, 2)
    assert len(gens) == 2 and found > 0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([n for n in SMALL if get_group(n).order <= 24]),
       data=st.data())
def test_verdict_is_invariant_under_coboundaries(name, data):
    G = get_group(name)
    n = G.order
    coclasses = schur_multiplier(G).coclasses()
    c = coclasses[data.draw(st.integers(0, len(coclasses) - 1))]
    rep = c.representative
    phases = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    lam = np.exp(2j * np.pi * np.array(phases))
    delta = lam[:, None] * lam[None, :] / lam[G.mul]
    expected = c.is_trivial()
    assert is_trivial_coclass(G, rep.unit_table() * delta) == expected
    ell = np.array(data.draw(st.lists(st.integers(0, rep.modulus - 1),
                                      min_size=n, max_size=n)))
    shifted = rep.table + ell[:, None] + ell[None, :] - ell[G.mul]
    assert is_trivial_coclass(G, shifted, rep.modulus) == expected


def test_no_decision_builds_an_algebra(monkeypatch):
    # triviality and order are integer decisions: no algebra is built, so
    # neither the algebra's rounding nor wedderburn runs
    def refuse(*args, **kwargs):
        raise AssertionError("a twisted algebra was built")

    monkeypatch.setattr(twisted.TwistedAlgebra, "__init__", refuse)
    ctx = coclass_contexts("C5xC5:C4")[0]
    assert ctx.coclass is None and ctx.order == 1
    assert ctx.restriction_trivial(sylow_subgroup(ctx.group, 5))
    for c in schur_multiplier(get_group("C6xC6")).coclasses():
        assert class_order(c.representative) == c.order
        assert is_trivial_coclass(c.multiplier.group,
                                  c.representative.unit_table()) \
            == c.is_trivial()
