"""The exact test of cocycle-class triviality and order.

The Wedderburn degree-one test it replaced is kept below as a reference: a
class is trivial iff its twisted group algebra has a block of degree one.
So is the two-mode mu_n form that Cocycle.from_units and the edge forms
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projrep import twisted
from projrep.catalog import catalog, coclass_contexts, entry, get_group
from projrep.cohomology import (
    Cocycle,
    _edge_form,
    _edges,
    _flat,
    _satisfies_cocycle_identity,
    class_order,
    is_trivial_coclass,
    schur_multiplier,
    solve_mod_prime_power,
    trivial_cocycle,
)
from projrep.errors import CocycleMismatch, ModulusMismatch
from projrep.groups import prime_divisors, sylow_subgroup
from projrep.tolerances import TOL_UNIT
from projrep.twisted import TwistedAlgebra, wedderburn

SMALL = [e.name for e in catalog() if e.order <= 60]


def _is_trivial_coclass_numeric_reference(G, unit_table, seed=0):
    # the replaced numeric test: a degree-1 block trivializes the cocycle
    return 1 in wedderburn(TwistedAlgebra(G, unit_table), seed=seed).degrees


def _mu_n_reference(G, table, modulus=None):
    """A cohomologous cocycle with values in mu_n, n = |G|, and its margin.

    ``table`` holds complex units, or exponents mod ``modulus``.  In turns,
    t(x, y) = arg/2pi or a(x, y)/m; with S(x) = sum_z t(x, z), summing the
    cocycle identity over z gives n t(x, y) = S(x) + S(y) - S(xy) mod 1, so
    e = n t + S(xy) - S(x) - S(y) is an integer table, and e/n is t minus
    the coboundary of S/n (Schur; Karpilovsky, *Projective Representations
    of Finite Groups*, 1985).  Each row of e sums to 0, so e = delta(l)
    forces n l = 0: e is trivial in H^2(G, C*) iff it is the coboundary of a
    Z/n-valued cochain.  Exponent tables are exact (m must divide the
    numerator of e); complex tables are rounded, and the worst rounding
    distance is returned as the margin.  Raises CocycleMismatch on a complex
    table more than ``TOL_UNIT`` off the unit circle or off mu_n, and on any
    e that fails the cocycle identity.
    """
    n = G.order
    if modulus is None:
        tab = np.asarray(table, dtype=np.complex128)
        if tab.shape != (n, n):
            raise ModulusMismatch("table shape does not match group order")
        unit = float(np.max(np.abs(np.abs(tab) - 1.0)))
        if unit > TOL_UNIT:
            raise CocycleMismatch(f"cocycle values are {unit:.2e} off the "
                                  "unit circle")
        t = np.angle(tab) / (2 * np.pi)
        s = t.sum(axis=1)
        exact = n * t + s[G.mul] - s[:, None] - s[None, :]
        e = np.rint(exact)
        margin = float(np.max(np.abs(exact - e)))
        if margin > TOL_UNIT:
            raise CocycleMismatch(f"table is {margin:.2e} from a mu_{n} "
                                  "cocycle")
        e = e.astype(np.int64) % n
    else:
        m = int(modulus)
        a = np.asarray(table, dtype=np.int64) % m
        if a.shape != (n, n):
            raise ModulusMismatch("table shape does not match group order")
        s = a.sum(axis=1)
        num = n * a + s[G.mul] - s[:, None] - s[None, :]
        if np.any(num % m):
            raise CocycleMismatch(f"table is not a cocycle mod {m}")
        e, margin = (num // m) % n, 0.0
    if not _satisfies_cocycle_identity(G, e, n):
        raise CocycleMismatch("table violates the cocycle identity")
    return e, margin


def _cases():
    """(cocycle, multiplier of its group) for every power c^k, k = 1..3, of
    every coclass of every catalog group of order <= 60, and every coclass
    restricted to every Sylow subgroup."""
    for name in SMALL:
        G = get_group(name)
        mult = schur_multiplier(G)
        for c in mult.coclasses():
            for k in (1, 2, 3):
                yield c.power(k).representative, mult
            for p in prime_divisors(G.order):
                rc = c.representative.restrict(sylow_subgroup(G, p))
                yield rc, schur_multiplier(rc.group)


def test_exact_test_agrees_with_the_multiplier_and_the_numeric_test():
    count = nontrivial = 0
    worst = 0.0
    for c, mult in _cases():
        H, m = c.group, c.modulus
        units = c.unit_table()
        rounded = Cocycle.from_units(H, units)
        expected = not any(mult.resolve(c))
        assert is_trivial_coclass(c) == expected, (H.name, m)
        assert is_trivial_coclass(rounded) == expected, (H.name, m)
        assert _is_trivial_coclass_numeric_reference(H, units) == expected
        # one door: the rounding is the reference's, in the class of c
        e, margin = _mu_n_reference(H, units)
        assert np.array_equal(rounded.table, e) and rounded.modulus == H.order
        assert is_trivial_coclass(c.mul(rounded.power(-1))), (H.name, m)
        # the edge form is the reference's mu_n form on the edges
        assert np.array_equal(_edge_form(c),
                              _mu_n_reference(H, c.table, m)[0][_edges(H)])
        worst = max(worst, margin)
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
    assert is_trivial_coclass(Cocycle(G, 2, table))
    assert is_trivial_coclass(Cocycle.from_units(G, np.exp(1j * np.pi * table)))
    assert class_order(Cocycle(G, 2, table)) == 1


def test_exponent_tables_need_no_rounding():
    G = get_group("C2xC2")
    rep = schur_multiplier(G).coclasses()[1].representative
    e, margin = _mu_n_reference(G, rep.table, rep.modulus)
    assert margin == 0.0 and e.dtype == np.int64
    assert not np.any(e.sum(axis=1) % G.order)
    form = _edge_form(rep)
    assert form.dtype == np.int64 and np.array_equal(form, e[_edges(G)])


@pytest.mark.parametrize("where", ["phase", "modulus"])
def test_perturbed_table_raises(where):
    G = get_group("S4")
    units = schur_multiplier(G).coclasses()[1].representative.unit_table()
    bad = units.copy()
    bad[5, 7] *= np.exp(1e-6j) if where == "phase" else 1 + 1e-6
    assert not is_trivial_coclass(Cocycle.from_units(G, units))
    with pytest.raises(CocycleMismatch):
        Cocycle.from_units(G, bad)


def test_non_cocycles_raise():
    # refused where they are built: exact and complex
    G = get_group("S3")
    table = np.zeros((6, 6), dtype=np.int64)
    table[1, 2] = 1
    with pytest.raises(CocycleMismatch):
        Cocycle(G, 6, table)
    with pytest.raises(CocycleMismatch):
        Cocycle.from_units(G, np.exp(2j * np.pi * table / 6))


def test_zero_forms_need_no_class_test():
    # a cocycle whose mu_n form is zero on the edges is trivial: no edge
    # annihilator is built for it, nor for a table refused where it enters
    G = entry("C5xC5:C4").build()  # a fresh group with empty caches
    n = G.order
    assert is_trivial_coclass(Cocycle(G, n, np.zeros((n, n), dtype=np.int64)))
    assert is_trivial_coclass(
        Cocycle.from_units(G, np.ones((n, n), dtype=np.complex128)))
    assert class_order(trivial_cocycle(G)) == 1
    assert "coboundary_tests" not in G._cache
    table = np.zeros((n, n), dtype=np.int64)
    table[1, 2] = 1
    with pytest.raises(CocycleMismatch):
        Cocycle(G, n, table)
    with pytest.raises(CocycleMismatch):
        Cocycle.from_units(G, np.exp(2j * np.pi * table / n))
    assert "coboundary_tests" not in G._cache
    # a nonzero form of a trivial class still asks the test
    ell = np.arange(n) % 7
    ell[0] = 0
    shifted = (ell[:, None] + ell[None, :] - ell[G.mul]) % n
    assert is_trivial_coclass(Cocycle(G, n, shifted))
    assert "coboundary_tests" in G._cache


def test_cocycle_identity_is_checked_at_every_generator():
    # exponent tables mod 2 on C2xC2 that pass the divisibility test of the
    # mu_n form and the identity at the first generator, but fail it at
    # another, are refused where they are built
    G = get_group("C2xC2")
    n, mul = G.order, G.mul
    gens = G.gen_set()

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
            Cocycle(G, 2, a)
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
    # delta(1, y) = lam(1): unless that is 1, the table is refused where it
    # enters, and delta of lam / lam(1) is the normalized coboundary
    if abs(lam[0] - 1) > TOL_UNIT:
        with pytest.raises(CocycleMismatch, match="not normalized"):
            Cocycle.from_units(G, rep.unit_table() * delta)
    delta /= lam[0]
    assert is_trivial_coclass(
        Cocycle.from_units(G, rep.unit_table() * delta)) == expected
    ell = np.array(data.draw(st.lists(st.integers(0, rep.modulus - 1),
                                      min_size=n, max_size=n)))
    shifted = rep.table + ell[:, None] + ell[None, :] - ell[G.mul]
    if ell[0]:
        with pytest.raises(CocycleMismatch, match="not normalized"):
            Cocycle(G, rep.modulus, shifted)
    shifted -= ell[0]
    assert is_trivial_coclass(Cocycle(G, rep.modulus, shifted)) == expected


def test_no_decision_builds_an_algebra(monkeypatch):
    # triviality and order are integer decisions: no algebra is built, so
    # neither the algebra's rounding nor wedderburn runs
    def refuse(*args, **kwargs):
        raise AssertionError("a twisted algebra was built")

    monkeypatch.setattr(twisted.TwistedAlgebra, "__init__", refuse)
    ctx = coclass_contexts("C5xC5:C4")[0]
    P = sylow_subgroup(ctx.group, 5)
    assert class_order(ctx.cocycle.restrict(P)) == 1
    assert ctx.order == 1 and ctx.restriction_trivial(P)
    for c in schur_multiplier(get_group("C6xC6")).coclasses():
        assert class_order(c.representative) == c.order
        assert is_trivial_coclass(Cocycle.from_units(
            c.multiplier.group, c.representative.unit_table())) \
            == c.is_trivial()
