"""The batched kernels equal the per-element loops they replaced, bit for bit.

Each ``_reference`` function below is such a loop.  Kernels and references
share numpy's array rounding: numpy's array loop for complex multiply may
round differently from a product of two numpy scalars, so a loop that
multiplies two cocycle values forms a one-element array product.  Every
comparison is ``tobytes()`` equality, never a tolerance, on every catalog
group of order at most 60 under each of its catalog coclasses.  The tests at
the end keep the batched checks' teeth.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projrep import groups, reps
from projrep.catalog import catalog, coclass_contexts, get_group
from projrep.errors import NotPermutation, PhaseInstability
from projrep.groups import FiniteGroup, PiSet, Subgroup, closure, \
    commutator_subgroup, o_pi, quotient_group
from projrep.reps import (
    ProjRep,
    clifford_extend,
    conjugate_rep,
    decompose,
    induce_rep,
    inertia_group,
    restrict_rep,
)
from projrep.twisted import TwistedAlgebra, alpha_tilde, wedderburn

from conftest import transport_rep_reference

SMALL = [e.name for e in catalog() if e.order <= 60]


@functools.cache
def _contexts():
    return [(name, ctx) for name in SMALL for ctx in coclass_contexts(name)]


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _cyclic_subgroups(G):
    return [Subgroup(G, closure(G, [g])) for g in G.gen_set()]


def _normal_subgroups(G):
    out = [o_pi(G, PiSet([p])) for p in G.primes()] + [commutator_subgroup(G)]
    return [N for N in out if 1 < N.order < G.order]


def _vectors(A):
    """The Wedderburn idempotents, a random vector with zero entries, the same
    with negative zeros, and a multiple of one basis element (each entry of a
    product then has one term, and an entry 0 + -0.0 must stay +0.0)."""
    n = A.order
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[rng.random(n) < 0.3] = 0
    w = np.where(v == 0, complex(-0.0, -0.0), v)
    e = np.zeros(n, dtype=np.complex128)
    e[n // 2] = 1 - 2j
    return wedderburn(A).idempotents + [v, w, e]


# -- the loops, as they were ------------------------------------------------

def _action_matrix_reference(A, v):
    n = A.group.order
    M = np.zeros((n, n), dtype=np.complex128)
    for g in np.nonzero(np.abs(v) > 0)[0]:
        M[A.group.mul[g], np.arange(n)] += v[g] * A.table[g]
    return M


def _multiply_reference(A, u, v):
    n = A.group.order
    out = np.zeros(n, dtype=np.complex128)
    for g in np.nonzero(np.abs(u) > 0)[0]:
        np.add.at(out, A.group.mul[g], u[g] * A.table[g] * v)
    return out


def _right_action_matrix_reference(A, v):
    n = A.group.order
    M = np.zeros((n, n), dtype=np.complex128)
    h = np.arange(n)
    for g in np.nonzero(np.abs(v) > 0)[0]:
        M[A.group.mul[h, g], h] += v[g] * A.table[h, g]
    return M


def _compress_left_action_reference(A, W):
    n, degree = W.shape
    mats = np.empty((n, degree, degree), dtype=np.complex128)
    for g in range(n):
        LgW = np.zeros((n, degree), dtype=np.complex128)
        h = np.arange(n)
        LgW[A.group.mul[g, h]] = A.table[g, h][:, None] * W[h]
        mats[g] = W.conj().T @ LgW
    return mats


def _conjugate_rep_reference(r, N, g, A):
    G = A.group
    pos = N.positions()
    mats = np.empty_like(r.matrices)
    for i, x in enumerate(N.elements):
        xg = G.conj(int(x), g)
        tw = (A.table[[x], g] * np.conj(A.table[g, [xg]]))[0]
        mats[i] = tw * r.matrices[pos[xg]]
    return mats


def _transport_loop_reference(r, H, g, A):
    """The loop with the twist conjugated, as transport_rep_reference
    (conftest.py) has it; the loop used twist(x, g) itself, which fails the
    cocycle relation whenever the twist is not real (E27+ under coclass
    [0,1], for one).  The twist is formed as alpha_tilde forms it, then
    conjugated."""
    G = A.group
    Ht = Subgroup(G, sorted(G.conj(int(x), g) for x in H.elements))
    posH = H.positions()
    d = r.degree
    mats = np.empty((Ht.order, d, d), dtype=np.complex128)
    for j, y in enumerate(Ht.elements):
        x = G.conj(int(y), int(G.inv[g]))
        tw = np.conj((A.table[[x], g] * np.conj(A.table[g, [y]]))[0])
        mats[j] = tw * r.matrices[posH[x]]
    return mats


def _induce_rep_reference(r, H, A):
    G = A.group
    n = G.order
    coset_of = np.full(n, -1, dtype=np.int64)
    reps_: list[int] = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        coset_of[G.mul[g, H.elements]] = len(reps_)
        reps_.append(g)
    k = len(reps_)
    d = r.degree
    pos = H.positions()
    mats = np.zeros((n, k * d, k * d), dtype=np.complex128)
    for g in range(n):
        for j, tj in enumerate(reps_):
            gt = int(G.mul[g, tj])
            i = int(coset_of[gt])
            h = int(G.mul[G.inv[reps_[i]], gt])
            scal = (A.table[[g], tj] * np.conj(A.table[reps_[i], [h]]))[0]
            mats[g, i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                scal * r.matrices[pos[h]]
    return mats


def _inertia_group_reference(r, N, A):
    """inertia_group as one conjugate and one Sylvester solve per coset."""
    G = A.group
    members = []
    for t in quotient_group(G, N).section:
        conj = conjugate_rep(r, N, int(t), A)
        if reps.intertwiner_space(r, conj)[0] == 1:
            members.extend(G.mul[int(t), N.elements].tolist())
    return Subgroup(G, members)


def _extension_reference(r, N, J, A):
    """clifford_extend's Y(n t) = conj(a(n, t)) phi(n) T_t, one j at a time."""
    Jg = J.as_group()
    jtab = A.table[np.ix_(J.elements, J.elements)]
    n_in_j = Subgroup(Jg, J.positions()[N.elements])
    quot = quotient_group(Jg, n_in_j)
    T = reps._coset_intertwiners(r, n_in_j, quot, TwistedAlgebra(Jg, jtab))
    transversal = [int(t) for t in quot.section]
    npos = n_in_j.positions()
    d = r.degree
    mats = np.empty((Jg.order, d, d), dtype=np.complex128)
    for j in range(Jg.order):
        c = int(quot.projection[j])
        t = transversal[c]
        nn = int(Jg.mul[j, Jg.inv[t]])
        mats[j] = np.conj(jtab[nn, t]) * (r.matrices[npos[nn]] @ T[c])
    return mats


def _beta_reference(mats, mul):
    """beta from Y(g) Y(h) = beta Y(gh), and the first g that fails."""
    nj, d = mats.shape[0], mats.shape[1]
    beta = np.empty((nj, nj), dtype=np.complex128)
    for g in range(nj):
        prod = mats[g] @ mats
        targets = mats[mul[g]]
        scal = np.einsum("gab,gab->g", prod, targets.conj()) / d
        resid = np.max(np.abs(prod - scal[:, None, None] * targets))
        if resid > reps.TOL_CHECK * d:
            return None, g
        beta[g] = scal / np.abs(scal)
    return beta, None


def _build_group_reference(generators, name="G", points=None, cap=200):
    """build_group with one dict lookup per Cayley table entry."""
    gen_seqs = [list(g) for g in generators]
    if points is None:
        points = max((len(g) for g in gen_seqs), default=1)
    perms = [groups._as_perm(g, points) for g in gen_seqs]
    ident = tuple(range(points))
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        x = elems[i]
        for g in perms:
            y = tuple(g[v] for v in x)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
        i += 1
    n = len(elems)
    arr = np.array(elems, dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for j in range(n):
        composed = arr[j][arr]          # row i = elems[i] followed by elems[j]
        for i in range(n):
            mul[i, j] = index[tuple(composed[i])]
    gen_idx = []
    for g in perms:
        gi = index.get(g)
        if gi is None:
            raise NotPermutation("generator escaped its own closure")
        if gi != 0 and gi not in gen_idx:
            gen_idx.append(gi)
    group = FiniteGroup(mul, name=name, generators=gen_idx or [0])
    group._cache["perm_elements"] = arr
    return group


def _is_normal_reference(H):
    G, m = H.parent, H.mask()
    for g in range(G.order):
        if not m[G.mul[G.mul[G.inv[g], H.elements], g]].all():
            return False
    return True


def _quotient_reference(G, N):
    proj = np.full(G.order, -1, dtype=np.int64)
    section = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        proj[G.mul[g, N.elements]] = len(section)
        section.append(g)
    return proj, np.array(section, dtype=np.int64)


def _is_closed_reference(G, el):
    el = np.unique(el)
    return bool(np.isin(G.mul[np.ix_(el, el)], el).all()
                and np.isin(G.inv[el], el).all())


# -- every kernel against its loop over the catalog --------------------------

def test_algebra_products_match_loops():
    bad = []
    for name, ctx in _contexts():
        A = ctx.algebra
        vecs = _vectors(A)
        for v in vecs:
            if not (_same(A.action_matrix(v), _action_matrix_reference(A, v))
                    and _same(A.right_action_matrix(v),
                              _right_action_matrix_reference(A, v))):
                bad.append((name, ctx.label, "action"))
            for u in vecs:
                if not _same(A.multiply(u, v), _multiply_reference(A, u, v)):
                    bad.append((name, ctx.label, "multiply"))
    assert bad == []


def test_block_compression_matches_loop():
    bad = []
    for name, ctx in _contexts():
        A = ctx.algebra
        rng = np.random.default_rng(A.order)
        for d in sorted(set(ctx.degrees)):
            z = rng.standard_normal((A.order, d)) + 1j * rng.standard_normal(
                (A.order, d))
            W, _ = np.linalg.qr(z)
            if not _same(reps._compress_left_action(A, W),
                         _compress_left_action_reference(A, W)):
                bad.append((name, ctx.label, d))
    assert bad == []


def test_induction_and_transport_match_loops():
    bad = []
    for name, ctx in _contexts():
        A, G = ctx.algebra, ctx.group
        for H in _cyclic_subgroups(G):
            for r in {id(x): x for x in (ctx.irreps[0], ctx.irreps[-1])}.values():
                res = restrict_rep(r, H)
                # the loop's cost grows as |G| (index * degree)^2; cap the degree
                if G.order // H.order * r.degree <= 40 and not _same(
                        induce_rep(res, H, A).matrices,
                        _induce_rep_reference(res, H, A)):
                    bad.append((name, ctx.label, H.order, "induce"))
                for g in G.gen_set():
                    if not _same(transport_rep_reference(res, H, g,
                                                         A)[0].matrices,
                                 _transport_loop_reference(res, H, g, A)):
                        bad.append((name, ctx.label, H.order, "transport", g))
    assert bad == []


def test_conjugation_and_clifford_extension_match_loops():
    bad = []
    for name, ctx in _contexts():
        A, G = ctx.algebra, ctx.group
        for N in _normal_subgroups(G):
            V = decompose(restrict_rep(ctx.irreps[-1], N), seed=ctx.seed)[0].rep
            for g in range(G.order):
                if not _same(conjugate_rep(V, N, g, A).matrices,
                             _conjugate_rep_reference(V, N, g, A)):
                    bad.append((name, ctx.label, N.order, "conjugate", g))
            J = inertia_group(V, N, A)
            if J != _inertia_group_reference(V, N, A):
                bad.append((name, ctx.label, N.order, "inertia"))
            ext = clifford_extend(V, N, J, A)
            mats = ext.extension.matrices
            beta, _ = _beta_reference(mats, ext.inertia.as_group().mul)
            if not (_same(mats, _extension_reference(V, N, ext.inertia, A))
                    and _same(ext.beta, beta)):
                bad.append((name, ctx.label, N.order, "clifford"))
    assert bad == []


def test_twist_on_index_arrays_matches_integer_calls():
    # one rounding: the broadcast twist equals its integer calls bit for bit
    bad = []
    for name in ["S4", "E27+"]:
        for ctx in coclass_contexts(name):
            A = ctx.algebra
            n = A.order
            full = alpha_tilde(A, np.arange(n)[:, None], np.arange(n))
            single = np.array([[alpha_tilde(A, x, g) for g in range(n)]
                               for x in range(n)])
            if not _same(full, single):
                bad.append((name, ctx.label))
    assert bad == []


def test_cayley_tables_match_loop(monkeypatch):
    # every catalog entry, its table, generators and element list
    calls = []
    build = groups.build_group

    def recording(gens, **kwargs):
        calls.append((gens, kwargs))
        return build(gens, **kwargs)

    monkeypatch.setattr(groups, "build_group", recording)
    bad = []
    for e in catalog():
        G = e.build()
        gens, kwargs = calls[-1]
        ref = _build_group_reference(gens, **kwargs)
        if not (_same(G.mul, ref.mul) and G.generators == ref.generators
                and _same(G._cache["perm_elements"],
                          ref._cache["perm_elements"])):
            bad.append(e.name)
    assert len(calls) == len(catalog()) == 63
    assert bad == []


def test_subgroup_kernels_match_loops():
    bad = []
    for name in SMALL:
        G = get_group(name)
        for H in _cyclic_subgroups(G) + _normal_subgroups(G):
            if H.is_normal() != _is_normal_reference(H):
                bad.append((name, H.order, "is_normal"))
            if H.is_normal():
                quot = quotient_group(G, H)
                proj, section = _quotient_reference(G, H)
                if not (_same(quot.projection, proj)
                        and _same(quot.section, section)):
                    bad.append((name, H.order, "quotient"))
    assert bad == []


# -- random coefficient vectors -----------------------------------------------

_ALGEBRA_GROUPS = ["S3", "Q8", "C2xC2", "A4", "C2xD4", "E27+", "C6xC6"]


@functools.cache
def _algebras(name):
    return [ctx.algebra for ctx in coclass_contexts(name)]


def _coefficients(n):
    value = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                               allow_infinity=False)
    zero = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    return arrays(np.complex128, n, elements=value | zero)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_products_match_loops(data):
    A = data.draw(st.sampled_from(_ALGEBRA_GROUPS).flatmap(
        lambda name: st.sampled_from(_algebras(name))))
    u = data.draw(_coefficients(A.order))
    v = data.draw(_coefficients(A.order))
    assert _same(A.multiply(u, v), _multiply_reference(A, u, v))
    assert _same(A.action_matrix(v), _action_matrix_reference(A, v))
    assert _same(A.right_action_matrix(v),
                 _right_action_matrix_reference(A, v))


# -- the batched checks keep their teeth --------------------------------------

def test_subgroup_rejects_sets_that_are_not_closed():
    for name in ["S3", "S4", "Q8", "C6xC6", "A5"]:
        G = get_group(name)
        for H in _cyclic_subgroups(G):
            outside = np.nonzero(~H.mask())[0]
            if outside.size == 0:
                continue
            el = np.append(H.elements, outside[0])
            assert not _is_closed_reference(G, el)
            with pytest.raises(ValueError, match="index set is not closed"):
                Subgroup(G, el)
    S3 = get_group("S3")
    t = next(g for g in range(1, 6) if S3.order_of(g) == 2)
    u = next(g for g in range(1, 6) if S3.order_of(g) == 2 and g != t)
    with pytest.raises(ValueError, match="index set is not closed"):
        Subgroup(S3, [0, t, u])


def test_non_normal_subgroups_are_reported():
    S3 = get_group("S3")
    t = next(g for g in range(1, 6) if S3.order_of(g) == 2)
    assert Subgroup(S3, [0, t]).is_normal() is False
    A5 = get_group("A5")
    for H in _cyclic_subgroups(A5):
        assert H.is_normal() is False
    assert A5.full_subgroup().is_normal() is True


def test_validation_names_the_first_non_unitary_matrix():
    ctx = coclass_contexts("S4")[-1]
    r = max(ctx.irreps, key=lambda x: x.degree)
    n = r.group.order
    for g in [1, n // 2, n - 1]:
        mats = r.matrices.copy()
        mats[g] = 1.5 * mats[g]
        with pytest.raises(ValueError, match=rf"^phi\({g}\) is not unitary$"):
            ProjRep(r.group, r.table, mats)
    mats = r.matrices.copy()
    mats[[3, 7]] = mats[[3, 7]] @ np.diag([1.0] * (r.degree - 1) + [1.1])
    with pytest.raises(ValueError, match=r"^phi\(3\) is not unitary$"):
        ProjRep(r.group, r.table, mats)
    ProjRep(r.group, r.table, r.matrices)


def _extension_case():
    """A base irreducible of degree > 1 whose inertia group is larger."""
    for _, ctx in _contexts():
        A = ctx.algebra
        for N in _normal_subgroups(ctx.group):
            V = decompose(restrict_rep(ctx.irreps[-1], N), seed=ctx.seed)[0].rep
            J = inertia_group(V, N, A)
            if V.degree > 1 and J.order > N.order:
                return V, N, J, A
    raise AssertionError("no catalog case")


def test_clifford_extension_names_the_first_bad_product(monkeypatch):
    """Skew one coset intertwiner: the error names the first g at which the
    loop over g found a product that is not a scalar multiple."""
    V, N, J, A = _extension_case()
    exact = reps._coset_intertwiners
    skew = np.diag([1.0] * (V.degree - 1) + [-1.0])

    def skewed(*args):
        T = exact(*args)
        T[-1] = T[-1] @ skew
        return T

    monkeypatch.setattr(reps, "_coset_intertwiners", skewed)
    _, first = _beta_reference(_extension_reference(V, N, J, A),
                               J.as_group().mul)
    assert first is not None
    with pytest.raises(PhaseInstability,
                       match=rf"^product at {first} is not a scalar multiple$"):
        clifford_extend(V, N, J, A)


def test_transport_keeps_the_cocycle_relation():
    """Under a coclass of order 3 the twist is not real: transporting with
    twist(x, g) instead of its conjugate fails the cocycle relation."""
    ctx = next(c for c in coclass_contexts("E27+") if c.label == "[0,1]")
    A, G = ctx.algebra, ctx.group
    for H in _cyclic_subgroups(G):
        r = restrict_rep(ctx.irreps[-1], H)
        for g in range(G.order):
            Ut, Ht = transport_rep_reference(r, H, g, A)
            assert Ut.defect(full=True) < 1e-9
            back, _ = transport_rep_reference(Ut, Ht, int(G.inv[g]), A)
            assert np.max(np.abs(back.matrices - r.matrices)) < 1e-9
