"""Tests for the theorem verifiers and decomposition certificates."""

import numpy as np
import pytest

from projrep import verify
from projrep.catalog import coclass_contexts
from projrep.cohomology import trivial_cocycle
from projrep.errors import ReconstructionFailure
from projrep.groups import PiSet, o_pi, pi_series
from projrep.reps import ProjRep, split_regular
from projrep.twisted import TwistedAlgebra
from projrep.verify import (
    decompose_along_series,
    pi_decompose,
    verify_a5_negative_control,
    verify_basic,
    verify_clifford_laws,
    verify_ito_michler,
    verify_normal_sylow_criterion,
    verify_pi_theorem,
)


def ctx_of(name, index=0):
    return coclass_contexts(name)[index]


def test_basic_s3_trivial():
    r = verify_basic(ctx_of("S3"))
    assert r.verdict == "pass"
    assert r.witnesses["degrees"] == [1, 1, 2]


def test_basic_v4_nontrivial():
    ctx = ctx_of("C2xC2", 1)
    r = verify_basic(ctx)
    assert r.verdict == "pass"
    assert r.witnesses["degrees"] == [2]
    assert r.witnesses["coclass_order"] == 2


def test_basic_a5_covering():
    ctx = ctx_of("A5", 1)
    r = verify_basic(ctx)
    assert r.verdict == "pass"
    assert r.witnesses["degrees"] == [2, 2, 4, 6]


def test_basic_default_cap_reaches_hall_subgroups_above_24(monkeypatch):
    # E27+ is its own Hall 3-subgroup; at the default cap the exact
    # restriction side of the Hall criterion is evaluated on it
    import projrep.verify as verify
    real = verify.restrict_coclass
    orders = []

    def counted(c, H):
        orders.append(H.order)
        return real(c, H)

    monkeypatch.setattr(verify, "restrict_coclass", counted)
    r = verify_basic(ctx_of("E27+", 1))
    assert r.verdict == "pass"
    assert 27 in orders


def test_ito_michler_s3():
    ctx = ctx_of("S3")
    r3 = verify_ito_michler(ctx, 3)
    assert r3.verdict == "pass" and r3.lhs is True
    r2 = verify_ito_michler(ctx, 2)
    assert r2.verdict == "pass" and r2.lhs is False
    assert r2.rhs["ii"] is False and r2.rhs["iii"] is False


def test_ito_michler_sl23():
    ctx = ctx_of("SL(2,3)")
    r = verify_ito_michler(ctx, 3)
    assert r.verdict == "pass"
    assert r.lhs is False  # a degree-3 block exists
    assert r.rhs["ii"] is False  # C3 moves the Q8 irreducibles


def test_ito_michler_inapplicable_on_a5():
    ctx = ctx_of("A5")
    r = verify_ito_michler(ctx, 2)
    assert r.verdict == "inapplicable"


def test_ito_michler_pi_set():
    # S4 = O_{pi' pi pi'} for pi = {2}; genuine pi-sets gate on that shape
    ctx = ctx_of("S4")
    r = verify_ito_michler(ctx, PiSet([2]))
    assert r.verdict == "pass" and r.lhs is False
    r23 = verify_ito_michler(ctx, PiSet([2, 3]))
    assert r23.verdict == "pass"


def test_normal_sylow_criterion():
    assert verify_normal_sylow_criterion(ctx_of("C6"), 2).verdict == "pass"
    r = verify_normal_sylow_criterion(ctx_of("S3"), 2)
    assert r.verdict == "pass" and r.lhs is False and r.rhs is False
    r = verify_normal_sylow_criterion(ctx_of("S4"), 3)
    assert r.verdict == "pass" and r.lhs is False


def test_pi_theorem():
    r = verify_pi_theorem(ctx_of("S3"), PiSet([3]))
    assert r.verdict == "pass" and r.lhs is True and r.rhs is True
    r = verify_pi_theorem(ctx_of("S4"), PiSet([2, 3]))
    assert r.verdict == "pass" and r.lhs is False
    r = verify_pi_theorem(ctx_of("C6"), PiSet([2, 3]))
    assert r.verdict == "pass" and r.lhs is True
    r = verify_pi_theorem(ctx_of("A5"), PiSet([2]))
    assert r.verdict == "inapplicable"


def test_a5_negative_control():
    r = verify_a5_negative_control(ctx_of("A5"))
    assert r.verdict == "pass"
    assert r.lhs is False        # 2 divides a degree
    assert r.rhs is True         # yet the structural side holds
    assert r.witnesses["degrees"] == [1, 3, 3, 4, 5]
    # the control is meaningless on a solvable group
    assert verify_a5_negative_control(ctx_of("S4")).verdict == "inapplicable"


def test_clifford_laws_examples():
    # S3 over N = C3 with a nontrivial linear: J = C3, dims 2 = 1*1*2
    ctx = ctx_of("S3")
    C3 = o_pi(ctx.group, PiSet([3]))
    lins = split_regular(
        TwistedAlgebra.from_cocycle(trivial_cocycle(C3.as_group())), seed=0)
    nt = [r for r in lins if abs(np.trace(r.matrices[1]) - 1) > 1e-6][0]
    r = verify_clifford_laws(ctx, C3, nt)
    assert r.verdict == "pass"
    assert r.witnesses["inertia_order"] == 3
    assert r.witnesses["fiber_degrees"] == [2]
    # A4 over V4: dim 3 = 1 * 1 * 3
    ctx4 = ctx_of("A4")
    V4 = o_pi(ctx4.group, PiSet([2]))
    vlins = split_regular(
        TwistedAlgebra.from_cocycle(trivial_cocycle(V4.as_group())), seed=0)
    nt4 = [x for x in vlins
           if any(abs(np.trace(x.matrices[g]) - 1) > 1e-6 for g in range(1, 4))][0]
    r = verify_clifford_laws(ctx4, V4, nt4)
    assert r.verdict == "pass"
    assert r.witnesses["inertia_order"] == 4
    assert r.witnesses["fiber_degrees"] == [3]
    # coprime extension inside C6
    ctx6 = ctx_of("C6")
    C3b = o_pi(ctx6.group, PiSet([3]))
    lin6 = split_regular(
        TwistedAlgebra.from_cocycle(trivial_cocycle(C3b.as_group())), seed=0)[1]
    r = verify_clifford_laws(ctx6, C3b, lin6)
    assert r.verdict == "pass"
    assert r.witnesses["inertia_order"] == 6


def test_decompose_along_trivial_series():
    ctx = ctx_of("S3")
    V = [x for x in ctx.irreps if x.degree == 2][0]
    cert = decompose_along_series(V, [ctx.group.full_subgroup()], ctx)
    assert cert.subgroup.order == 6
    assert cert.factor_degrees == [2]
    assert cert.intertwiner_dim == 1


def test_decompose_s3_chain():
    ctx = ctx_of("S3")
    V = [x for x in ctx.irreps if x.degree == 2][0]
    series = pi_series(ctx.group, PiSet([3]))
    cert = decompose_along_series(V, series.terms[1:], ctx)
    assert cert.subgroup.order == 3
    assert cert.factor_degrees == [1, 1]
    assert cert.residual < 1e-6


def test_certificate_residual_is_bounded_as_a_whole(monkeypatch):
    # a reconstruction defect of 1e-7 lies below TOL_CHECK, the old bound on
    # the cocycle drift alone, and above TOL_DEFECT, which bounds the whole
    # residual: it must raise, and the unplanted walk must not
    ctx = ctx_of("S3")
    V = [x for x in ctx.irreps if x.degree == 2][0]
    series = pi_series(ctx.group, PiSet([3])).terms[1:]
    induce = verify.induce_rep

    def planted(X, J, A):
        out = induce(X, J, A)
        mats = out.matrices.copy()
        mats[1:] *= 1 + 1e-7
        return ProjRep(out.group, out.table, mats, check=False)

    assert decompose_along_series(V, series, ctx).residual < 1e-8
    monkeypatch.setattr(verify, "induce_rep", planted)
    with pytest.raises(ReconstructionFailure, match="certificate residual"):
        decompose_along_series(V, series, ctx)


def test_decompose_a4_chain():
    ctx = ctx_of("A4")
    V = [x for x in ctx.irreps if x.degree == 3][0]
    series = pi_series(ctx.group, PiSet([2]))
    cert = decompose_along_series(V, series.terms[1:], ctx)
    assert cert.subgroup.order == 4
    assert cert.input_degree == cert.index * np.prod(cert.factor_degrees)


def test_pi_decompose_abelian():
    ctx = ctx_of("C6")
    for V in ctx.irreps:
        cert, rep = pi_decompose(V, PiSet([2]), ctx)
        assert rep.verdict == "pass"
        assert cert.subgroup.order == 6  # abelian: J is all of G


def test_pi_decompose_s3():
    ctx = ctx_of("S3")
    V = [x for x in ctx.irreps if x.degree == 2][0]
    cert, rep = pi_decompose(V, PiSet([3]), ctx)
    assert rep.verdict == "pass"
    assert rep.witnesses["dim_pi"] == 1
    assert cert.subgroup.order == 3


def test_pi_decompose_sl23_degree3():
    ctx = ctx_of("SL(2,3)")
    V = [x for x in ctx.irreps if x.degree == 3][0]
    cert, rep = pi_decompose(V, PiSet([2]), ctx)
    assert rep.verdict == "pass"
    assert rep.witnesses["failed"] == []
    pi = PiSet([2])
    # both degree identities in explicit form
    assert pi.part(V.degree) == pi.part(cert.index) * rep.witnesses["dim_pi"]
    assert pi.coprime_part(V.degree) == \
        pi.coprime_part(cert.index) * rep.witnesses["dim_pip"]


def test_pi_decompose_twisted_s4():
    ctx = coclass_contexts("S4")[1]
    for V in ctx.irreps:
        for p in (2, 3):
            cert, rep = pi_decompose(V, PiSet([p]), ctx)
            assert rep.verdict == "pass", rep.witnesses
            assert cert.intertwiner_dim == 1


def test_fixed_clifford_steps_extend_nothing(monkeypatch):
    # a series step over the trivial group or over all of J decides itself;
    # only the other steps extend a constituent to its inertia group
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extend(*args, **kwargs)

    extend = verify.clifford_extend
    monkeypatch.setattr(verify, "clifford_extend", counting)
    counts = {}
    for name in ("E27+", "S4"):
        calls.clear()
        for ctx in coclass_contexts(name):
            for V in ctx.irreps:
                cert, rep = pi_decompose(V, PiSet([3]), ctx)
                assert rep.verdict == "pass", rep.witnesses
                assert len(cert.factors) == len(rep.witnesses["tags"])
        counts[name] = len(calls)
    assert counts == {"E27+": 0, "S4": 16}
