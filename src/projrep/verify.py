"""Executable statements of the structural theorems.

Each check evaluates both sides of an equivalence on a (group, coclass,
prime-or-pi) triple and reports pass/fail with witnesses; hypotheses that
fail produce an ``inapplicable`` verdict, never a failure.  Checks are
independent and may run in parallel; results carry everything needed to
reproduce them (coclass label, seed, witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import (
    Cocycle,
    Coclass,
    class_order,
    is_trivial_coclass,
    pi_part,
    restrict_coclass,
)
from .errors import NotPiSeparable, ReconstructionFailure
from .groups import (
    FiniteGroup,
    PiSet,
    Subgroup,
    alternating_pi_series,
    conjugacy_classes,
    default_pi_sets,
    hall_subgroup,
    is_p_solvable,
    is_pi_separable,
    o_pi,
    pi_ladder,
    pi_series,
    prime_divisors,
    quotient_group,
    sylow_subgroup,
)
from .reps import (
    ProjRep,
    clifford_extend,
    decompose,
    factor_over_extension,
    hom_dim,
    induce_rep,
    inertia_group,
    inflate_rep_on,
    is_inertial,
    is_irreducible,
    restrict_rep,
    split_regular,
    tensor_reps,
)
from .tolerances import TOL_DEFECT
from .twisted import TwistedAlgebra, c_regular_classes, wedderburn


class CoclassContext:
    """Cached twisted-algebra data for one (group, coclass) pair."""

    def __init__(self, group: FiniteGroup, cocycle: Cocycle, label: str = "[]",
                 seed: int = 0, coclass: Coclass | None = None):
        self.group = group
        self.cocycle = cocycle
        self.label = label
        self.seed = seed
        self.coclass = coclass
        self._cache: dict = {}

    @property
    def algebra(self) -> TwistedAlgebra:
        if "algebra" not in self._cache:
            self._cache["algebra"] = TwistedAlgebra.from_cocycle(self.cocycle)
        return self._cache["algebra"]

    @property
    def degrees(self) -> list[int]:
        return wedderburn(self.algebra, seed=self.seed).degrees

    @property
    def regular_data(self):
        return c_regular_classes(self.algebra)

    @property
    def irreps(self) -> list[ProjRep]:
        if "irreps" not in self._cache:
            self._cache["irreps"] = split_regular(self.algebra, seed=self.seed)
        return self._cache["irreps"]

    @property
    def order(self) -> int:
        """Order of the coclass: symbolic when available, else exact from
        the table."""
        if "order" not in self._cache:
            self._cache["order"] = (class_order(self.cocycle)
                                    if self.coclass is None
                                    else self.coclass.order)
        return self._cache["order"]

    def restricted(self, H: Subgroup) -> "CoclassContext":
        key = ("res", H.elements.tobytes())
        if key not in self._cache:
            rc = self.cocycle.restrict(H)
            self._cache[key] = CoclassContext(
                H.as_group(), rc, label=self.label + "|res", seed=self.seed)
        return self._cache[key]

    def restriction_trivial(self, H: Subgroup) -> bool:
        """Exact triviality of the restricted cocycle class."""
        return is_trivial_coclass(self.restricted(H).cocycle)


@dataclass
class CheckResult:
    name: str
    group: str
    coclass: str
    param: str
    lhs: object
    rhs: object
    verdict: str  # "pass" | "fail" | "inapplicable" | "error"
    witnesses: dict = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "group": self.group,
            "coclass": self.coclass,
            "param": self.param,
            "lhs": _plain(self.lhs),
            "rhs": _plain(self.rhs),
            "verdict": self.verdict,
            "witnesses": _plain(self.witnesses),
            "reason": self.reason,
        }


def _plain(v):
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _result(name, ctx, param, lhs, rhs, ok, witnesses, reason=""):
    return CheckResult(name=name, group=ctx.group.name, coclass=ctx.label,
                       param=param, lhs=lhs, rhs=rhs,
                       verdict="pass" if ok else "fail",
                       witnesses=witnesses, reason=reason)


def _inapplicable(name, ctx, param, reason):
    return CheckResult(name=name, group=ctx.group.name, coclass=ctx.label,
                       param=param, lhs=None, rhs=None,
                       verdict="inapplicable", reason=reason)


# -- counting, divisibility, and the Hall restriction criterion -------------


def verify_basic(ctx: CoclassContext) -> CheckResult:
    """Degree formula, class counting, order divisibilities, prime chain,
    and the three-way Hall restriction criterion."""
    G = ctx.group
    degrees = ctx.degrees
    o = ctx.order
    checks = {
        "irr_count_equals_regular_classes":
            len(degrees) == ctx.regular_data.regular_count,
        "degree_formula": sum(d * d for d in degrees) == G.order,
        "coclass_order_divides_degrees": all(d % o == 0 for d in degrees),
        "degrees_divide_group_order": all(G.order % d == 0 for d in degrees),
        "coclass_order_squared_divides": G.order % (o * o) == 0,
        "prime_chain": all(
            set(prime_divisors(o)) <= set(prime_divisors(d))
            <= set(prime_divisors(G.order)) for d in degrees),
    }
    hall_tested = 0
    for pi in default_pi_sets(G.order):
        if not is_pi_separable(G, pi):
            continue
        H = hall_subgroup(G, pi)
        side_order = pi.part(o) == 1          # Pi(c) inside pi'
        sides = [side_order, ctx.restriction_trivial(H)]
        if ctx.coclass is not None:
            sides.append(restrict_coclass(ctx.coclass, H).is_trivial())
        ok = len(set(sides)) == 1
        checks[f"hall_criterion_{pi.label()}"] = ok
        hall_tested += 1
    ok = all(checks.values())
    return _result("basic", ctx, "-", None, None, ok,
                   {"degrees": degrees, "coclass_order": o,
                    "hall_pi_sets_tested": hall_tested,
                    "failed": [k for k, v in checks.items() if not v]})


# -- dimension laws of the Clifford correspondence ---------------------------


def verify_clifford_laws(ctx: CoclassContext, N: Subgroup,
                         V: ProjRep) -> CheckResult:
    """Dimension product, prime-set identities, the coprime extension, and
    Hall containment for the Clifford machinery over (N, V)."""
    G = ctx.group
    A = ctx.algebra
    J = inertia_group(V, N, A)
    ext = clifford_extend(V, N, J, A)
    quot_group = ext.quotient.group
    b_alg = TwistedAlgebra(quot_group, ext.b_table)
    w_degrees = wedderburn(b_alg, seed=ctx.seed).degrees
    index = G.order // J.order
    over_V = [X for X in ctx.irreps
              if hom_dim(V, restrict_rep(X, N)) > 0]
    checks = {}
    # dimension bookkeeping: dim X = dim V * dim W * |G:J| as multisets
    lhs_dims = sorted(X.degree for X in over_V)
    rhs_dims = sorted(V.degree * w * index for w in w_degrees)
    checks["dimension_products"] = lhs_dims == rhs_dims
    # prime sets of the fiber
    lhs_primes = set().union(*[set(prime_divisors(X.degree)) for X in over_V]) \
        if over_V else set()
    rhs_primes = set(prime_divisors(V.degree)) \
        | set().union(*[set(prime_divisors(w)) for w in w_degrees]) \
        | set(prime_divisors(index))
    checks["fiber_primes"] = lhs_primes == rhs_primes
    # primes of Irr(N | res c) sit inside Pi(N) and Pi(Irr(G|c))
    n_degrees = ctx.restricted(N).degrees
    n_primes = set().union(*[set(prime_divisors(d)) for d in n_degrees])
    g_primes = set().union(*[set(prime_divisors(d)) for d in ctx.degrees])
    checks["subgroup_primes"] = n_primes <= (set(prime_divisors(N.order))
                                             & g_primes)
    # coprime case: trivial obstruction class
    pi_n = set(prime_divisors(N.order))
    pi_q = set(prime_divisors(J.order // N.order))
    if not (pi_n & pi_q) and set(prime_divisors(ctx.order)) <= pi_n:
        checks["coprime_extension"] = is_trivial_coclass(b_alg.cocycle)
    # pi'-degree members force J to contain a Hall pi-subgroup
    ps = prime_divisors(G.order)
    for pi in [PiSet([p]) for p in ps]:
        if not is_pi_separable(G, pi):
            continue
        for X in over_V:
            if pi.part(X.degree) == 1:
                checks[f"hall_containment_{pi.label()}"] = \
                    checks.get(f"hall_containment_{pi.label()}", True) and \
                    pi.part(index) == 1
    ok = all(checks.values())
    return _result(
        "clifford_laws", ctx, f"N={N.order},V={V.degree}", None, None, ok,
        {"inertia_order": J.order, "index": index,
         "quotient_degrees": w_degrees, "fiber_degrees": lhs_dims,
         "failed": [k for k, v in checks.items() if not v]})


# -- the Ito-Michler equivalence ---------------------------------------------


def _abelian_hall_conditions(ctx: CoclassContext, pi: PiSet,
                             H: Subgroup) -> dict:
    """The structural side: H abelian, trivial restriction, invariance of the
    irreducibles and of the c-regular classes of the pi-complement core."""
    G = ctx.group
    A = ctx.algebra
    abelian = H.as_group().is_abelian()
    res_trivial = ctx.restriction_trivial(H)
    N = o_pi(G, pi.complement_in(G.order))
    h_gens = [int(H.elements[g]) for g in H.as_group().gen_set()]
    inv_irr = True
    inv_cls = True
    if N.order > 1:
        res_ctx = ctx.restricted(N)
        for Vn in res_ctx.irreps:
            if not all(is_inertial(Vn, N, g, A) for g in h_gens):
                inv_irr = False
                break
        reg = res_ctx.regular_data
        classes_N = conjugacy_classes(N.as_group())
        for rec, cls in zip(reg.records, classes_N):
            if not rec.c_regular:
                continue
            members = set(int(N.elements[m]) for m in cls.members)
            for g in h_gens:
                if any(G.conj(x, g) not in members for x in members):
                    inv_cls = False
                    break
            if not inv_cls:
                break
    return {"abelian": abelian, "restriction_trivial": res_trivial,
            "invariant_irreducibles": inv_irr,
            "invariant_regular_classes": inv_cls,
            "core_order": N.order}


def verify_ito_michler(ctx: CoclassContext, pi) -> CheckResult:
    """p (or pi) avoids every twisted degree iff the Hall subgroup is
    abelian, the coclass restricts trivially to it, and it fixes the
    irreducibles of O_pi'(G) -- equivalently its c-regular classes.

    For a single prime the hypothesis is p-solvability; for a genuine prime
    set it is G = O_{pi' pi pi'}(G).
    """
    if isinstance(pi, int):
        pi = PiSet([pi])
    G = ctx.group
    param = f"pi={pi.label()}"
    if len(pi.primes) == 1:
        (p,) = pi.primes
        if not is_p_solvable(G, p):
            return _inapplicable("ito_michler", ctx, param,
                                 f"{G.name} is not {p}-solvable")
    else:
        if not _is_pi_prime_pi_pi_prime(G, pi):
            return _inapplicable(
                "ito_michler", ctx, param,
                f"{G.name} != O_(pi'pipi') for pi={pi.label()}")
    H = hall_subgroup(G, pi)
    cond_i = all(pi.part(d) == 1 for d in ctx.degrees)
    side = _abelian_hall_conditions(ctx, pi, H)
    cond_ii = side["abelian"] and side["restriction_trivial"] \
        and side["invariant_irreducibles"]
    cond_iii = side["abelian"] and side["restriction_trivial"] \
        and side["invariant_regular_classes"]
    ok = cond_i == cond_ii == cond_iii
    return _result("ito_michler", ctx, param, cond_i,
                   {"ii": cond_ii, "iii": cond_iii}, ok,
                   {"degrees": ctx.degrees, "hall_order": H.order, **side})


def _is_pi_prime_pi_pi_prime(G: FiniteGroup, pi: PiSet) -> bool:
    """G equals its O_(pi' pi pi') term: the ladder started at pi' reaches
    G within three steps."""
    ladder = pi_ladder(G, pi.complement_in(G.order))
    return len(ladder) <= 4 and ladder[-1].order == G.order


def verify_normal_sylow_criterion(ctx: CoclassContext, p: int) -> CheckResult:
    """When every class of O_p'(G) is c-regular: p avoids the twisted
    degrees iff the Sylow p-subgroup is normal abelian with trivial
    restriction."""
    G = ctx.group
    param = f"p={p}"
    if not is_p_solvable(G, p):
        return _inapplicable("normal_sylow_criterion", ctx, param,
                             f"{G.name} is not {p}-solvable")
    N = o_pi(G, PiSet([p]).complement_in(G.order))
    if N.order > 1 and not all(ctx.restricted(N).regular_data.flags):
        return _inapplicable("normal_sylow_criterion", ctx, param,
                             "a class of the p-complement core is not c-regular")
    P = sylow_subgroup(G, p)
    lhs = all(d % p != 0 for d in ctx.degrees)
    rhs = P.is_normal() and P.as_group().is_abelian() \
        and ctx.restriction_trivial(P)
    return _result("normal_sylow_criterion", ctx, param, lhs, rhs, lhs == rhs,
                   {"degrees": ctx.degrees, "sylow_order": P.order,
                    "sylow_normal": P.is_normal()})


def verify_pi_theorem(ctx: CoclassContext, pi: PiSet) -> CheckResult:
    """All twisted degrees are pi'-numbers iff G is p-solvable with the
    abelian-Hall conditions for every p in pi; in that case every pi-factor
    of the pi-series is abelian and the restriction to a Hall pi-subgroup
    is trivial."""
    G = ctx.group
    param = f"pi={pi.label()}"
    if not is_pi_separable(G, pi):
        return _inapplicable("pi_theorem", ctx, param,
                             f"{G.name} is not {pi.label()}-separable")
    lhs = all(pi.part(d) == 1 for d in ctx.degrees)
    rhs = True
    per_prime = {}
    for p in pi:
        if G.order % p:
            continue
        if not is_p_solvable(G, p):
            rhs = False
            per_prime[p] = "not p-solvable"
            continue
        side = _abelian_hall_conditions(ctx, PiSet([p]), sylow_subgroup(G, p))
        good = side["abelian"] and side["restriction_trivial"] \
            and side["invariant_irreducibles"]
        per_prime[p] = good
        rhs = rhs and good
    extra_ok = True
    extra = {}
    if lhs:
        series = pi_series(G, pi)
        for i, tag in enumerate(series.factor_pi_tags):
            if tag != "pi":
                continue
            lower, upper = series.terms[i], series.terms[i + 1]
            Ug = upper.as_group()
            inner = Subgroup(Ug, upper.positions()[lower.elements])
            factor = quotient_group(Ug, inner).group
            extra[f"factor_{i}_abelian"] = factor.is_abelian()
            extra_ok = extra_ok and factor.is_abelian()
        H = hall_subgroup(G, pi)
        extra["hall_restriction_trivial"] = ctx.restriction_trivial(H)
        extra_ok = extra_ok and extra["hall_restriction_trivial"]
    ok = (lhs == rhs) and extra_ok
    return _result("pi_theorem", ctx, param, lhs, rhs, ok,
                   {"degrees": ctx.degrees, "per_prime": per_prime, **extra})


def verify_a5_negative_control(ctx: CoclassContext) -> CheckResult:
    """On the order-60 simple group with p = 2 and trivial coclass the
    structural conditions hold while 2 divides a degree: the equivalence is
    expected to break outside p-solvable scope."""
    G = ctx.group
    if G.order != 60 or is_p_solvable(G, 2):
        return _inapplicable("a5_negative_control", ctx, "p=2",
                             "control requires the simple group of order 60")
    P = sylow_subgroup(G, 2)
    side = _abelian_hall_conditions(ctx, PiSet([2]), P)
    cond_ii = side["abelian"] and side["restriction_trivial"] \
        and side["invariant_irreducibles"]
    cond_i = all(d % 2 != 0 for d in ctx.degrees)
    ok = cond_ii and not cond_i
    return _result("a5_negative_control", ctx, "p=2", cond_i, cond_ii, ok,
                   {"degrees": ctx.degrees, "sylow_order": P.order, **side})


# -- recursive decomposition certificates ------------------------------------


@dataclass
class DecompositionCertificate:
    """Witnesses for V = ind(Y_1 (x) ... (x) Y_l) from a subgroup J."""

    subgroup: Subgroup
    factors: list[ProjRep]
    reconstruction: ProjRep
    intertwiner_dim: int
    residual: float
    input_degree: int

    @property
    def index(self) -> int:
        return self.subgroup.parent.order // self.subgroup.order

    @property
    def factor_degrees(self) -> list[int]:
        return [Y.degree for Y in self.factors]


def decompose_along_series(V: ProjRep, terms: list[Subgroup],
                           ctx: CoclassContext) -> DecompositionCertificate:
    """Walk the normal series, at each step extending a constituent to its
    inertia group and splitting off the quotient factor; the certificate is
    verified by re-inducing the tensor of the factors."""
    G = ctx.group
    if not is_irreducible(V):
        raise ValueError("input representation must be irreducible")
    if not terms or not np.array_equal(terms[-1].elements, np.arange(G.order)):
        raise ValueError("series must end at the full group")
    Jg = G
    emb = np.arange(G.order)
    btab = ctx.algebra.table
    W = V
    stored: list[tuple[ProjRep, np.ndarray]] = []
    for i, T in enumerate(terms):
        last = i == len(terms) - 1
        if last:
            stored.append((W, emb))
            break
        M = Subgroup(Jg, np.nonzero(T.mask()[emb])[0])
        # Clifford's theorem is fixed at both ends: over the trivial group
        # the inertia group is J and the factor trivial; over all of J the
        # extension is W itself and the quotient factor trivial
        if M.order == 1:
            stored.append((_trivial_rep(Jg), emb))
            continue
        if M.order == Jg.order:
            stored.append((W, emb))
            W = _trivial_rep(Jg)
            btab = W.table
            continue
        A_cur = (ctx.algebra if btab is ctx.algebra.table
                 else TwistedAlgebra(Jg, btab))
        resW = restrict_rep(W, M)
        cons = decompose(resW, seed=ctx.seed)
        Vi = cons[0].rep  # lowest (degree, character) constituent
        J_next = inertia_group(Vi, M, A_cur)
        ext = clifford_extend(Vi, M, J_next, A_cur)
        # the Clifford correspondent: the constituent of res W over Vi
        resJ = restrict_rep(W, J_next)
        cands = [c.rep for c in decompose(resJ, seed=ctx.seed)
                 if hom_dim(Vi, restrict_rep(c.rep, ext.n_in_j))]
        if len(cands) != 1:
            raise ReconstructionFailure(
                f"{len(cands)} Clifford correspondents at step {i}")
        X = cands[0]
        back = induce_rep(X, J_next, A_cur)
        if hom_dim(back, W) != 1:
            raise ReconstructionFailure(f"correspondent fails to induce back "
                                        f"at step {i}")
        Wq = factor_over_extension(X, ext)
        stored.append((ext.extension, emb[J_next.elements]))
        W = inflate_rep_on(J_next.as_group(), Wq, ext.quotient)
        emb = emb[J_next.elements]
        Jg = J_next.as_group()
        btab = W.table
    final_emb = stored[-1][1]
    J_final = Subgroup(G, final_emb)
    Jf = J_final.as_group()
    factors = []
    for Y, emb_y in stored:
        pos = {int(v): i for i, v in enumerate(emb_y)}
        sub = Subgroup(Y.group, [pos[int(v)] for v in final_emb])
        restricted = restrict_rep(Y, sub)
        if not np.array_equal(restricted.group.mul, Jf.mul):
            raise ReconstructionFailure("factor restricts to a relabelled "
                                        "copy of the final subgroup")
        factors.append(ProjRep(Jf, restricted.table, restricted.matrices,
                               check=False))
    big = factors[0]
    for Y in factors[1:]:
        big = tensor_reps(big, Y)
    exact = ctx.algebra.table[np.ix_(final_emb, final_emb)]
    # the whole residual is bounded: the factor cocycles' drift from the
    # restricted cocycle and the defects of the tensor and its induction
    drift = float(np.max(np.abs(big.table - exact)))
    rebased = ProjRep(Jf, exact, big.matrices, check=False)
    recon = induce_rep(rebased, J_final, ctx.algebra)
    residual = max(drift, recon.defect(), rebased.defect())
    if residual > TOL_DEFECT:
        raise ReconstructionFailure(f"certificate residual {residual:.2e} "
                                    f"(cocycle drift {drift:.2e})")
    dim = hom_dim(recon, V)
    if dim != 1:
        raise ReconstructionFailure("induced tensor is not isomorphic to V")
    return DecompositionCertificate(subgroup=J_final, factors=factors,
                                    reconstruction=recon, intertwiner_dim=dim,
                                    residual=residual, input_degree=V.degree)


def pi_decompose(V: ProjRep, pi: PiSet, ctx: CoclassContext
                 ) -> tuple[DecompositionCertificate, CheckResult]:
    """Split V through the alternating pi-series into a pi-part and a
    pi'-part and check the degree identities and restriction laws."""
    G = ctx.group
    if not is_pi_separable(G, pi):
        raise NotPiSeparable(f"{G.name} is not {pi.label()}-separable")
    series = alternating_pi_series(G, pi)
    cert = decompose_along_series(V, series.terms[1:], ctx)
    tags = series.factor_pi_tags
    J = cert.subgroup
    Jf = J.as_group()
    pi_factors = [Y for Y, t in zip(cert.factors, tags) if t == "pi"]
    pip_factors = [Y for Y, t in zip(cert.factors, tags) if t == "pi_prime"]
    V_pi = _tensor_chain(Jf, pi_factors)
    V_pip = _tensor_chain(Jf, pip_factors)
    checks = {}
    witnesses: dict = {"J_order": J.order, "dim_pi": V_pi.degree,
                       "dim_pip": V_pip.degree, "tags": tags}
    # both factors irreducible on Hall subgroups of J
    H_loc = hall_subgroup(Jf, pi)
    Hp_loc = hall_subgroup(Jf, pi.complement_in(Jf.order))
    checks["pi_part_irreducible_on_hall"] = \
        H_loc.order == 1 or is_irreducible(restrict_rep(V_pi, H_loc))
    checks["pip_part_irreducible_on_hall"] = \
        Hp_loc.order == 1 or is_irreducible(restrict_rep(V_pip, Hp_loc))
    # cross restrictions are ordinary (trivial cocycle classes)
    checks["pip_on_hall_pi_ordinary"] = H_loc.order == 1 or \
        is_trivial_coclass(Cocycle.from_units(
            H_loc.as_group(), restrict_rep(V_pip, H_loc).table))
    checks["pi_on_hall_pip_ordinary"] = Hp_loc.order == 1 or \
        is_trivial_coclass(Cocycle.from_units(
            Hp_loc.as_group(), restrict_rep(V_pi, Hp_loc).table))
    # coclass identification against the symbolic pi-parts
    if ctx.coclass is not None:
        c_pi, c_pip = pi_part(ctx.coclass, pi)
        for nameq, part, rep in (("pi", c_pi, V_pi), ("pip", c_pip, V_pip)):
            quotient = Cocycle.from_units(Jf, rep.table).mul(
                part.representative.restrict(J).power(-1))
            checks[f"coclass_{nameq}_identified"] = \
                is_trivial_coclass(quotient)
        witnesses["c_pi_order"] = c_pi.order
        witnesses["c_pip_order"] = c_pip.order
    # degree identities
    index = cert.index
    dimv = V.degree
    checks["pi_degree_identity"] = \
        pi.part(dimv) == pi.part(index) * V_pi.degree
    checks["pip_degree_identity"] = \
        pi.coprime_part(dimv) == pi.coprime_part(index) * V_pip.degree
    # the pi'-degree criterion
    lhs = pi.part(dimv) == 1
    U = tensor_reps(V_pi, V_pip)
    rhs = (H_loc.order == pi.part(G.order)
           and pi.part(ctx.order) == 1
           and V_pi.degree == 1
           and (Hp_loc.order == 1
                or is_irreducible(restrict_rep(U, Hp_loc))))
    checks["pi_prime_degree_criterion"] = lhs == rhs
    ok = all(checks.values())
    witnesses["failed"] = [k for k, v in checks.items() if not v]
    report = _result("pi_decomposition", ctx,
                     f"pi={pi.label()},dim={V.degree}", lhs, rhs, ok,
                     witnesses)
    return cert, report


def _trivial_rep(G: FiniteGroup) -> ProjRep:
    """The trivial character over the trivial cocycle."""
    return ProjRep(G, np.ones((G.order, G.order), dtype=np.complex128),
                   np.ones((G.order, 1, 1), dtype=np.complex128), check=False)


def _tensor_chain(Jf: FiniteGroup, factors: list[ProjRep]) -> ProjRep:
    if not factors:
        return _trivial_rep(Jf)
    out = factors[0]
    for Y in factors[1:]:
        out = tensor_reps(out, Y)
    return out
