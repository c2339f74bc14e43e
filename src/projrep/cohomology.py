"""Second cohomology with complex-unit coefficients on small groups.

Cocycles are stored additively: an integer table t with modulus m encodes the
complex cocycle exp(2*pi*i*t/m).

A Cocycle is exact: it is checked where it is built, with check=True, and
restrict, power, mul and the multiplier basis keep it exact.  A complex
table enters through Cocycle.from_units, the one place one is rounded: to
the mu_n cocycle (n = |G|) of its class whose rows sum to zero.

One exact test decides whether a class is trivial.  The mu_n form e of a
cocycle (_edge_forms) has rows that sum to zero, so e = delta(l) forces
n l = 0, and e is trivial in H^2(G, C*) iff it is the coboundary of a
Z/n-valued cochain: one congruence per Cayley-graph edge off a BFS tree
(_edges), tested against a left annihilator computed once per group
(_coboundary_tests).  The test at p decides the p-part of the class alone.
is_trivial_coclass and class_order ask it, unless the form is zero on the
edges, and so do the multiplier's relations and resolve.  None of them
checks its cocycle again.

The multiplier of G is assembled prime by prime: for each p with p^2 | |G|,
q = p^floor(v_p(|G|)/2) bounds the exponent of the p-part, whose classes
are those of Z^2(Z/q); a combination of cocycle generators is a relation iff
the annihilator at p kills its mu_n form on the edges.  Restriction embeds
the p-part in the classes of M(P), P a Sylow p-subgroup, that N_G(P) fixes
(Cartan-Eilenberg, *Homological Algebra*, XII section 10).  A nonzero fixed
subgroup is a p-group, so it holds a fixed class of order p: p is skipped
when N_G(P) fixes no class of order p in M(P) (_skips_prime).
resolve solves the same congruences for the exponents over the basis and
certifies the answer with the test itself.

Z^2(Z/q) is solved in generator coordinates.  A normalized cocycle is fixed
by its values a(x, g) on the generators g, since the cocycle identity reads
a(x, yg) = a(x, y) + a(xy, g) - a(y, g) along a BFS tree of the Cayley graph.
That lift L turns the identity into a matrix FL on |gens|*(|G|-1) unknowns
instead of (|G|-1)^2, and Z^2(Z/p^j) = L ker(FL mod p^j).  FL holds the
identity rows F(g, y, h) at generators g only, on the Cayley-graph edges
(y, h) off the tree: the fundamental cycles of the tree span the cycle
space, the relation module of G (K. S. Brown, *Cohomology of Groups*,
II.5), and every x is a word in the generators, so the rows at every other
x are integer combinations of these and nothing is deduplicated.  Every
kernel, solution and cokernel is read off one Smith decomposition over
Z/p^k per solve, so FL is decomposed once per prime, and so is each
presentation of a p-part, whose cokernel generators come from the same
elimination.
_kernel_from_chain makes kernel generators canonical, so basis cocycles do
not depend on how the solve went.  All of it is exact integer arithmetic,
checked against the matrices solved.  The lift, FL and the lifted chain
stay in the narrowest integer type that holds their entries, eliminations
reduce lazily, and every product and update runs over bounded row blocks.
Everything here is immutable after construction; the solver context is
read-only and safe to share.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np

from .errors import (
    CocycleMismatch,
    CrossCheckMismatch,
    LiftOverflow,
    ModulusMismatch,
    NotCentral,
    NotCyclic,
)
from .groups import (
    FiniteGroup,
    Quotient,
    Subgroup,
    centralizer_of_set,
    closure,
    factorize,
    quotient_group,
    sylow_subgroup,
)
from .tolerances import TOL_UNIT


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# -- linear algebra mod prime powers ---------------------------------------


# bytes of a row block: large arrays are filled, updated and multiplied a
# block of rows at a time, so no temporary grows with the whole array
_BLOCK_BYTES = 1 << 18

_INT_MIN = {np.dtype(t): int(np.iinfo(t).min)
            for t in (np.int8, np.int16, np.int32, np.int64)}


def _int_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds every |x| <= bound."""
    return next(t for t, lo in _INT_MIN.items() if bound < -lo)


def _lazy_dtype(q: int) -> np.dtype:
    """The type of a matrix reduced lazily mod q (_eliminate): room for a
    few updates of at most (q-1)^2 each between reductions."""
    return _int_dtype(8 * (q - 1) ** 2)


def _eliminate(W: np.ndarray, rows: np.ndarray, f: np.ndarray,
               pivot: np.ndarray, q: int) -> None:
    """W[rows, c:] -= f pivot, pivot of length W.shape[1] - c, f and pivot
    reduced mod q.

    Entries of W are at most q - 1 and only fall, by at most (q-1)^2 an
    update, so W is reduced lazily: its readers reduce what they read, and a
    block of rows is reduced here only when one more update could leave W's
    type.  The rows are updated a block at a time, so the gathered rows and
    the rank-1 product stay bounded.
    """
    if not rows.size:
        return
    c = W.shape[1] - pivot.size
    floor = _INT_MIN[W.dtype] + (q - 1) ** 2
    step = max(1, _BLOCK_BYTES // pivot.nbytes)
    for i in range(0, rows.size, step):
        r = rows[i:i + step]
        block = W[r, c:]
        block -= np.outer(f[i:i + step], pivot)
        if block.min() < floor:
            np.remainder(block, W.dtype.type(q), out=block)
        W[r, c:] = block


def _rref_mod_p(M: np.ndarray, p: int):
    """Reduced row echelon form over GF(p).  Returns (R, pivots).

    R is a narrow copy of M reduced lazily mod p (_eliminate), and fully at
    the end.  Rows at and below the pivot row are zero mod p left of the
    pivot column, and so is each pivot row left of its pivot, so updates
    start at the pivot column.
    """
    M = np.asarray(M)
    R = np.empty(M.shape, dtype=_lazy_dtype(p))
    np.remainder(M, R.dtype.type(p), out=R)
    rows, cols = R.shape
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c] % p)
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r, c:] %= p
        piv = int(R[r, c])
        if piv != 1:
            R[r, c:] = R[r, c:] * R.dtype.type(pow(piv, -1, p)) % p
        below = r + nz[1:]
        _eliminate(R, below, R[below, c] % p, R[r, c:], p)
        pivots.append((r, c))
        r += 1
    for ri, ci in reversed(pivots[1:]):
        R[ri, ci:] %= p
        f = R[:ri, ci] % p
        above = np.flatnonzero(f)
        _eliminate(R, above, f[above], R[ri, ci:], p)
    R %= p
    return R, pivots


def _kernel_from_chain(chain: list[np.ndarray], p: int) -> np.ndarray:
    """Canonical generators, as rows, of ker(M mod p^k), from the kernels of
    M alone, in the narrowest type that holds p^k.

    chain[j-1] holds generators (as rows) of ker(M mod p^j) for j = 1..k;
    the result depends only on those kernels.  Level 1 is the basis K of
    ker(M mod p) reduced on each vector's last nonzero entry (its lead),
    leads ascending.  Above it, v = Kx + py with (x, y) in the kernel of
    [MK/p | M] mod p^(k-1), whose kernel mod p^j is {(x, y) : Kx + py in
    ker(M mod p^(j+1))}, generated by (a[lead], (a - K a[lead])/p) over the
    generators a of ker(M mod p^(j+1)) together with (-p e_i, K e_i), the
    integer kernel of (x, y) -> Kx + py; that chain is canonicalized in turn.
    The products with K run in float64 (_matmul_mod), reduced mod the power
    of p they are read at.
    """
    k = len(chain)
    cols = chain[0].shape[1]
    R, pivots = _rref_mod_p(chain[0][:, ::-1], p)
    # R's pivot rows come first; reversed both ways, their leads ascend
    basis = np.ascontiguousarray(R[:len(pivots)][::-1, ::-1])
    lead = [cols - 1 - c for _, c in reversed(pivots)]
    if k == 1 or not basis.shape[0]:
        return basis
    K = basis.T
    kappa = K.shape[1]
    shifts = np.concatenate([-p * np.eye(kappa, dtype=np.int64), K]).T
    sub = []
    for j in range(1, k):
        A = chain[j].astype(np.int64)
        X = A[:, lead]
        # A - X K^T = 0 mod p, and mod p^(j+1) it fixes its quotient mod p^j
        lifted = np.concatenate(
            [X, (A - _matmul_mod(X, K.T, p ** (j + 1))) // p], axis=1)
        sub.append(np.concatenate([lifted, shifts]) % p**j)
    q = p**k
    w = _kernel_from_chain(sub, p).astype(np.int64)
    return ((_matmul_mod(w[:, :kappa], K.T, q) + p * w[:, kappa:]) % q
            ).astype(_int_dtype(q - 1))


def smith_mod_prime_power(A: np.ndarray, p: int, k: int, extra=None,
                          inverse: bool = False):
    """Smith decomposition U A V = D of A over Z/p^k, with q = p^k.

    Each step pivots on the first entry of minimal p-valuation, in row-major
    order, of the trailing block, scales its row to p^v and clears the column
    below it.  Returns (vals, V, X), all mod q: D_ii = p^vals[i] (ascending)
    for i < len(vals), and D is zero elsewhere; V is the column transform; X
    is U extra, the row operations applied to a block of extra columns, or,
    with ``inverse``, U^-1: the inverse of each row operation applied, as a
    column operation, to an identity block.  U itself is never formed.
    """
    q = p**k
    A = np.asarray(A)
    if A.ndim != 2:
        raise ModulusMismatch(f"matrix of shape {A.shape}")
    rows, cols = A.shape
    X = np.zeros((rows, 0), dtype=np.int8) if extra is None else np.asarray(extra)
    # reduced lazily (_eliminate), so a narrow type is exact; A and extra
    # are reduced straight into it
    W = np.empty((rows, cols + X.shape[1]), dtype=_lazy_dtype(q))
    np.remainder(A, W.dtype.type(q), out=W[:, :cols])
    np.remainder(X, W.dtype.type(q), out=W[:, cols:])
    V = np.eye(cols, dtype=np.int64)
    uinv = np.eye(rows, dtype=np.int64) if inverse else None
    vals: list[int] = []
    s = v = lo = 0
    while s < min(rows, cols) and v < k:
        # rows in [s, lo) have no entry of valuation v and keep none, as the
        # pivot row's have valuation >= v: scan on in chunks that double
        size = 8
        while lo < rows:
            chunk = W[lo:lo + size, s:cols] % p ** (v + 1)
            live = np.flatnonzero(chunk.any(axis=1))
            if live.size:
                break
            lo, size = lo + size, 2 * size
        if lo >= rows:
            v, lo = v + 1, s
            continue
        bi, bj = lo + live[0], s + np.flatnonzero(chunk[live[0]])[0]
        W[[s, bi]] = W[[bi, s]]
        W[:, [s, bj]] = W[:, [bj, s]]
        V[:, [s, bj]] = V[:, [bj, s]]
        pv = p**v
        W[s, s:] %= q
        unit = int(W[s, s]) // pv
        W[s, s:] = W[s, s:] * W.dtype.type(pow(unit, -1, q)) % q
        col = W[s + 1:, s] % q
        below = np.flatnonzero(col)
        f = col[below] // W.dtype.type(pv)
        below += s + 1
        _eliminate(W, below, f, W[s, s:], q)
        if uinv is not None:
            # undo swap, scaling and clearing, in that order, on the columns
            uinv[:, [s, bi]] = uinv[:, [bi, s]]
            uinv[:, s] = (uinv[:, s] * unit
                          + uinv[:, below] @ f.astype(np.int64)) % q
        V[:, s + 1:] = (V[:, s + 1:]
                        - np.outer(V[:, s], W[s, s + 1:cols] // pv)) % q
        vals.append(v)
        s, lo = s + 1, bi + 1
    return vals, V, uinv if inverse else (W[:, cols:] % q).astype(np.int64)


def _reduced(A: np.ndarray, q: int) -> np.ndarray:
    """A mod q, in A's own integer type where q fits it: narrow is fast."""
    return np.remainder(A, q, dtype=np.int64 if q > np.iinfo(A.dtype).max
                        else A.dtype)


def _matmul_mod_blocks(X: np.ndarray, Y: np.ndarray, q: int):
    """Yield (first row, block) over the row blocks of X @ Y mod q.

    Entries are reduced into [0, q) and multiplied in float64, so each entry
    of a block is a sum of X.shape[-1] products below (q-1)^2: exact while
    that sum stays within 2^53, and ModulusMismatch is raised before any
    work when it could not.  A 3-d X stands for the matrix whose rows are
    X[i, j]; it is taken a block of i at a time, so its float copy stays
    within about _BLOCK_BYTES.
    """
    inner = X.shape[-1]
    if inner * (q - 1) ** 2 > 2**53:
        raise ModulusMismatch(f"{inner} products mod {q} leave the float64 "
                              "integer range")
    per = prod(X.shape[1:-1])
    Yf = _reduced(np.asarray(Y), q).astype(np.float64)
    step = max(1, _BLOCK_BYTES // (8 * max(per * inner, 1)))
    for i in range(0, X.shape[0], step):
        block = X[i:i + step]
        B = _reduced(block, q).astype(np.float64).reshape(
            block.shape[0] * per, inner) @ Yf
        yield i * per, np.remainder(B, q, out=B)


def _matmul_mod(X: np.ndarray, Y: np.ndarray, q: int) -> np.ndarray:
    """X @ Y mod q as int64, exactly (see _matmul_mod_blocks)."""
    out = np.empty((X.shape[0], Y.shape[1]), dtype=np.int64)
    for r, B in _matmul_mod_blocks(X, Y, q):
        out[r:r + B.shape[0]] = B
    return out


def _kernel_chain(M: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Generators, as rows, of ker(M mod p^j) for j = 1..k, from one Smith form.

    With U M V = D, ker(M mod p^j) is generated by the V_i p^max(0, j - v_i),
    v_i the valuation of D_ii (k past the rank); those with v_i = 0 vanish.
    Every level needs M V_i = 0 mod p^v_i, so checking level k checks all;
    the check reads M V a row block at a time.
    """
    q = p**k
    vals, V, _ = smith_mod_prime_power(M, p, k)
    v = np.array(vals + [k] * (V.shape[1] - len(vals)), dtype=np.int64)
    K, v = V[:, v > 0], v[v > 0]
    if any(np.any(B) for _, B in _matmul_mod_blocks(M, K * p ** (k - v), q)):
        raise CrossCheckMismatch(f"a kernel generator fails M w = 0 mod {q}")
    return [np.ascontiguousarray((K * p ** np.maximum(0, j - v)).T % p**j)
            for j in range(1, k + 1)]


def kernel_mod_prime_power(M: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Canonical generators of {v : M v = 0 mod p^k} in (Z/p^k)^cols."""
    return list(_kernel_from_chain(_kernel_chain(M, p, k), p).astype(np.int64))


def solve_mod_prime_power(M: np.ndarray, t: np.ndarray, p: int, k: int):
    """One solution of M u = t mod p^k, or None if inconsistent.

    t is a vector or a block of columns.  With U M V = D and t carried, M u = t
    iff D y = U t for y = V^-1 u, solvable iff each (U t)_i is divisible by
    D_ii (zero past the rank); then u = V y.
    """
    q = p**k
    M = np.asarray(M, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    T = t[:, None] if t.ndim == 1 else t
    vals, V, UT = smith_mod_prime_power(M, p, k, T)
    r = len(vals)
    d = p ** np.array(vals, dtype=np.int64)[:, None]
    if np.any(UT[:r] % d) or np.any(UT[r:]):
        return None
    u = _matmul_mod(V[:, :r], UT[:r] // d, q)
    if np.any((_matmul_mod(M, u, q) - T) % q):
        raise CrossCheckMismatch(f"a solution fails M u = t mod {q}")
    return u[:, 0] if t.ndim == 1 else u


def _cokernel(P: np.ndarray, p: int, k: int):
    """(invariants, uinv) of coker P = (Z/p^k)^rows / colspan(P), ascending.

    With U P V = D the cokernel is the sum of the Z/D_ii (Z/p^k past the
    rank), and the generator of the i-th factor is column i of uinv = U^-1,
    which the one decomposition of P returns.
    """
    vals, _, uinv = smith_mod_prime_power(P, p, k, inverse=True)
    return [p**v for v in vals] + [p**k] * (P.shape[0] - len(vals)), uinv


# -- cochains and cocycles --------------------------------------------------


class Cocycle:
    """A normalized 2-cocycle with values in the m-th roots of unity.

    The table holds exponents: the complex value at (x, y) is
    exp(2*pi*i*table[x, y]/modulus).  With ``check`` it is refused with
    CocycleMismatch unless normalized and a cocycle.
    """

    def __init__(self, group: FiniteGroup, modulus: int, table, check: bool = True):
        self.group = group
        self.modulus = int(modulus)
        tab = np.ascontiguousarray(np.asarray(table, dtype=np.int64)) % self.modulus \
            if self.modulus > 1 else np.zeros((group.order, group.order), dtype=np.int64)
        if tab.shape != (group.order, group.order):
            raise ModulusMismatch("table shape does not match group order")
        self.table = tab
        self.table.setflags(write=False)
        if check:
            if np.any(self.table[0]) or np.any(self.table[:, 0]):
                raise CocycleMismatch("cocycle is not normalized")
            if not self.is_cocycle():
                raise CocycleMismatch("table violates the cocycle identity")

    @classmethod
    def from_units(cls, group: FiniteGroup, table) -> "Cocycle":
        """The mu_n cocycle mod n = |G| of the class of a complex unit table.

        With t(x, y) = arg/2pi and S(x) = sum_z t(x, z), summing the cocycle
        identity over z gives n t(x, y) = S(x) + S(y) - S(xy) mod 1, so
        e = n t + S(xy) - S(x) - S(y) is an integer table, and e/n is t minus
        the coboundary of S/n (Schur; Karpilovsky, *Projective
        Representations of Finite Groups*, 1985).  Raises CocycleMismatch on
        a table more than ``TOL_UNIT`` off normalization, off the unit circle
        or off mu_n, and on an e that fails the cocycle identity.
        """
        n = group.order
        tab = np.asarray(table, dtype=np.complex128)
        if tab.shape != (n, n):
            raise ModulusMismatch("table shape does not match group order")
        if max(np.max(np.abs(tab[0] - 1.0)),
               np.max(np.abs(tab[:, 0] - 1.0))) > TOL_UNIT:
            raise CocycleMismatch("cocycle is not normalized")
        unit = float(np.max(np.abs(np.abs(tab) - 1.0)))
        if unit > TOL_UNIT:
            raise CocycleMismatch(f"cocycle values are {unit:.2e} off the "
                                  "unit circle")
        t = np.angle(tab) / (2 * np.pi)
        s = t.sum(axis=1)
        exact = n * t + s[group.mul] - s[:, None] - s[None, :]
        e = np.rint(exact)
        margin = float(np.max(np.abs(exact - e)))
        if margin > TOL_UNIT:
            raise CocycleMismatch(f"table is {margin:.2e} from a mu_{n} "
                                  "cocycle")
        e = e.astype(np.int64) % n
        if not _satisfies_cocycle_identity(group, e, n):
            raise CocycleMismatch("table violates the cocycle identity")
        return cls(group, n, e, check=False)

    def is_cocycle(self) -> bool:
        return _satisfies_cocycle_identity(self.group, self.table,
                                           self.modulus)

    def unit_table(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.table / self.modulus)

    def power(self, k: int) -> "Cocycle":
        return Cocycle(self.group, self.modulus, (k * self.table) % self.modulus,
                       check=False)

    def mul(self, other: "Cocycle") -> "Cocycle":
        if other.group is not self.group:
            raise ModulusMismatch("cocycles live on different groups")
        m = _lcm(self.modulus, other.modulus)
        t = self.table * (m // self.modulus) + other.table * (m // other.modulus)
        return Cocycle(self.group, m, t % m, check=False)

    def restrict(self, H: Subgroup) -> "Cocycle":
        if H.parent is not self.group:
            raise ModulusMismatch("subgroup of a different group")
        el = H.elements
        return Cocycle(H.as_group(), self.modulus,
                       self.table[np.ix_(el, el)], check=False)

    def hash_hex(self) -> str:
        # hashlib's builtin fallback: the same digest, and no OpenSSL mapped
        try:
            from _sha2 import sha256
        except ImportError:  # Python 3.10 and 3.11
            from _sha256 import sha256
        h = sha256()
        h.update(str(self.modulus).encode())
        h.update(self.table.tobytes())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Cocycle({self.group.name}, mod {self.modulus})"


def trivial_cocycle(G: FiniteGroup, modulus: int | None = None) -> Cocycle:
    m = modulus if modulus is not None else max(G.order, 1)
    return Cocycle(G, m, np.zeros((G.order, G.order), dtype=np.int64), check=False)


# -- the multiplier ----------------------------------------------------------


def _flat(table: np.ndarray) -> np.ndarray:
    """Nonidentity block of a table, flattened."""
    return np.ascontiguousarray(table[1:, 1:]).reshape(-1)


def _unflat(v: np.ndarray, n: int) -> np.ndarray:
    tab = np.zeros((n, n), dtype=np.int64)
    tab[1:, 1:] = v.reshape(n - 1, n - 1)
    return tab


def _satisfies_cocycle_identity(G: FiniteGroup, t: np.ndarray, m: int) -> bool:
    """The cocycle identity mod m on the triples (x, y, g), g a generator.
    Its defect F(x,y,z) = t(x,y) + t(xy,z) - t(y,z) - t(x,yz) has
    F(x,y,zg) = F(x,y,z) + F(x,yz,g) - F(xy,z,g) + F(y,z,g), and every
    element is a nonempty word in the generators, so they imply the rest."""
    gens = G.gen_set()
    lhs = t[:, :, None] + t[:, gens][G.mul]
    rhs = t[None, :, gens] + t[:, G.mul[:, gens]]
    return not np.any((lhs - rhs) % m)


def _cayley_tree(G: FiniteGroup) -> list[tuple[int, int, int]]:
    """A BFS tree of the right Cayley graph, rooted at 1 and its generators.

    Each edge (y, b, z) reaches z = y * gens[b] for the first time, in BFS
    order; the generators themselves hang off the root.
    """
    if "cayley_tree" in G._cache:
        return G._cache["cayley_tree"]
    gens = G.gen_set()
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    seen[gens] = True
    tree = []
    frontier = gens
    while frontier:
        nxt = []
        for y in frontier:
            for b, g in enumerate(gens):
                z = int(G.mul[y, g])
                if seen[z]:
                    continue
                seen[z] = True
                tree.append((y, b, z))
                nxt.append(z)
        frontier = nxt
    return G._cache.setdefault("cayley_tree", tree)


# |entries| of the int8 lift: four of them sum without leaving int8
_LIFT_BOUND = 127 // 4


def _generator_lift(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Normalized cocycles in generator coordinates: (L, FL).

    The coordinates u(x, g) are the values a(x, g) for nonidentity x and the
    distinct nonidentity generators g.  The cocycle identity F(x, y, g) = 0
    reads a(x, yg) = a(x, y) + a(xy, g) - a(y, g), so walking a BFS tree of
    the right Cayley graph writes every value as a(x, z) = L[x-1, z-1] @ u;
    a = L u is a cocycle mod q iff (F L) u = 0 mod q, hence
    Z^2(Z/q) = L ker(FL mod q) for every q.  L holds one row per table
    entry, as an (|G|-1, |G|-1, |u|) view.

    FL holds the rows F(g, y, h) for generators g and the edges (y, h) off
    the tree, in that order, and these imply every row.  F vanishes on tree
    edges, so on an edge e off the tree F(x, e) is the sum of F(x, .) around
    the cycle C_e that e closes in the tree.  The differences
    a(x, yh) - a(x, y) cancel around it, which leaves W(xC_e) - W(C_e),
    where W sums a(y, h) over the edges (y, h) of a cycle, with signs.  The
    C_e span the cycle space of the Cayley graph, the relation module of G
    (K. S. Brown, *Cohomology of Groups*, II.5), and x = g_1 ... g_r is a
    positive word, so W(xC) - W(C) is the sum of the W(g_i C') - W(C') over
    the cycles C' = g_(i+1) ... g_r C, each an integer combination of the
    rows F(g_i, e).  So the rows at generators span every row F(x, y, h)
    over Z, and the kernels agree mod every q; a row at a longer word z*h
    is an integer combination of rows F(., ., z) and F(., ., h) in turn.

    Both are int8.  While every entry of L stays within _LIFT_BOUND, the
    three-term steps and the four-term rows of FL cannot leave the int8
    range, so nothing wraps; an entry past the bound raises LiftOverflow.
    """
    n = G.order
    gens = G.gen_set()
    m = n - 1
    xs = np.arange(1, n)
    lift = np.zeros((n, n, len(gens) * m), dtype=np.int8)
    for b, g in enumerate(gens):
        lift[xs, g, b * m + xs - 1] = 1
    # the edges (1, g) hang the generators off the root
    off_tree = np.ones((n, len(gens)), dtype=bool)
    off_tree[0] = False
    for y, b, z in _cayley_tree(G):
        g = gens[b]
        col = lift[:, y] + lift[G.mul[:, y], g] - lift[y, g]
        if np.abs(col).max(initial=0) > _LIFT_BOUND:
            raise LiftOverflow(f"a lift entry of {G.name} exceeds "
                               f"{_LIFT_BOUND} in absolute value")
        lift[:, z] = col
        off_tree[y, b] = False
    y, b = np.nonzero(off_tree)
    gens = np.array(gens, dtype=np.intp)
    g, h = gens[:, None], gens[b]
    FL = lift[g, y] + lift[G.mul[g, y], h] - lift[y, h] - lift[g, G.mul[y, h]]
    return lift[1:, 1:], FL.reshape(gens.size * y.size, lift.shape[2])


def _cocycle_generators(L: np.ndarray, FL: np.ndarray, p: int,
                        k: int) -> np.ndarray:
    """Generators of Z^2(G, Z/p^k) as the rows of an array of flat tables,
    in the narrowest type that holds p^k, from _generator_lift.

    FL is decomposed once; Z^2(Z/p^j) = L ker(FL mod p^j) at every level j,
    and _kernel_from_chain makes the generators canonical, so they do not
    depend on the coordinates the solve used.  Each level of the chain is
    written straight into one narrow (generators x cells) array, a block of
    L at a time.
    """
    m = L.shape[0]
    lifted = []
    for j, u in enumerate(_kernel_chain(FL, p, k), 1):
        Z = np.empty((u.shape[0], m * m), dtype=_int_dtype(p**j - 1))
        for r, B in _matmul_mod_blocks(L, u.T, p**j):
            Z[:, r:r + B.shape[0]] = B.T
        lifted.append(Z)
    return _kernel_from_chain(lifted, p)


class SchurMultiplier:
    """H^2(G, C*) with invariant factors, basis coclasses, and a solver.

    ``invariants`` lists cyclic orders d_1 | d_2 | ...; ``basis[i]`` is a
    representative cocycle of order d_i stored mod |G|.
    """

    def __init__(self, group: FiniteGroup, invariants: list[int],
                 basis: list[Cocycle]):
        self.group = group
        self.invariants = list(invariants)
        self.basis = list(basis)
        self.modulus = max(group.order, 1)
        # the basis in mu_n form on the edges (_edges), one column per
        # slot, for resolve
        self._edge_basis = _edge_forms(group, np.stack(
            [_flat(c.table) for c in basis], axis=1), self.modulus) \
            if basis else None

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        return self.invariants[-1] if self.invariants else 1

    def coclass(self, vector) -> "Coclass":
        vec = tuple(vector)
        if len(vec) != len(self.invariants):
            raise ValueError("exponent vector has wrong length")
        vec = tuple(int(v) % d for v, d in zip(vec, self.invariants))
        n = self.group.order
        acc = np.zeros((n, n), dtype=np.int64)
        for e, c in zip(vec, self.basis):
            acc += e * c.table * (self.modulus // c.modulus)
        rep = Cocycle(self.group, self.modulus, acc % self.modulus, check=False)
        return Coclass(self, vec, rep)

    def trivial_coclass(self) -> "Coclass":
        return self.coclass([0] * len(self.invariants))

    def coclasses(self) -> list["Coclass"]:
        """All coclasses in lexicographic exponent-vector order."""
        out = []
        vec = [0] * len(self.invariants)
        total = self.order
        for k in range(total):
            rem, v = k, []
            for d in reversed(self.invariants):
                v.append(rem % d)
                rem //= d
            out.append(self.coclass(tuple(reversed(v))))
        return out

    def resolve(self, c: Cocycle) -> tuple[int, ...]:
        """Exponent vector of a cocycle of this multiplier's group over the
        basis.

        c and the basis are read in mu_n form on the edges (_edges), and x
        is the answer iff e - sum_i x_i b_i passes the test N_q at every
        prime power q = p^v of |G|.  Wherever p divides an invariant,
        N_q B x = N_q e mod q fixes each x_i mod the p-part of d_i; the
        parts are combined by CRT, and the answer is certified with the
        class test itself.
        """
        G = self.group
        if c.group is not G:
            raise ModulusMismatch("cocycle of a different group")
        e = _edge_form(c)
        crt = [(1, 0)] * len(self.invariants)
        for p, (v, N) in _coboundary_tests(G).items():
            parts = [p ** _valuation(d, p) for d in self.invariants]
            if max(parts, default=1) == 1:
                continue
            q = p**v
            x = solve_mod_prime_power(_matmul_mod(N, self._edge_basis, q),
                                      _matmul_mod(N, e[:, None], q)[:, 0],
                                      p, v)
            if x is None:
                raise CrossCheckMismatch(
                    f"the {G.name} basis does not span a class at {p}")
            crt = [_crt(a, (dp, int(xi) % dp)) if dp > 1 else a
                   for a, dp, xi in zip(crt, parts, x)]
        vec = tuple(r for _, r in crt)
        if self.basis:
            e = e - self._edge_basis @ np.array(vec, dtype=np.int64)
        if not _is_coboundary(G, e):
            raise CrossCheckMismatch(
                f"{G.name} exponents {vec} leave a nontrivial class")
        return vec

    def __repr__(self) -> str:
        return f"SchurMultiplier({self.group.name}, invariants={self.invariants})"


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _crt(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Combine congruences (mod_a, val_a), (mod_b, val_b) with coprime moduli."""
    ma, va = a
    mb, vb = b
    m = ma * mb
    x = va * mb * pow(mb, -1, ma) + vb * ma * pow(ma, -1, mb) if ma > 1 else vb
    return (m, x % m)


def _skips_prime(G: FiniteGroup, p: int) -> bool:
    """True iff a Sylow p-subgroup P < G shows M(G)_p = 1 (module doc).

    Each x in N_G(P) acts on Omega_1(M(P)) = F_p^r, spanned by the (d_i/p)
    b_i, by a matrix A_x read with resolve.  P acts trivially (K. S. Brown,
    *Cohomology of Groups*, III.8), so only the x that enlarge the group
    generated by P and the x before them are read; p is skipped iff the
    stacked A_x - I have no kernel mod p.
    """
    P = sylow_subgroup(G, p)
    if P.order == G.order:
        return False
    H, pos = P.as_group(), P.positions()
    MP = schur_multiplier(H)
    if not MP.invariants:
        return True
    step = np.array([d // p for d in MP.invariants])[:, None]
    omega = [c.power(int(s)) for c, s in zip(MP.basis, step[:, 0])]
    g = np.arange(G.order)[:, None]
    normalizer = P.mask()[G.mul[G.mul[G.inv[g], P.elements], g]].all(axis=1)
    seed, reached, rows = list(P.elements), P.mask(), []
    for x in np.flatnonzero(normalizer):
        if reached[x]:
            continue
        seed.append(x)
        reached = np.isin(g[:, 0], closure(G, seed))
        sigma = pos[G.mul[G.mul[x, P.elements], G.inv[x]]]
        A = np.array([MP.resolve(Cocycle(H, c.modulus, c.table[np.ix_(
            sigma, sigma)], check=False)) for c in omega]).T
        if np.any(A % step):
            raise CrossCheckMismatch(f"{H.name}: a conjugate leaves Omega_1")
        rows.append(A // step - np.eye(len(omega), dtype=np.int64))
    return bool(rows) and not kernel_mod_prime_power(np.vstack(rows), p, 1)


def schur_multiplier(G: FiniteGroup) -> SchurMultiplier:
    """The Schur multiplier of G with solver context.

    Only primes p with p^2 | |G| are solved, and of those only the ones
    _skips_prime leaves; if none is left, no lift is built.
    """
    if "schur" in G._cache:
        return G._cache["schur"]
    n = G.order
    levels = {p: e // 2 for p, e in factorize(n).items()
              if e // 2 and not _skips_prime(G, p)}
    parts: dict[int, list[tuple[int, np.ndarray]]] = {}
    if levels:
        L, FL = _generator_lift(G)
        # the lift is the largest array of the solve: free it before the
        # relation kernels and Smith forms.  Z holds entries below q, in the
        # narrowest type that holds them.
        by_prime = {p: (k, _cocycle_generators(L, FL, p, k).T)
                    for p, k in levels.items()}
        del L, FL
        for p, (k, Z) in by_prime.items():
            if not Z.size:
                continue
            q = p**k
            # x is a relation iff the class of Z x is trivial, iff N E x = 0
            # mod p^v on the mu_n forms E: the tests at the other primes hold
            # since q [Z x] = 0, and for the same reason p^(v-k) divides N E
            v, N = _coboundary_tests(G)[p]
            NE = _matmul_mod(N, _edge_forms(G, Z, q), p**v)
            if np.any(NE % p ** (v - k)):
                raise CrossCheckMismatch(
                    f"a {G.name} cocycle mod {q} has a class of order above {q}")
            rel = kernel_mod_prime_power(NE // p ** (v - k), p, k)
            pres = (np.stack(rel, axis=1) if rel
                    else np.zeros((Z.shape[1], 0), dtype=np.int64))
            diag, uinv = _cokernel(pres, p, k)
            slots = [slot for slot, d in enumerate(diag) if d > 1]
            if slots:  # ascending prime-power orders, as tables mod n
                tabs = _matmul_mod(Z, uinv[:, slots], q) * (n // q)
                parts[p] = [(diag[s], tabs[:, i]) for i, s in enumerate(slots)]
    # merge the p-parts into invariant factors d_1 | d_2 | ...
    width = max((len(v) for v in parts.values()), default=0)
    invariants = []
    basis = []
    m = max(n, 1)
    for slot in range(width):
        d = 1
        acc = np.zeros((n, n), dtype=np.int64)
        for plist in parts.values():
            shifted = slot - (width - len(plist))
            if shifted < 0:
                continue
            dp, tab = plist[shifted]
            d *= dp
            acc += _unflat(tab, n)
        invariants.append(d)
        rep = Cocycle(G, m, acc % m, check=False)
        if not rep.is_cocycle():
            raise CocycleMismatch(f"basis table {slot} of {G.name} is not a cocycle")
        basis.append(rep)
    mult = SchurMultiplier(G, invariants, basis)
    return G._cache.setdefault("schur", mult)


def multiplier_report(G: FiniteGroup) -> dict:
    """Invariants and basis hashes of M(G)."""
    mult = schur_multiplier(G)
    return {
        "group": G.name,
        "invariants": mult.invariants,
        "order": mult.order,
        "exponent": mult.exponent,
        "basis_hashes": [c.hash_hex() for c in mult.basis],
    }


# -- coclasses ---------------------------------------------------------------


class Coclass:
    """An element of the multiplier: exponent vector plus a representative."""

    def __init__(self, multiplier: SchurMultiplier, vector: tuple[int, ...],
                 representative: Cocycle):
        self.multiplier = multiplier
        self.vector = tuple(int(v) for v in vector)
        self.representative = representative

    @property
    def order(self) -> int:
        out = 1
        for e, d in zip(self.vector, self.multiplier.invariants):
            out = _lcm(out, d // gcd(d, e))
        return out

    def is_trivial(self) -> bool:
        return not any(self.vector)

    def power(self, k: int) -> "Coclass":
        return self.multiplier.coclass([k * e for e in self.vector])

    def mul(self, other: "Coclass") -> "Coclass":
        if other.multiplier is not self.multiplier:
            raise ModulusMismatch("coclasses of different multipliers")
        return self.multiplier.coclass(
            [a + b for a, b in zip(self.vector, other.vector)])

    def inverse(self) -> "Coclass":
        return self.multiplier.coclass([-e for e in self.vector])

    def label(self) -> str:
        return "[" + ",".join(str(v) for v in self.vector) + "]"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Coclass)
                and other.multiplier is self.multiplier
                and other.vector == self.vector)

    def __hash__(self) -> int:
        return hash((id(self.multiplier), self.vector))

    def __repr__(self) -> str:
        return f"Coclass({self.multiplier.group.name}, {self.label()})"


def restrict_coclass(c: Coclass, H: Subgroup) -> Coclass:
    """The class of the restricted representative inside H's multiplier.

    Restriction to all of G is the identity, so c itself is returned
    instead of solving H.as_group(), the same table again.
    """
    if H.order == H.parent.order:
        return c
    mult_H = schur_multiplier(H.as_group())
    return mult_H.coclass(mult_H.resolve(c.representative.restrict(H)))


def pi_part(c: Coclass, pi) -> tuple[Coclass, Coclass]:
    """Split c = c_pi * c_pi' with coprime orders (CRT exponents)."""
    o = c.order
    u = pi.part(o)
    v = o // u
    if u == 1:
        return c.multiplier.trivial_coclass(), c
    if v == 1:
        return c, c.multiplier.trivial_coclass()
    e = v * pow(v, -1, u)
    c_pi = c.power(e)
    c_rest = c.mul(c_pi.inverse())
    return c_pi, c_rest


def cocycle_from_extension(E: FiniteGroup,
                           Z: Subgroup) -> tuple[Cocycle, Quotient]:
    """The cocycle of E/Z for a central cyclic Z, over the quotient's section.

    a(x, y) is the discrete log of s(x) s(y) s(xy)^-1 against a fixed
    generator of Z.
    """
    if centralizer_of_set(E, Z.elements).order != E.order:
        raise NotCentral(f"subgroup of order {Z.order} is not central in {E.name}")
    gen = next((int(z) for z in Z.elements if E.order_of(int(z)) == Z.order), None)
    if gen is None:
        raise NotCyclic(f"central subgroup of order {Z.order} is not cyclic")
    quot = quotient_group(E, Z)
    section = quot.section
    dlog = {}
    z = 0
    for j in range(Z.order):
        dlog[z] = j
        z = int(E.mul[z, gen])
    nq = quot.group.order
    tab = np.zeros((nq, nq), dtype=np.int64)
    for i in range(nq):
        si = int(section[i])
        prods = E.mul[si, section]
        for j in range(nq):
            ij = int(quot.group.mul[i, j])
            zval = int(E.mul[int(prods[j]), int(E.inv[section[ij]])])
            tab[i, j] = dlog[zval]
    c = Cocycle(quot.group, Z.order, tab, check=False)
    if not c.is_cocycle():
        raise CocycleMismatch("extension table is not a cocycle")
    return c, quot


# -- exact triviality and order ----------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _edge_forms(G: FiniteGroup, Z: np.ndarray, q: int) -> np.ndarray:
    """The mu_n forms of Z/q cocycles on the edges (_edges).

    Z holds flat tables (as _flat) as columns.  For each, the form of
    Cocycle.from_units, e = (n a + S(xy) - S(x) - S(y)) / q with S the row
    sums, is integer-linear in the lift of a, and reducing a mod q moves it
    by a Z/n coboundary: so a combination of columns has the class of the
    same combination of their forms.  Only S and the edge entries are read.
    """
    n = G.order
    edges = _edges(G)
    T = Z.reshape(n - 1, n - 1, Z.shape[1])
    S = np.zeros((n, Z.shape[1]), dtype=np.int64)
    S[1:] = T.sum(axis=1, dtype=np.int64)
    ys, gs = edges
    num = (n * T[ys - 1, gs - 1].astype(np.int64)
           + S[G.mul[edges]] - S[ys] - S[gs])
    if np.any(num % q):
        raise CocycleMismatch(f"a column is not a cocycle mod {q}")
    return num // q


def _edge_form(c: Cocycle) -> np.ndarray:
    """The mu_n form of c on the edges, reduced mod n."""
    G = c.group
    return _edge_forms(G, _flat(c.table)[:, None], c.modulus)[:, 0] % G.order


def _edges(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The edges (y, g) of the right Cayley graph, y != 1 and g a distinct
    nonidentity generator: edge (y, gens[b]) is coordinate (y - 1) r + b of
    e[edges], r = |gens|."""
    if "edges" not in G._cache:
        gens = np.array(G.gen_set(), dtype=np.int64)
        G._cache["edges"] = (np.repeat(np.arange(1, G.order), gens.size),
                             np.tile(gens, G.order - 1))
    return G._cache["edges"]


def _coboundary_tests(G: FiniteGroup) -> dict:
    """{p: (k, N)}: e in B^2(G, Z/n) iff N e[_edges(G)] = 0 mod p^k for
    every prime power p^k exactly dividing n.

    A normalized l: G -> Z/n with delta(l) = e is fixed by its values on the
    generators: along the Cayley tree, l(yg) = l(y) + l(g) - e(y, g).  Each
    edge (y, g) off the tree then asks l(y) + l(g) - l(yg) = e(y, g), one
    congruence A l = B e[edges] mod n in |gens| unknowns, and agreement on
    every edge (y, g) makes delta(l) = e everywhere.  Per prime power q of n,
    the rows of U scaled by p^(k - v_i) (Smith form U A V = D mod q, v_i = k
    past the rank) span the left annihilator of A, and Z/q is a Frobenius
    ring, so B e lies in the column span iff they kill it: N_q = Ann B.  The
    test at p alone decides whether the p-part of the class is trivial.
    Computed once per group and checked against A.
    """
    if "coboundary_tests" in G._cache:
        return G._cache["coboundary_tests"]
    n = G.order
    gens = G.gen_set()
    r = len(gens)
    edges = _edges(G)
    ys, bs = edges[0], np.tile(np.arange(r), n - 1)
    # l(z) = coef[z] @ l(gens) + const[z] @ e[edges]
    coef = np.zeros((n, r), dtype=np.int64)
    const = np.zeros((n, ys.size), dtype=np.int64)
    coef[gens, np.arange(r)] = 1
    on_tree = np.zeros(ys.size, dtype=bool)
    for y, b, z in _cayley_tree(G):
        coef[z] = coef[y]
        coef[z, b] += 1
        const[z] = const[y]
        const[z, (y - 1) * r + b] -= 1
        on_tree[(y - 1) * r + b] = True
    zs = G.mul[edges]
    A = (coef[ys] - coef[zs] + np.eye(r, dtype=np.int64)[bs])[~on_tree]
    B = (np.eye(ys.size, dtype=np.int64) + const[zs] - const[ys])[~on_tree]
    rows = A.shape[0]
    tests = {}
    for p, k in factorize(n).items():
        q = p**k
        vals, _, U = smith_mod_prime_power(A, p, k,
                                           np.eye(rows, dtype=np.int64))
        v = np.array(vals + [k] * (rows - len(vals)), dtype=np.int64)
        ann = U * p ** (k - v)[:, None] % q
        ann = ann[np.any(ann, axis=1)]
        if np.any(_matmul_mod(ann, A, q)):
            raise CrossCheckMismatch(f"an annihilator row fails w A = 0 mod {q}")
        N = _matmul_mod(ann, B, q)
        tests[p] = (k, N[np.any(N, axis=1)])
    return G._cache.setdefault("coboundary_tests", tests)


def _is_coboundary(G: FiniteGroup, v: np.ndarray) -> bool:
    """True iff the entries v = e[_edges(G)] of a mu_n exponent table e
    are those of delta of a Z/n cochain."""
    return not any(np.any(_matmul_mod(N, v[:, None], p**k))
                   for p, (k, N) in _coboundary_tests(G).items())


def is_trivial_coclass(c: Cocycle) -> bool:
    """True iff c is a coboundary in C*: exact, with no eigen-solve.  A
    cocycle whose mu_n form is zero on the edges is trivial without the
    edge test."""
    e = _edge_form(c)
    return not e.any() or _is_coboundary(c.group, e)


def class_order(c: Cocycle) -> int:
    """Order of the class of c in H^2(G, C*): the least k dividing the
    modulus with c^k trivial, where k e represents c^k."""
    G = c.group
    e = _edge_form(c)
    if not e.any():
        return 1
    return next(k for k in _divisors(c.modulus)
                if _is_coboundary(G, k * e % G.order))
