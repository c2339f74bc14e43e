"""Second cohomology with complex-unit coefficients on small groups.

Cocycles are stored additively: an integer table t with modulus m encodes the
complex cocycle exp(2*pi*i*t/m).

One exact test decides whether a class is trivial.  mu_n_exponents moves a
table, complex or exponents, to a cohomologous mu_n-valued one (n = |G|)
whose rows sum to zero, and that is trivial in H^2(G, C*) iff it is the
coboundary of a Z/n-valued cochain: one congruence per Cayley-graph edge off
a BFS tree, tested against a left annihilator computed once per group
(_coboundary_tests).  The test at p decides the p-part of the class alone.
is_trivial_coclass and class_order ask it, and so do the multiplier's
relations and resolve.

The multiplier of G is assembled prime by prime: for each p with p^2 | |G|,
q = p^floor(v_p(|G|)/2) bounds the exponent of the p-part, whose classes
are those of Z^2(Z/q); a combination of cocycle generators is a relation iff
the annihilator at p kills its mu_n form on the edges.  resolve solves the
same congruences for the exponents over the basis and certifies the answer
with the test itself.

Z^2(Z/q) is solved in generator coordinates.  A normalized cocycle is fixed
by its values a(x, g) on the generators g, since the cocycle identity reads
a(x, yg) = a(x, y) + a(xy, g) - a(y, g) along a BFS tree of the Cayley graph.
That lift L turns the identity into a matrix FL on |gens|*(|G|-1) unknowns
instead of (|G|-1)^2, and Z^2(Z/p^j) = L ker(FL mod p^j).  Every kernel,
solution and cokernel is read off one Smith decomposition over Z/p^k per
solve, so FL is decomposed once per prime.  _kernel_from_chain makes kernel
generators canonical, so basis cocycles do not depend on how the solve went.
All of it is exact integer arithmetic, checked against the matrices solved.
Everything here is immutable after construction; the solver context is
read-only and safe to share.
"""

from __future__ import annotations

import hashlib
from math import gcd

import numpy as np

from .errors import (
    CocycleMismatch,
    CrossCheckMismatch,
    GroupTooLargeForH2,
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
    factorize,
    quotient_group,
)
from .tolerances import DEFAULT_H2_CAP, TOL_UNIT


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# -- linear algebra mod prime powers ---------------------------------------


def _rref_mod_p(M: np.ndarray, p: int):
    """Reduced row echelon form over GF(p).  Returns (R, pivots).

    Forward elimination keeps rows below unreduced (entries stay well inside
    int64 since every update adds less than p^2); reductions happen only on
    pivot rows and on the columns being inspected.
    """
    M = np.array(M, dtype=np.int64) % p
    rows, cols = M.shape
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        colv = M[r:, c] % p
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] %= p
        piv = int(M[r, c])
        if piv != 1:
            M[r] = (M[r] * pow(piv, p - 2, p)) % p
        f = M[r + 1:, c] % p
        touch = np.nonzero(f)[0]
        if touch.size:
            M[r + 1 + touch] -= np.outer(f[touch], M[r])
        pivots.append((r, c))
        r += 1
    for i in range(len(pivots) - 1, 0, -1):
        ri, ci = pivots[i]
        M[ri] %= p
        f = M[:ri, ci] % p
        touch = np.nonzero(f)[0]
        if touch.size:
            M[touch] -= np.outer(f[touch], M[ri])
    if pivots:
        M[:len(pivots)] %= p
    return M, pivots


def _kernel_from_chain(chain: list[np.ndarray], p: int) -> list[np.ndarray]:
    """Canonical generators of ker(M mod p^k), from the kernels of M alone.

    chain[j-1] holds generators (as rows) of ker(M mod p^j) for j = 1..k;
    the result depends only on those kernels.  Level 1 is the basis K of
    ker(M mod p) reduced on each vector's last nonzero entry (its lead),
    leads ascending.  Above it, v = Kx + py with (x, y) in the kernel of
    [MK/p | M] mod p^(k-1), whose kernel mod p^j is {(x, y) : Kx + py in
    ker(M mod p^(j+1))}, generated by (a[lead], (a - K a[lead])/p) over the
    generators a of ker(M mod p^(j+1)) together with (-p e_i, K e_i), the
    integer kernel of (x, y) -> Kx + py; that chain is canonicalized in turn.
    """
    k = len(chain)
    R, pivots = _rref_mod_p(chain[0][:, ::-1], p)
    basis = [np.ascontiguousarray(R[r, ::-1]) for r, _ in reversed(pivots)]
    lead = [chain[0].shape[1] - 1 - c for _, c in reversed(pivots)]
    if k == 1 or not basis:
        return basis
    K = np.stack(basis, axis=1)
    kappa = K.shape[1]
    shifts = np.concatenate([-p * np.eye(kappa, dtype=np.int64), K]).T
    sub = []
    for j in range(1, k):
        A = chain[j]
        X = A[:, lead]
        lifted = np.concatenate([X, (A - X @ K.T) // p], axis=1)
        sub.append(np.concatenate([lifted, shifts]) % p**j)
    q = p**k
    return [(K @ w[:kappa] + p * w[kappa:]) % q
            for w in _kernel_from_chain(sub, p)]


def smith_mod_prime_power(A: np.ndarray, p: int, k: int, extra=None):
    """Smith decomposition U A V = D of A over Z/p^k, with q = p^k.

    Each step pivots on the first entry of minimal p-valuation, in row-major
    order, of the trailing block, scales its row to p^v and clears the column
    below it.  Returns (vals, V, X), all mod q: D_ii = p^vals[i] (ascending)
    for i < len(vals), and D is zero elsewhere; V is the column transform; X
    is U extra, the row operations applied to a block of extra columns.  U
    itself, rows x rows, is never formed.
    """
    q = p**k
    A = np.asarray(A)
    if A.ndim != 2:
        raise ModulusMismatch(f"matrix of shape {A.shape}")
    rows, cols = A.shape
    X = np.zeros((rows, 0), dtype=np.int8) if extra is None else np.asarray(extra)
    # entries are reduced only where read and move by less than q^2 a step,
    # so any integer type that holds q + rank * q^2 is exact; narrow is fast,
    # and A and extra are reduced straight into it
    bound = q + min(rows, cols) * q * q
    W = np.empty((rows, cols + X.shape[1]), dtype=np.int16 if bound < 2**15
                 else np.int32 if bound < 2**31 else np.int64)
    np.remainder(A, W.dtype.type(q), out=W[:, :cols])
    np.remainder(X, W.dtype.type(q), out=W[:, cols:])
    V = np.eye(cols, dtype=np.int64)
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
        row = W[s, s:] % q
        W[s, s:] = row * pow(int(row[0]) // pv, -1, q) % q
        col = W[s + 1:, s] % q
        below = np.flatnonzero(col)
        W[below + s + 1, s:] -= np.outer(col[below] // pv, W[s, s:])
        V[:, s + 1:] = (V[:, s + 1:]
                        - np.outer(V[:, s], W[s, s + 1:cols] // pv)) % q
        vals.append(v)
        s, lo = s + 1, bi + 1
    return vals, V, (W[:, cols:] % q).astype(np.int64)


# float64 entries per row block of _matmul_mod's left factor
_MATMUL_BLOCK = 1 << 18


def _matmul_mod(X: np.ndarray, Y: np.ndarray, q: int) -> np.ndarray:
    """X @ Y mod q, in float64 on entries reduced mod q: exact while
    X.shape[1] * q^2 < 2^53, far above the sizes and moduli used here.
    X is taken in row blocks, so its float copy stays bounded."""
    rows, inner = X.shape
    # reduce in X's own integer type where q fits it: narrow is fast
    wide = np.int64 if q > np.iinfo(X.dtype).max else X.dtype
    Yf = (np.asarray(Y, dtype=np.int64) % q).astype(np.float64)
    out = np.empty((rows, Y.shape[1]), dtype=np.int64)
    step = max(1, _MATMUL_BLOCK // max(inner, 1))
    for i in range(0, rows, step):
        block = out[i:i + step]
        block[...] = np.remainder(X[i:i + step], q, dtype=wide).astype(
            np.float64) @ Yf
        block %= q
    return out


def _kernel_chain(M: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Generators, as rows, of ker(M mod p^j) for j = 1..k, from one Smith form.

    With U M V = D, ker(M mod p^j) is generated by the V_i p^max(0, j - v_i),
    v_i the valuation of D_ii (k past the rank); those with v_i = 0 vanish.
    Every level needs M V_i = 0 mod p^v_i, so checking level k checks all.
    """
    q = p**k
    vals, V, _ = smith_mod_prime_power(M, p, k)
    v = np.array(vals + [k] * (V.shape[1] - len(vals)), dtype=np.int64)
    K, v = V[:, v > 0], v[v > 0]
    if np.any(_matmul_mod(M, K * p ** (k - v), q)):
        raise CrossCheckMismatch(f"a kernel generator fails M w = 0 mod {q}")
    return [np.ascontiguousarray((K * p ** np.maximum(0, j - v)).T % p**j)
            for j in range(1, k + 1)]


def kernel_mod_prime_power(M: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Canonical generators of {v : M v = 0 mod p^k} in (Z/p^k)^cols."""
    return _kernel_from_chain(_kernel_chain(M, p, k), p)


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
    rank), and the generator of the i-th factor is column i of uinv = U^-1.
    """
    rows = P.shape[0]
    eye = np.eye(rows, dtype=np.int64)
    vals, _, U = smith_mod_prime_power(P, p, k, eye)
    return ([p**v for v in vals] + [p**k] * (rows - len(vals)),
            solve_mod_prime_power(U, eye, p, k))


# -- cochains and cocycles --------------------------------------------------


class Cocycle:
    """A normalized 2-cocycle with values in the m-th roots of unity.

    The table holds exponents: the complex value at (x, y) is
    exp(2*pi*i*table[x, y]/modulus).
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
                raise ModulusMismatch("cocycle is not normalized")
            if not self.is_cocycle():
                raise ModulusMismatch("table violates the cocycle identity")

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
        h = hashlib.sha256()
        h.update(str(self.modulus).encode())
        h.update(self.table.tobytes())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Cocycle({self.group.name}, mod {self.modulus})"


def trivial_cocycle(G: FiniteGroup, modulus: int | None = None) -> Cocycle:
    m = modulus if modulus is not None else max(G.order, 1)
    return Cocycle(G, m, np.zeros((G.order, G.order), dtype=np.int64), check=False)


class Cochain1:
    """A normalized 1-cochain (value 0 at the identity)."""

    def __init__(self, group: FiniteGroup, modulus: int, values):
        self.group = group
        self.modulus = int(modulus)
        vals = np.asarray(values, dtype=np.int64) % self.modulus
        if vals.shape != (group.order,) or vals[0] != 0:
            raise ModulusMismatch("bad 1-cochain")
        self.values = vals

    def coboundary(self) -> Cocycle:
        """delta z (x, y) = z(x) + z(y) - z(xy)."""
        v, mul, m = self.values, self.group.mul, self.modulus
        tab = (v[:, None] + v[None, :] - v[mul]) % m
        return Cocycle(self.group, m, tab, check=False)


# -- the multiplier ----------------------------------------------------------


def _flat(table: np.ndarray) -> np.ndarray:
    """Nonidentity block of a table, flattened."""
    return np.ascontiguousarray(table[1:, 1:]).reshape(-1)


def _unflat(v: np.ndarray, n: int) -> np.ndarray:
    tab = np.zeros((n, n), dtype=np.int64)
    tab[1:, 1:] = v.reshape(n - 1, n - 1)
    return tab


def _generators(G: FiniteGroup) -> list[int]:
    """The distinct nonidentity elements of G.gen_set()."""
    return [g for g in dict.fromkeys(G.gen_set()) if g]


def _satisfies_cocycle_identity(G: FiniteGroup, t: np.ndarray, m: int) -> bool:
    """The cocycle identity mod m on the triples (x, y, g), g a generator.
    Its defect F(x,y,z) = t(x,y) + t(xy,z) - t(y,z) - t(x,yz) has
    F(x,y,zg) = F(x,y,z) + F(x,yz,g) - F(xy,z,g) + F(y,z,g), and every
    element is a nonempty word in the generators, so they imply the rest."""
    gens = _generators(G)
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
    gens = _generators(G)
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
    the right Cayley graph writes every value as a(x, z) = L[(x, z)] @ u;
    a = L u is a cocycle mod q iff (F L) u = 0 mod q, hence
    Z^2(Z/q) = L ker(FL mod q) for every q.  L has one row per flattened
    table entry; FL has the rows F(x, y, g) for all nonidentity x, y and
    generators g, which suffice (F of a longer word z*g is an integer
    combination of F(., ., z) and F(., ., g) rows).  FL is built by
    indexing rows of L, so F itself is never formed.

    Both are int8.  While every entry of L stays within _LIFT_BOUND, the
    three-term steps and the four-term rows of FL cannot leave the int8
    range, so nothing wraps; an entry past the bound raises LiftOverflow.
    """
    n = G.order
    gens = _generators(G)
    m = n - 1
    xs = np.arange(1, n)
    lift = np.zeros((n, n, len(gens) * m), dtype=np.int8)
    for b, g in enumerate(gens):
        lift[xs, g, b * m + xs - 1] = 1
    for y, b, z in _cayley_tree(G):
        g = gens[b]
        col = lift[:, y] + lift[G.mul[:, y], g] - lift[y, g]
        if np.abs(col).max(initial=0) > _LIFT_BOUND:
            raise LiftOverflow(f"a lift entry of {G.name} exceeds "
                               f"{_LIFT_BOUND} in absolute value")
        lift[:, z] = col
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    xf, yf = X.reshape(-1), Y.reshape(-1)
    xy = G.mul[xf, yf]
    FL = np.concatenate([lift[xf, yf] + lift[xy, g] - lift[yf, g]
                         - lift[xf, G.mul[yf, g]] for g in gens])
    return lift[xf, yf], FL


def _distinct_nonzero_rows(M: np.ndarray) -> np.ndarray:
    """The first copy of each distinct nonzero row of M, in order.

    Each row is viewed as one opaque np.void key, so np.unique compares
    whole rows at once and returns the first index of each (asked for
    indices, it also skips its numpy.ma import).
    """
    M = np.ascontiguousarray(M[np.any(M, axis=1)])
    keys = M.view(np.dtype((np.void, M.itemsize * M.shape[1])))[:, 0]
    first = np.unique(keys, return_index=True)[1]
    return M[np.sort(first)]


def _cocycle_generators(L: np.ndarray, FL: np.ndarray, p: int,
                        k: int) -> list[np.ndarray]:
    """Generators of Z^2(G, Z/p^k) as flat tables, from _generator_lift.

    FL is decomposed once; Z^2(Z/p^j) = L ker(FL mod p^j) at every level j,
    and _kernel_from_chain makes the generators canonical, so they do not
    depend on the coordinates the solve used.  Zero and repeated rows of FL
    are dropped first: the row space, hence every kernel, stays the same.
    """
    chain = _kernel_chain(_distinct_nonzero_rows(FL), p, k)
    return _kernel_from_chain([np.ascontiguousarray(_matmul_mod(L, u.T, p**j).T)
                               for j, u in enumerate(chain, 1)], p)


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
        # the basis in mu_n form on the edges of _coboundary_tests, one
        # column per slot, for resolve
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

    def resolve(self, table: np.ndarray, modulus: int) -> tuple[int, ...]:
        """Exponent vector of a valid cocycle table over the basis.

        The table and the basis are read in mu_n form on the edges of
        _coboundary_tests, and x is the answer iff e - sum_i x_i b_i passes
        the test N_q at every prime power q = p^v of |G|.  Wherever p divides
        an invariant, N_q B x = N_q e mod q fixes each x_i mod the p-part of
        d_i; the parts are combined by CRT, and the answer is certified with
        the class test itself.
        """
        G = self.group
        edges, tests = _coboundary_tests(G)
        e = mu_n_exponents(G, table, modulus)[0][edges]
        crt = [(1, 0)] * len(self.invariants)
        for p, (v, N) in tests.items():
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
            crt = [_crt(c, (dp, int(xi) % dp)) if dp > 1 else c
                   for c, dp, xi in zip(crt, parts, x)]
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


def schur_multiplier(G: FiniteGroup, cap: int = DEFAULT_H2_CAP) -> SchurMultiplier:
    """The Schur multiplier of G with solver context, for |G| <= cap."""
    if G.order > cap:
        raise GroupTooLargeForH2(f"|{G.name}| = {G.order} exceeds cap {cap}")
    if "schur" in G._cache:
        return G._cache["schur"]
    n = G.order
    parts: dict[int, list[tuple[int, np.ndarray]]] = {}
    if n > 1:
        L, FL = _generator_lift(G)
        # the lift is the largest array of the solve: free it before the
        # relation kernels and Smith forms.  Z holds entries below q, kept
        # as int8 wherever q allows.
        by_prime = {}
        for p, e in factorize(n).items():
            if e // 2:
                Z = np.array(_cocycle_generators(L, FL, p, e // 2), ndmin=2,
                             dtype=np.int8 if p ** (e // 2) <= 2**7 else np.int64)
                by_prime[p] = (e // 2, Z.T)
        del L, FL
        for p, (k, Z) in by_prime.items():
            if not Z.size:
                continue
            q = p**k
            # x is a relation iff the class of Z x is trivial, iff N E x = 0
            # mod p^v on the mu_n forms E: the tests at the other primes hold
            # since q [Z x] = 0, and for the same reason p^(v-k) divides N E
            v, N = _coboundary_tests(G)[1][p]
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


def multiplier_report(G: FiniteGroup, h2_cap: int = DEFAULT_H2_CAP) -> dict:
    mult = schur_multiplier(G, cap=h2_cap)
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


def restrict_coclass(c: Coclass, H: Subgroup, cap: int = DEFAULT_H2_CAP) -> Coclass:
    """The class of the restricted representative inside H's multiplier.

    Restriction to all of G is the identity, so it is resolved in c's own
    multiplier instead of solving H.as_group(), the same table again.
    """
    rc = c.representative.restrict(H)
    if H.order == H.parent.order:
        mult_H = c.multiplier
    else:
        mult_H = schur_multiplier(H.as_group(), cap)
    vec = mult_H.resolve(rc.table, rc.modulus)
    return mult_H.coclass(vec)


def inflate_coclass(b: Coclass, quot: Quotient, mult_G: SchurMultiplier) -> Coclass:
    """Pull a coclass of G/N back to G through the projection."""
    cocycle_G = inflate_cocycle(b.representative, quot, mult_G.group)
    vec = mult_G.resolve(cocycle_G.table, cocycle_G.modulus)
    return mult_G.coclass(vec)


def inflate_cocycle(c: Cocycle, quot: Quotient, G: FiniteGroup) -> Cocycle:
    """Table pullback a(x, y) = a(Nx, Ny); exact inflation form."""
    if quot.group is not c.group:
        raise ModulusMismatch("cocycle does not live on the quotient")
    proj = quot.projection
    tab = c.table[np.ix_(proj, proj)]
    return Cocycle(G, c.modulus, tab, check=False)


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


def mu_n_exponents(G: FiniteGroup, table: np.ndarray,
                   modulus: int | None = None) -> tuple[np.ndarray, float]:
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


def _edge_forms(G: FiniteGroup, Z: np.ndarray, q: int) -> np.ndarray:
    """The mu_n forms of Z/q cocycles on the edges of _coboundary_tests.

    Z holds flat tables (as _flat) as columns.  For each, the form of
    mu_n_exponents, e = (n a + S(xy) - S(x) - S(y)) / q with S the row sums,
    is integer-linear in the lift of a, and reducing a mod q moves it by a
    Z/n coboundary: so a combination of columns has the class of the same
    combination of their forms.  Only S and the edge entries are read.
    """
    n = G.order
    edges, _ = _coboundary_tests(G)
    T = Z.reshape(n - 1, n - 1, Z.shape[1])
    S = np.zeros((n, Z.shape[1]), dtype=np.int64)
    S[1:] = T.sum(axis=1, dtype=np.int64)
    ys, gs = edges
    num = (n * T[ys - 1, gs - 1].astype(np.int64)
           + S[G.mul[edges]] - S[ys] - S[gs])
    if np.any(num % q):
        raise CocycleMismatch(f"a column is not a cocycle mod {q}")
    return num // q


def _coboundary_tests(G: FiniteGroup) -> tuple[tuple, dict]:
    """(edges, {p: (k, N)}): e in B^2(G, Z/n) iff N e[edges] = 0 mod p^k for
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
    gens = _generators(G)
    r = len(gens)
    # edge (y, gens[b]), y != 1, is coordinate (y - 1) r + b of e[edges]
    ys, bs = np.repeat(np.arange(1, n), r), np.tile(np.arange(r), n - 1)
    edges = (ys, np.array(gens, dtype=np.int64)[bs])
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
    out = (edges, tests)
    return G._cache.setdefault("coboundary_tests", out)


def _is_coboundary(G: FiniteGroup, v: np.ndarray) -> bool:
    """True iff the entries v = e[edges] of a mu_n exponent table e, as
    _coboundary_tests names them, are those of delta of a Z/n cochain."""
    return not any(np.any(_matmul_mod(N, v[:, None], p**k))
                   for p, (k, N) in _coboundary_tests(G)[1].items())


def is_trivial_coclass(G: FiniteGroup, table: np.ndarray,
                       modulus: int | None = None) -> bool:
    """True iff the cocycle table (complex units, or exponents mod
    ``modulus``) is a coboundary in C*: exact, with no eigen-solve."""
    e = mu_n_exponents(G, table, modulus)[0]
    return _is_coboundary(G, e[_coboundary_tests(G)[0]])


def class_order(c: Cocycle) -> int:
    """Order of the class of c in H^2(G, C*): the least k dividing the
    modulus with c^k trivial, where k e represents c^k."""
    G = c.group
    e = mu_n_exponents(G, c.table, c.modulus)[0][_coboundary_tests(G)[0]]
    return next(k for k in _divisors(c.modulus)
                if _is_coboundary(G, k * e % G.order))
