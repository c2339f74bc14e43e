"""Second cohomology with complex-unit coefficients on small groups.

Cocycles are stored additively: an integer table t with modulus m encodes the
complex cocycle exp(2*pi*i*t/m).  The multiplier of G is assembled prime by
prime: for each p with p^2 | |G| the classes of exponent p^j are computed as

    Z^2(Z/q) / (coboundaries mod q + character carries)

with q = p^floor(v_p(|G|)/2), which bounds the exponent of the p-part.  The
carry tables account for coboundaries of complex cochains whose values are
not q-th roots of unity; without them the quotient Z^2(mu_q)/B^2(mu_q)
overcounts (already for C2).

Z^2(Z/q) is solved in generator coordinates.  A normalized cocycle is fixed
by its values a(x, g) on the generators g, since the cocycle identity reads
a(x, yg) = a(x, y) + a(xy, g) - a(y, g) along a BFS tree of the Cayley graph.
That lift L turns the identity into a matrix FL on |gens|*(|G|-1) unknowns
instead of (|G|-1)^2, and Z^2(Z/p^j) = L ker(FL mod p^j).  The generators
handed on are rebuilt from that chain of kernels exactly as
kernel_mod_prime_power would return them for the full identity matrix, so
basis cocycles do not depend on the coordinates the solve used.  All of it
is exact integer arithmetic.  Everything here is immutable after
construction; the solver context is read-only and safe to share.
"""

from __future__ import annotations

import hashlib
from math import gcd

import numpy as np

from .errors import (
    CocycleMismatch,
    CrossCheckMismatch,
    GroupTooLargeForH2,
    ModulusMismatch,
    NotCentral,
    NotCyclic,
)
from .groups import (
    FiniteGroup,
    Quotient,
    Subgroup,
    centralizer_of_set,
    commutator_subgroup,
    factorize,
    quotient_group,
)

DEFAULT_H2_CAP = 60


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


def kernel_mod_prime_power(M: np.ndarray, p: int, k: int) -> list[np.ndarray]:
    """Generators of {v : M v = 0 mod p^k} as a subgroup of (Z/p^k)^cols.

    Recursion on k: v = K x + p y with (x, y) in the kernel of [MK/p | M]
    mod p^(k-1), where K spans the kernel mod p.
    """
    q = p**k
    M = np.asarray(M, dtype=np.int64) % q
    R, pivots = _rref_mod_p(M, p)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(M.shape[1]) if c not in pivot_cols]
    basis = []
    for f in free:
        v = np.zeros(M.shape[1], dtype=np.int64)
        v[f] = 1
        for r, c in pivots:
            v[c] = (-int(R[r, f])) % p
        basis.append(v)
    if k == 1 or not basis:
        return basis
    K = np.stack(basis, axis=1)
    MK = M @ K
    if np.any(MK % p):
        raise CrossCheckMismatch("kernel basis mod p is not in the kernel")
    Mrec = np.concatenate([MK // p, M], axis=1) % (p ** (k - 1))
    kappa = K.shape[1]
    out = []
    for w in kernel_mod_prime_power(Mrec, p, k - 1):
        out.append((K @ w[:kappa] + p * w[kappa:]) % q)
    return out


def solve_mod_prime_power(M: np.ndarray, t: np.ndarray, p: int, k: int):
    """One solution of M u = t mod p^k, or None if inconsistent.

    Read off the kernel of [M | -t]: (u, 1) lies in it exactly when u is a
    solution, so some kernel generator w has a unit last entry iff one
    exists, and then u = w[:-1] / w[-1].
    """
    q = p**k
    aug = np.concatenate([np.asarray(M, dtype=np.int64),
                          -np.asarray(t, dtype=np.int64)[:, None]], axis=1)
    for w in kernel_mod_prime_power(aug, p, k):
        if w[-1] % p:
            return (w[:-1] * pow(int(w[-1]), -1, q)) % q
    return None


def smith_mod_prime_power(P: np.ndarray, p: int, k: int, rows: int):
    """Smith form of a Z/p^k module presentation (columns are relations).

    coker = (Z/q)^rows / colspan(P).  Pivoting on minimal p-valuation keeps
    every entry reduced mod q, so there is no coefficient growth.  Returns
    (invariants, uinv) with one invariant per row coordinate, ascending, and
    uinv's column i the generator of the i-th cyclic factor in the original
    coordinates (mod q).
    """
    q = p**k
    A = np.asarray(P, dtype=np.int64) % q
    if A.ndim != 2 or A.shape[0] != rows:
        raise ModulusMismatch(f"presentation of shape {A.shape} for {rows} rows")
    cols = A.shape[1]
    uinv = np.eye(rows, dtype=np.int64)
    if A.size == 0:
        return [q] * rows, uinv
    s = 0
    vals: list[int] = []
    while s < min(rows, cols):
        # minimal-valuation entry of the trailing block
        block = A[s:, s:]
        piv = None
        for v in range(k):
            nz = np.nonzero(block % (p ** (v + 1)))
            if nz[0].size:
                piv = (v, s + int(nz[0][0]), s + int(nz[1][0]))
                break
        if piv is None:
            break
        v, bi, bj = piv
        if bi != s:
            A[[s, bi]] = A[[bi, s]]
            uinv[:, [s, bi]] = uinv[:, [bi, s]]
        if bj != s:
            A[:, [s, bj]] = A[:, [bj, s]]
        unit = int(A[s, s]) // p**v
        uinv_unit = pow(unit, -1, q)
        A[s] = (A[s] * uinv_unit) % q
        uinv[:, s] = (uinv[:, s] * unit) % q  # U^-1 picks up the inverse op
        pv = p**v
        for i in range(rows):
            if i == s or A[i, s] == 0:
                continue
            f = int(A[i, s]) // pv
            A[i] = (A[i] - f * A[s]) % q
            uinv[:, s] = (uinv[:, s] + f * uinv[:, i]) % q
        for j in range(s + 1, cols):
            if A[s, j]:
                A[:, j] = (A[:, j] - (int(A[s, j]) // pv) * A[:, s]) % q
        vals.append(v)
        s += 1
    invariants = [p**v for v in vals] + [q] * (rows - s)
    return invariants, uinv


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
        """Exact check of a(x,y)+a(xy,z) = a(y,z)+a(x,yz) mod m on all triples."""
        t, mul, m = self.table, self.group.mul, self.modulus
        lhs = t[:, :, None] + t[mul, :]
        rhs = t[None, :, :] + t[:, mul]
        return bool(np.all((lhs - rhs) % m == 0))

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

    def is_identity_table(self) -> bool:
        return not np.any(self.table)

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


def is_cocycle(a: Cocycle) -> bool:
    return a.is_cocycle()


# -- the multiplier ----------------------------------------------------------


def _flat(table: np.ndarray) -> np.ndarray:
    """Nonidentity block of a table, flattened."""
    return np.ascontiguousarray(table[1:, 1:]).reshape(-1)


def _unflat(v: np.ndarray, n: int) -> np.ndarray:
    tab = np.zeros((n, n), dtype=np.int64)
    tab[1:, 1:] = v.reshape(n - 1, n - 1)
    return tab


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
    """
    n = G.order
    gens = [g for g in dict.fromkeys(G.gen_set()) if g]
    m = n - 1
    xs = np.arange(1, n)
    lift = np.zeros((n, n, len(gens) * m), dtype=np.int64)
    for b, g in enumerate(gens):
        lift[xs, g, b * m + xs - 1] = 1
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    seen[gens] = True
    frontier = gens
    while frontier:
        nxt = []
        for y in frontier:
            for g in gens:
                z = int(G.mul[y, g])
                if seen[z]:
                    continue
                seen[z] = True
                lift[:, z] = lift[:, y] + lift[G.mul[:, y], g] - lift[y, g]
                nxt.append(z)
        frontier = nxt
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    xf, yf = X.reshape(-1), Y.reshape(-1)
    xy = G.mul[xf, yf]
    FL = np.concatenate([lift[xf, yf] + lift[xy, g] - lift[yf, g]
                         - lift[xf, G.mul[yf, g]] for g in gens])
    return lift[xf, yf], FL


def _kernel_from_chain(chain: list[np.ndarray], p: int) -> list[np.ndarray]:
    """kernel_mod_prime_power(M, p, k) rebuilt from the kernels of M alone.

    chain[j-1] holds generators (as rows) of ker(M mod p^j) for j = 1..k.
    Level 1 of kernel_mod_prime_power is a basis K of ker(M mod p) that
    depends only on that kernel (below).  Its recursion on [MK/p | M] has
    kernel mod p^j {(x, y) : Kx + py in ker(M mod p^(j+1))}, generated by
    (a[lead], (a - K a[lead])/p) over the generators a of ker(M mod p^(j+1))
    together with (-p e_i, K e_i), the integer kernel of (x, y) -> Kx + py.
    """
    k = len(chain)
    # K: the basis of ker(M mod p) reduced on each vector's last nonzero entry
    # (its lead), leads ascending.  It depends only on the kernel, and its
    # leads are the free columns kernel_mod_prime_power reads off its pivots.
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


def _distinct_nonzero_rows(M: np.ndarray) -> np.ndarray:
    """The first copy of each distinct nonzero row of M, in order.

    A function of its own so that the row-bytes keys, as large as M, are
    freed before the solves that follow.
    """
    M = M[np.any(M, axis=1)]
    first: dict[bytes, int] = {}
    for i, row in enumerate(M):
        first.setdefault(row.tobytes(), i)
    return M[list(first.values())]


def _cocycle_generators(L: np.ndarray, FL: np.ndarray, p: int,
                        k: int) -> list[np.ndarray]:
    """Generators of Z^2(G, Z/p^k) as flat tables, from _generator_lift.

    Equal, element for element, to kernel_mod_prime_power of the full
    cocycle-identity matrix; each ker(FL mod p^j) is solved once.  Zero and
    repeated rows of FL are dropped first: the row space, hence every
    kernel, stays the same.
    """
    FL = _distinct_nonzero_rows(FL)
    chain = []
    for j in range(1, k + 1):
        u = kernel_mod_prime_power(FL, p, j)
        chain.append((np.stack(u) @ L.T) % p**j if u
                     else np.zeros((0, L.shape[0]), dtype=np.int64))
    return _kernel_from_chain(chain, p)


def _coboundary_columns(G: FiniteGroup) -> np.ndarray:
    """delta of the unit 1-cochains, one flattened column per nonidentity g."""
    if "delta_cols" in G._cache:
        return G._cache["delta_cols"]
    n = G.order
    if n == 1:
        return np.zeros((0, 0), dtype=np.int64)
    cols = []
    for g in range(1, n):
        tab = np.zeros((n, n), dtype=np.int64)
        tab[g, :] += 1
        tab[:, g] += 1
        tab[G.mul == g] -= 1
        cols.append(_flat(tab))
    out = np.stack(cols, axis=1)
    out.setflags(write=False)
    G._cache["delta_cols"] = out
    return out


def _character_carries(G: FiniteGroup) -> list[tuple[int, np.ndarray]]:
    """Carry tables of a primary generating set of Hom(G, Q/Z).

    For a character with values r_g / q the q-th root cochain has coboundary
    exp(2*pi*i*carry/q') for any modulus q'; the integer carry table
    (r_x + r_y - r_xy)/q takes values in {0, 1}.
    """
    if "carries" in G._cache:
        return G._cache["carries"]
    out: list[tuple[int, np.ndarray]] = []
    der = commutator_subgroup(G)
    if der.order < G.order:
        quot = quotient_group(G, der)
        A, proj = quot.group, quot.projection
        na = A.order
        exp_a = A.exponent()
        pairs_x, pairs_y = np.meshgrid(np.arange(1, na), np.arange(1, na),
                                       indexing="ij")
        px, py = pairs_x.reshape(-1), pairs_y.reshape(-1)
        pxy = A.mul[px, py]
        rows = px.size
        for ell, j in factorize(exp_a).items():
            q = ell**j
            M = np.zeros((rows, na - 1), dtype=np.int64)
            r = np.arange(rows)
            np.add.at(M, (r, px - 1), 1)
            np.add.at(M, (r, py - 1), 1)
            ok = pxy != 0
            np.add.at(M, (r[ok], pxy[ok] - 1), -1)
            for gen in kernel_mod_prime_power(M, ell, j):
                if not np.any(gen):
                    continue
                values = np.concatenate([[0], gen])
                vg = values[proj]
                carry = (vg[:, None] + vg[None, :] - values[proj[G.mul]]) // q
                out.append((ell, _flat(carry)))
    G._cache["carries"] = out
    return out


class SchurMultiplier:
    """H^2(G, C*) with invariant factors, basis coclasses, and a solver.

    ``invariants`` lists cyclic orders d_1 | d_2 | ...; ``basis[i]`` is a
    representative cocycle of order d_i stored mod |G|.
    """

    def __init__(self, group: FiniteGroup, invariants: list[int],
                 basis: list[Cocycle],
                 prime_tables: dict[int, tuple[int, list]]):
        self.group = group
        self.invariants = list(invariants)
        self.basis = list(basis)
        self.modulus = max(group.order, 1)
        # per prime p: (q_p, list over basis slots of flat tables mod q_p or None)
        self._prime_tables = prime_tables

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
        vec = tuple(int(v) % d for v, d in zip(vector, self.invariants))
        if len(vec) != len(self.invariants):
            raise ValueError("exponent vector has wrong length")
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

        Solves  table = sum_i e_i basis_i + coboundary + carries  one prime
        at a time and combines the exponents by CRT.  With M = q r, q the
        p-part of the common modulus, the p-component of exp(2 pi i t / M)
        is exp(2 pi i t r^-1 / q), so the target is t r^-1 mod q.
        """
        G = self.group
        n = G.order
        if table.shape != (n, n):
            raise ModulusMismatch("table shape mismatch")
        M_all = _lcm(modulus, self.modulus)
        t_flat = _flat(np.asarray(table, dtype=np.int64)) * (M_all // modulus)
        delta = _coboundary_columns(G)
        carries = _character_carries(G)
        k_basis = len(self.invariants)
        crt: list[tuple[int, int]] = [(1, 0)] * k_basis
        for p, e in factorize(M_all).items():
            q = p**e
            cols = []
            for i in range(k_basis):
                qp, tabs = self._prime_tables.get(p, (1, [None] * k_basis))
                tab = tabs[i] if tabs else None
                if tab is None:
                    cols.append(np.zeros(t_flat.size, dtype=np.int64))
                else:
                    cols.append(tab * (q // qp))
            cols.append(delta)
            for ell, carry in carries:
                if ell == p:
                    cols.append(carry[:, None])
            A = np.concatenate([c if c.ndim == 2 else c[:, None] for c in cols],
                               axis=1)
            sol = solve_mod_prime_power(A, t_flat * pow(M_all // q, -1, q),
                                        p, e)
            if sol is None:
                raise ModulusMismatch(
                    f"table is not a {G.name} cocycle class over the basis")
            for i in range(k_basis):
                dp = p ** min(e, _valuation(self.invariants[i], p))
                if dp > 1:
                    crt[i] = _crt(crt[i], (dp, int(sol[i]) % dp))
        return tuple(crt[i][1] % self.invariants[i] for i in range(k_basis))

    def is_trivial_class(self, table: np.ndarray, modulus: int) -> bool:
        return not any(self.resolve(table, modulus))

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
        # relation kernels and Smith forms
        by_prime = {p: (e // 2, _cocycle_generators(L, FL, p, e // 2))
                    for p, e in factorize(n).items() if e // 2}
        del L, FL
        delta = _coboundary_columns(G)
        carries = _character_carries(G)
        for p, (k, zgens) in by_prime.items():
            if not zgens:
                continue
            q = p**k
            Z = np.stack(zgens, axis=1)
            bcols = [delta] + [c[:, None] for ell, c in carries if ell == p]
            B = np.concatenate(bcols, axis=1)
            rel = kernel_mod_prime_power(np.concatenate([Z, B], axis=1), p, k)
            kappa = Z.shape[1]
            R = [w[:kappa] for w in rel]
            pres = np.stack(R, axis=1) if R else np.zeros((kappa, 0), dtype=np.int64)
            diag, uinv = smith_mod_prime_power(pres, p, k, kappa)
            plist = []
            for slot, d in enumerate(diag):
                if d <= 1:
                    continue
                tab = (Z @ uinv[:, slot]) % q
                plist.append((int(d), tab))
            if plist:
                parts[p] = plist  # ascending prime-power orders
    # merge the p-parts into invariant factors d_1 | d_2 | ...
    width = max((len(v) for v in parts.values()), default=0)
    invariants = []
    basis = []
    prime_tables: dict[int, tuple[int, list]] = {}
    m = max(n, 1)
    for slot in range(width):
        d = 1
        acc = np.zeros((n, n), dtype=np.int64)
        for p, plist in parts.items():
            shifted = slot - (width - len(plist))
            if shifted < 0:
                continue
            dp, tab = plist[shifted]
            d *= dp
            q = p ** (factorize(n)[p] // 2)
            acc += _unflat(tab, n) * (m // q)
        invariants.append(d)
        rep = Cocycle(G, m, acc % m, check=False)
        if not rep.is_cocycle():
            raise CocycleMismatch(f"basis table {slot} of {G.name} is not a cocycle")
        basis.append(rep)
    for p, plist in parts.items():
        q = p ** (factorize(n)[p] // 2)
        aligned: list = [None] * width
        for i, (dp, tab) in enumerate(plist):
            aligned[width - len(plist) + i] = tab
        prime_tables[p] = (q, aligned)
    mult = SchurMultiplier(G, invariants, basis, prime_tables)
    return G._cache.setdefault("schur", mult)


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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def numeric_coclass_order(c: Cocycle, seed: int = 0) -> int:
    """The smallest k with c^k numerically trivial; k divides the modulus."""
    for k in _divisors(c.modulus):
        if is_trivial_coclass_numeric(c.group, c.power(k).unit_table(),
                                      seed=seed):
            return k
    raise CrossCheckMismatch("the modulus-th power of a cocycle is not "
                             "numerically trivial")


def is_trivial_coclass_numeric(G: FiniteGroup, unit_table: np.ndarray,
                               seed: int = 0) -> bool:
    """True iff the twisted algebra over this table has a degree-1 block.

    A degree-1 projective representation trivializes its cocycle, so this is
    a class-triviality test that needs no exact arithmetic.  The verdict is
    cached on G per (table, seed); the table enters the key as the SHA-256
    of its bytes, which keeps a full catalog sweep's thousands of keys small.
    """
    from .twisted import TwistedAlgebra, wedderburn

    table = np.ascontiguousarray(unit_table, dtype=np.complex128)
    key = ("trivial_numeric", hashlib.sha256(table.tobytes()).digest(), seed)
    if key not in G._cache:
        A = TwistedAlgebra(G, table)
        G._cache[key] = 1 in wedderburn(A, seed=seed).degrees
    return G._cache[key]
