"""Finite group arithmetic on dense Cayley tables.

Elements are indices 0..order-1 with 0 the identity.  All objects are
immutable after construction (internal caches are append-only), so they can
be shared freely across threads; every operation here is a pure function of
its inputs.

Derived groups are shared per Cayley table: ``Subgroup.as_group`` and
``quotient_group`` take their ``FiniteGroup`` from one process-wide registry
keyed on the re-indexed table, so every subgroup or quotient with the same
table is the same object and its caches (classes, pi-ladders, Hall
subgroups, the multiplier) are computed once.  Such a group keeps the name
of its first construction.  Groups from ``build_group``, the catalog and
files stay out of the registry: their generator lists differ from the
derived default, and with them ``gen_set`` and everything solved over it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ClosureTooLarge,
    ComplementSearchExhausted,
    CrossCheckMismatch,
    NotNormal,
    NotPermutation,
    NotPiSeparable,
    ParseError,
)

ORDER_CAP = 200  # largest group build_group closes, from a file or not


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (orders are tiny)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def sorted_unique(a) -> np.ndarray:
    """The sorted distinct entries of a, exactly as np.unique(a) returns them.

    np.unique imports numpy.ma to rule out a masked array, about 14 ms in
    every process that calls it; this is one sort and one comparison.
    """
    a = np.sort(np.asarray(a).ravel())
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


@dataclass(frozen=True)
class PiSet:
    """A set of primes; the complement is taken against Pi(G) on demand."""

    primes: frozenset[int]

    def __init__(self, primes) -> None:
        object.__setattr__(self, "primes", frozenset(int(p) for p in primes))

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(sorted(self.primes))

    def part(self, n: int) -> int:
        """The pi-part of a positive integer."""
        out = 1
        for p, e in factorize(n).items():
            if p in self.primes:
                out *= p**e
        return out

    def coprime_part(self, n: int) -> int:
        return n // self.part(n)

    def is_pi_number(self, n: int) -> bool:
        return self.part(n) == n

    def complement_in(self, n: int) -> "PiSet":
        """Complement relative to the primes dividing n."""
        return PiSet(p for p in prime_divisors(n) if p not in self.primes)

    def label(self) -> str:
        return "{" + ",".join(str(p) for p in sorted(self.primes)) + "}"

    def __repr__(self) -> str:
        return f"PiSet({self.label()})"


def default_pi_sets(n: int) -> list[PiSet]:
    """Every prime dividing n, then every pair of them."""
    ps = prime_divisors(n)
    return [PiSet([p]) for p in ps] + \
        [PiSet([p, q]) for i, p in enumerate(ps) for q in ps[i + 1:]]


class FiniteGroup:
    """A finite group given by its Cayley table, identity at index 0."""

    def __init__(self, mul, name: str = "G", generators=None, validate: bool = True):
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int64))
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("Cayley table must be square")
        self.mul = mul
        self.order = int(mul.shape[0])
        self.name = name
        self.identity = 0
        if generators is None:
            generators = [g for g in range(1, self.order)]
        self.generators = [int(g) for g in generators]
        # inv[g] is the unique h with mul[g, h] == 0
        rows, cols = np.nonzero(mul == 0)
        inv = np.empty(self.order, dtype=np.int64)
        inv[rows] = cols
        self.inv = inv
        self._cache: dict = {}
        if validate:
            self._validate()
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    def _validate(self) -> None:
        n = self.order
        rng = np.arange(n)
        if not (np.array_equal(self.mul[0], rng) and np.array_equal(self.mul[:, 0], rng)):
            raise ValueError("index 0 is not an identity")
        if not np.all(np.sort(self.mul, axis=1) == rng):
            raise ValueError("Cayley table rows are not permutations")
        if not np.all(np.sort(self.mul, axis=0) == rng[:, None]):
            raise ValueError("Cayley table columns are not permutations")
        if not np.all(self.mul[self.inv, rng] == 0) or not np.all(self.mul[rng, self.inv] == 0):
            raise ValueError("inverse law fails")
        # (ab)c == a(bc) on all triples, chunked over a so that each chunk
        # holds about 32k entries
        step = max(1, 32768 // max(n * n, 1))
        for a0 in range(0, n, step):
            a1 = min(n, a0 + step)
            if not np.array_equal(self.mul[self.mul[a0:a1]],
                                  self.mul[a0:a1][:, self.mul]):
                raise ValueError("Cayley table is not associative")
        if closure(self, [0] + self.generators).size != n:
            raise ValueError("generators do not generate the group")

    # -- basic arithmetic ------------------------------------------------

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return int(self.mul[self.mul[self.inv[g], x], g])

    def power(self, g: int, k: int) -> int:
        k = k % self.order_of(g)
        out, base = 0, g
        while k:
            if k & 1:
                out = int(self.mul[out, base])
            base = int(self.mul[base, base])
            k >>= 1
        return out

    def order_of(self, g: int) -> int:
        return int(self.element_orders()[g])

    def element_orders(self) -> np.ndarray:
        if "orders" not in self._cache:
            n = self.order
            orders = np.empty(n, dtype=np.int64)
            for g in range(n):
                k, x = 1, g
                while x != 0:
                    x = int(self.mul[x, g])
                    k += 1
                orders[g] = k
            orders.setflags(write=False)
            self._cache["orders"] = orders
        return self._cache["orders"]

    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            self._cache["abelian"] = bool(np.array_equal(self.mul, self.mul.T))
        return self._cache["abelian"]

    def gen_set(self) -> list[int]:
        """A small generating set: greedy over descending element order."""
        if "gen_set" not in self._cache:
            if self.order == 1:
                gens: list[int] = []
            elif closure(self, self.generators).size == self.order and \
                    len(self.generators) <= 4:
                gens = list(self.generators)
            else:
                orders = self.element_orders()
                by_order = sorted(range(1, self.order),
                                  key=lambda g: (-orders[g], g))
                gens = []
                size = 1
                for g in by_order:
                    trial = closure(self, gens + [g])
                    if trial.size > size:
                        gens.append(g)
                        size = trial.size
                    if size == self.order:
                        break
            self._cache["gen_set"] = gens
        return self._cache["gen_set"]

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [0])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def primes(self) -> tuple[int, ...]:
        return prime_divisors(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


# Re-indexed subgroups and quotients, one group per Cayley table (bytes of
# the int64 table).  setdefault makes concurrent builders agree on one object.
_DERIVED: dict[bytes, FiniteGroup] = {}


def _derived_group(mul: np.ndarray, name: str) -> FiniteGroup:
    """The shared group of a re-indexed Cayley table (see the module doc)."""
    key = mul.tobytes()
    group = _DERIVED.get(key)
    if group is None:
        group = _DERIVED.setdefault(
            key, FiniteGroup(mul, name=name, validate=False))
    return group


# -- permutation closure -------------------------------------------------


def _as_perm(seq, points: int) -> tuple[int, ...]:
    """Validate a 1-based image list and return a 0-based tuple."""
    try:
        imgs = [int(v) for v in seq]
    except (TypeError, ValueError) as exc:
        raise NotPermutation(f"not an integer sequence: {seq!r}") from exc
    if len(imgs) != points or sorted(imgs) != list(range(1, points + 1)):
        raise NotPermutation(f"not a permutation of 1..{points}: {seq!r}")
    return tuple(v - 1 for v in imgs)


def build_group(generators, name: str = "G",
                points: int | None = None) -> FiniteGroup:
    """Close a list of permutations (1-based image lists) into a group of
    order at most ``ORDER_CAP``.

    Element 0 is the identity; the remaining elements are ordered by BFS
    from the identity, right-multiplying by the generators in input order.
    Permutations compose left to right: (p*q)(i) = q(p(i)).
    """
    gen_seqs = [list(g) for g in generators]
    if points is None:
        points = max((len(g) for g in gen_seqs), default=1)
    perms = [_as_perm(g, points) for g in gen_seqs]
    ident = tuple(range(points))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    i = 0
    while i < len(elems):
        x = elems[i]
        for g in perms:
            y = tuple(g[v] for v in x)
            if y not in index:
                if len(elems) >= ORDER_CAP:
                    raise ClosureTooLarge(
                        f"closure of {name!r} exceeds cap {ORDER_CAP}")
                index[y] = len(elems)
                elems.append(y)
        i += 1
    n = len(elems)
    arr = np.array(elems, dtype=np.int64)
    # composed[i, j] = elems[i] followed by elems[j]; each row is found by
    # its bytes, one np.void key per permutation
    composed = arr[np.arange(n)[None, :, None], arr[:, None, :]]
    key = np.dtype((np.void, points * arr.itemsize))
    keys = arr.view(key).ravel()
    order = np.argsort(keys)
    wanted = composed.reshape(n * n, points).view(key).ravel()
    pos = np.minimum(np.searchsorted(keys[order], wanted), n - 1)
    mul = order[pos]
    if not (keys[mul] == wanted).all():
        raise CrossCheckMismatch("a product escaped the closure")
    mul = mul.reshape(n, n)
    gen_idx = []
    for g in perms:
        gi = index.get(g)
        if gi is None:
            raise NotPermutation("generator escaped its own closure")  # unreachable
        if gi != 0 and gi not in gen_idx:
            gen_idx.append(gi)
    group = FiniteGroup(mul, name=name, generators=gen_idx or [0])
    group._cache["perm_points"] = points
    group._cache["perm_elements"] = arr
    return group


# -- group JSON ---------------------------------------------------------------


def parse_group_json(doc: dict) -> FiniteGroup:
    """The group a document's generators close into; other keys are ignored."""
    try:
        name = str(doc["name"])
        points = int(doc["points"])
        gens = [list(map(int, g)) for g in doc["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group document: {exc}") from exc
    return build_group(gens, name=name, points=points)


def load_group(path) -> FiniteGroup:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    return parse_group_json(doc)


# -- subgroups -----------------------------------------------------------


class Subgroup:
    """A subgroup as a sorted index set inside a parent group."""

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        el = sorted_unique(np.asarray(list(elements), dtype=np.int64))
        if el.size == 0 or el[0] != 0:
            raise ValueError("subgroups must contain the identity")
        self.elements = el
        self.order = int(el.size)
        m = np.zeros(parent.order, dtype=bool)
        m[el] = True
        if not m[parent.mul[np.ix_(el, el)]].all() or not m[parent.inv[el]].all():
            raise ValueError("index set is not closed")
        self.elements.setflags(write=False)
        m.setflags(write=False)
        self._cache: dict = {"mask": m}

    def mask(self) -> np.ndarray:
        return self._cache["mask"]

    def is_normal(self) -> bool:
        if "normal" not in self._cache:
            G = self.parent
            g = np.arange(G.order)[:, None]
            conj = G.mul[G.mul[G.inv[g], self.elements], g]
            self._cache["normal"] = bool(self.mask()[conj].all())
        return self._cache["normal"]

    def as_group(self) -> FiniteGroup:
        """Re-index this subgroup as a standalone group (cached, shared).

        Standalone index i corresponds to parent index ``elements[i]``;
        ``elements`` therefore doubles as the embedding map.  Subgroups with
        the same re-indexed table share one group.
        """
        if "group" not in self._cache:
            el = self.elements
            pos = np.full(self.parent.order, -1, dtype=np.int64)
            pos[el] = np.arange(self.order)
            sub_mul = pos[self.parent.mul[np.ix_(el, el)]]
            sub = _derived_group(sub_mul, f"{self.parent.name}|{self.order}")
            # "pos" first: positions() reads it once "group" is present
            self._cache["pos"] = pos
            self._cache["group"] = sub
        return self._cache["group"]

    def positions(self) -> np.ndarray:
        """Parent index -> standalone index (or -1)."""
        self.as_group()
        return self._cache["pos"]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and np.array_equal(other.elements, self.elements))

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def closure(G: FiniteGroup, seed) -> np.ndarray:
    """Subgroup generated by an index set, as a sorted index array.

    Words in the seed elements suffice (inverses are powers in a finite
    group), so this is a BFS over right multiplication by the seed.
    """
    gens = sorted({int(s) for s in seed} | {0})
    seen = np.zeros(G.order, dtype=bool)
    seen[gens] = True
    out = gens[:]
    i = 0
    while i < len(out):
        x = out[i]
        for g in gens:
            y = int(G.mul[x, g])
            if not seen[y]:
                seen[y] = True
                out.append(y)
        i += 1
    return np.array(sorted(out), dtype=np.int64)


def conjugacy_classes(G: FiniteGroup) -> list["ConjClass"]:
    """Partition into conjugacy classes, ordered by representative index."""
    if "classes" in G._cache:
        return G._cache["classes"]
    n = G.order
    rng = np.arange(n)
    assigned = np.full(n, -1, dtype=np.int64)
    out = []
    for x in range(n):
        if assigned[x] >= 0:
            continue
        members = sorted_unique(G.mul[G.mul[G.inv, x][rng], rng])
        assigned[members] = len(out)
        cent = n // members.size
        if cent * members.size != n:
            raise CrossCheckMismatch(
                f"class of {x} has size {members.size} not dividing {n}")
        out.append(ConjClass(representative=x, members=members,
                             centralizer_order=cent))
    G._cache["classes"] = out
    return out


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: np.ndarray
    centralizer_order: int

    @property
    def size(self) -> int:
        return int(self.members.size)


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    """All g with gx = xg."""
    els = np.nonzero(G.mul[:, x] == G.mul[x, :])[0]
    return Subgroup(G, els)


def centralizer_of_set(G: FiniteGroup, elements) -> Subgroup:
    mask = np.ones(G.order, dtype=bool)
    for x in elements:
        mask &= G.mul[:, x] == G.mul[x, :]
    return Subgroup(G, np.nonzero(mask)[0])


def derived_subgroup(G: FiniteGroup, elements) -> Subgroup:
    """Commutator subgroup of the subgroup spanned by ``elements``."""
    el = np.asarray(list(elements), dtype=np.int64)
    comms = set()
    for g in el:
        # [g, h] = g^-1 h^-1 g h for all h in the set at once
        t = G.mul[G.mul[G.mul[G.inv[g], G.inv[el]], g], el]
        comms.update(int(v) for v in sorted_unique(t))
    return Subgroup(G, closure(G, comms))


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    if "derived" not in G._cache:
        G._cache["derived"] = derived_subgroup(G, range(G.order))
    return G._cache["derived"]


def is_solvable(G: FiniteGroup) -> bool:
    if "solvable" not in G._cache:
        H = commutator_subgroup(G)
        while True:
            if H.order == 1:
                G._cache["solvable"] = True
                break
            D = derived_subgroup(G, H.elements)
            if D.order == H.order:
                G._cache["solvable"] = False
                break
            H = D
    return G._cache["solvable"]


# -- Sylow and Hall machinery ---------------------------------------------


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, by the greedy pi-subgroup search for pi = {p}.

    The search is complete because every p-subgroup lies in a Sylow
    p-subgroup (Sylow's theorem).
    """
    key = ("sylow", p)
    if key not in G._cache:
        G._cache[key] = _grow_pi_subgroup(G, PiSet([p]))
    return G._cache[key]


def _grow_pi_subgroup(G: FiniteGroup, pi: PiSet) -> Subgroup:
    """A pi-subgroup of order |G|_pi, grown from the trivial subgroup.

    Each step adds the first pi-element, by ascending index, whose closure
    with the current subgroup is still a pi-group.  Such an element exists
    whenever every pi-subgroup lies in one of order |G|_pi: an element of
    that larger subgroup outside the current one extends it.  The callers
    state why their groups have that property.
    """
    target = pi.part(G.order)
    orders = G.element_orders()
    pi_elems = [g for g in range(1, G.order) if pi.is_pi_number(int(orders[g]))]
    gens: list[int] = []
    current = closure(G, gens)
    while current.size < target:
        for y in pi_elems:
            trial = closure(G, gens + [y])
            if trial.size > current.size and pi.is_pi_number(trial.size):
                break
        else:
            raise ComplementSearchExhausted(
                f"no {pi.label()}-element extends a subgroup of order "
                f"{current.size} in {G.name}")
        gens.append(y)
        current = trial
    return Subgroup(G, current)


def o_pi(G: FiniteGroup, pi: PiSet) -> Subgroup:
    """The largest normal pi-subgroup, by class-union closure."""
    key = ("o_pi", tuple(sorted(pi.primes)))
    if key in G._cache:
        return G._cache[key]
    H = _o_pi_uncached(G, pi)
    G._cache[key] = H
    return H


def _o_pi_uncached(G: FiniteGroup, pi: PiSet) -> Subgroup:
    classes = conjugacy_classes(G)
    orders = G.element_orders()
    cand = [c for c in classes
            if pi.is_pi_number(int(orders[c.representative]))]
    current = {0}
    grown = True
    while grown:
        grown = False
        for c in cand:
            if int(c.representative) in current:
                continue
            trial = closure(G, list(current) + list(c.members))
            if pi.is_pi_number(trial.size):
                current = set(int(v) for v in trial)
                grown = True
    H = Subgroup(G, sorted(current))
    if not H.is_normal():
        raise NotNormal(f"O_pi closure of order {H.order} is not normal")
    return H


@dataclass(frozen=True)
class Quotient:
    """A quotient group with its projection and a coset-representative section."""

    group: FiniteGroup
    projection: np.ndarray
    section: np.ndarray


def quotient_group(G: FiniteGroup, N: Subgroup) -> Quotient:
    """Cayley table on cosets of a normal subgroup.

    Cosets are ordered by their minimal element; the section records that
    minimal representative, so the identity coset is index 0 with
    representative 0.  Quotients with the same table share one group.
    """
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    first = G.mul[:, N.elements].min(axis=1)
    section = sorted_unique(first)
    proj = np.searchsorted(section, first)
    mul_q = proj[G.mul[np.ix_(section, section)]]
    Qg = _derived_group(mul_q, f"{G.name}/{N.order}")
    return Quotient(group=Qg, projection=proj, section=section)


def preimage(G: FiniteGroup, quot: Quotient, H_q: Subgroup) -> Subgroup:
    """Pull a subgroup of the quotient back to the parent."""
    m = np.zeros(quot.group.order, dtype=bool)
    m[H_q.elements] = True
    return Subgroup(G, np.nonzero(m[quot.projection])[0])


@dataclass
class NormalSeries:
    """An ascending normal series with pi/pi' factor tags."""

    terms: list[Subgroup]
    factor_pi_tags: list[str]
    reaches_group: bool = True


_TAGS = ("pi", "pi_prime")


def pi_ladder(G: FiniteGroup, pi: PiSet) -> list[Subgroup]:
    """The raw O_pi/O_pi' ladder 1 = T_0 <= T_1 <= ... (cached).

    T_(k+1) is the preimage of O_pi(G/T_k) for even k and of O_pi'(G/T_k)
    for odd k, trivial steps included.  The walk stops at G, or after two
    steps in a row that do not grow, which happens exactly when G is not
    pi-separable.  Every pi-series in this module is read off this list.
    """
    key = ("pi_ladder", tuple(sorted(pi.primes)))
    if key not in G._cache:
        sets = (pi, pi.complement_in(G.order))
        terms = [G.trivial_subgroup()]
        while terms[-1].order < G.order and \
                not (len(terms) > 2 and terms[-3].order == terms[-1].order):
            quot = quotient_group(G, terms[-1])
            O = o_pi(quot.group, sets[(len(terms) - 1) % 2])
            terms.append(preimage(G, quot, O))
        G._cache[key] = terms
    return G._cache[key]


def pi_series(G: FiniteGroup, pi: PiSet) -> NormalSeries:
    """The characteristic series 1 <= O_pi <= O_pipi' <= ... (duplicates dropped).

    Terminates at G exactly when G is pi-separable; otherwise the series is
    returned as far as it goes with ``reaches_group`` false.
    """
    ladder = pi_ladder(G, pi)
    terms = [ladder[0]]
    tags: list[str] = []
    for k in range(1, len(ladder)):
        if ladder[k].order > ladder[k - 1].order:
            terms.append(ladder[k])
            tags.append(_TAGS[(k - 1) % 2])
    return NormalSeries(terms=terms, factor_pi_tags=tags,
                        reaches_group=is_pi_separable(G, pi))


def alternating_pi_series(G: FiniteGroup, pi: PiSet) -> NormalSeries:
    """Strictly alternating pi/pi' series 1, O_pi, O_pipi', ..., ending at G
    with a pi'-tagged final factor (trivial repeats kept)."""
    if not is_pi_separable(G, pi):
        raise NotPiSeparable(f"{G.name} is not {pi.label()}-separable")
    terms = list(pi_ladder(G, pi))
    tags = [_TAGS[k % 2] for k in range(len(terms) - 1)]
    if not tags or tags[-1] == "pi":
        terms.append(G.full_subgroup())
        tags.append("pi_prime")
    return NormalSeries(terms=terms, factor_pi_tags=tags, reaches_group=True)


def is_pi_separable(G: FiniteGroup, pi: PiSet) -> bool:
    return pi_ladder(G, pi)[-1].order == G.order


def is_p_solvable(G: FiniteGroup, p: int) -> bool:
    return is_pi_separable(G, PiSet([p]))


def hall_subgroup(G: FiniteGroup, pi: PiSet) -> Subgroup:
    """A Hall pi-subgroup of a pi-separable group, by the greedy search.

    The search is complete because in a pi-separable group every
    pi-subgroup lies in a Hall pi-subgroup (Cunihin's extension of
    P. Hall's theorem).
    """
    if not is_pi_separable(G, pi):
        raise NotPiSeparable(f"{G.name} is not {pi.label()}-separable")
    key = ("hall", tuple(sorted(pi.primes)))
    if key not in G._cache:
        G._cache[key] = _grow_pi_subgroup(G, pi)
    return G._cache[key]


def hall_higman_check(G: FiniteGroup, p: int) -> bool:
    """C_G(O_p(G)) <= O_p(G) for p-solvable G with O_p'(G) = 1.

    Returns a vacuous pass when the hypotheses fail; must never be false on
    valid input.
    """
    if not is_p_solvable(G, p):
        return True
    pp = PiSet([p])
    if o_pi(G, pp.complement_in(G.order)).order > 1:
        return True
    P = o_pi(G, pp)
    C = centralizer_of_set(G, P.elements)
    return bool(P.mask()[C.elements].all())
