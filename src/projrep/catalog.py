"""Built-in group catalog.

Every entry is constructed from permutation generators through build_group
and carries expected metadata for self-checks.  Any group, from the catalog
or a file, yields one context per coclass of its directly solved multiplier.

The entries are plain data, so listing them imports no numpy; the group and
context constructors import the compute layers when they are called.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import CrossCheckMismatch, UnknownGroup

if TYPE_CHECKING:
    from .groups import FiniteGroup
    from .verify import CoclassContext


def _cyclic(n):
    return [list(range(2, n + 1)) + [1]]


def _dihedral(n):
    rot = [(i % n) + 1 for i in range(1, n + 1)]
    refl = [((1 - (i - 1)) % n) + 1 for i in range(1, n + 1)]
    return [rot, refl]


def _shift(gens, offset, total):
    """Embed generators acting on points offset+1..offset+k into 1..total."""
    out = []
    for g in gens:
        imgs = list(range(1, total + 1))
        for i, v in enumerate(g):
            imgs[offset + i] = v + offset
        out.append(imgs)
    return out


def _product(*parts):
    """Permutation generators of a direct product on disjoint points."""
    total = sum(p for _, p in parts)
    gens = []
    offset = 0
    for sub_gens, pts in parts:
        gens.extend(_shift(sub_gens, offset, total))
        offset += pts
    return gens


def _sl2(p):
    vecs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def act(m):
        return [pos[((m[0][0] * a + m[0][1] * b) % p,
                     (m[1][0] * a + m[1][1] * b) % p)] for a, b in vecs]

    return [act([[1, 1], [0, 1]]), act([[0, -1], [1, 0]])]


def _affine(p, mult):
    """x -> x+1 and x -> mult*x on residues mod p (Frobenius groups)."""
    shift = [((x + 1) % p) + 1 for x in range(p)]
    scale = [((mult * x) % p) + 1 for x in range(p)]
    return [shift, scale]


def _regular_from_mult(elements, op):
    """Right-regular permutations of a finite multiplication rule."""
    index = {e: i for i, e in enumerate(elements)}

    def perm(g):
        return [index[op(h, g)] + 1 for h in elements]

    return perm


def _dicyclic(n):
    """Generalized quaternion / dicyclic group of order 4n, regular action."""
    els = [(i, j) for j in range(2) for i in range(2 * n)]

    def op(a, b):
        i, j = a
        k, l = b
        if j == 0:
            return ((i + k) % (2 * n), l)
        if l == 0:
            return ((i - k) % (2 * n), 1)
        return ((i - k + n) % (2 * n), 0)

    perm = _regular_from_mult(els, op)
    return [perm((1, 0)), perm((0, 1))]


def _heisenberg3():
    vecs = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def act(m):
        out = []
        for v in vecs:
            w = tuple(sum(m[i][j] * v[j] for j in range(3)) % 3
                      for i in range(3))
            out.append(pos[w])
        return out

    x = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    y = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return [act(x), act(y)]


def _mod_extraspecial27():
    """C9 : C3 with the generator acting as the 4th power map."""
    els = [(i, j) for j in range(3) for i in range(9)]

    def op(a, b):
        i, j = a
        k, l = b
        return ((i + k * pow(4, j, 9)) % 9, (j + l) % 3)

    perm = _regular_from_mult(els, op)
    return [perm((1, 0)), perm((0, 1))]


S3 = [[2, 1, 3], [2, 3, 1]]
S4 = [[2, 1, 3, 4], [2, 3, 4, 1]]
A4 = [[2, 3, 1, 4], [1, 3, 4, 2]]
A5_PERM = [[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]]
Q8 = [[3, 4, 2, 1, 7, 8, 6, 5], [5, 6, 8, 7, 2, 1, 3, 4]]
D4 = _dihedral(4)


@dataclass
class CatalogEntry:
    name: str
    order: int
    solvable: bool
    build: Callable[[], FiniteGroup]
    notes: str = ""


def _perm_entry(name, order, solvable, gens, points=None, notes=""):
    def build():
        from .groups import build_group
        return build_group(gens, name=name, points=points)
    return CatalogEntry(name=name, order=order, solvable=solvable,
                        build=build, notes=notes)


def _entries() -> list[CatalogEntry]:
    out = []
    for n in range(1, 25):
        out.append(_perm_entry(f"C{n}", n, True,
                               _cyclic(n) if n > 1 else []))
    out += [
        _perm_entry("C2xC2", 4, True, _product((_cyclic(2), 2), (_cyclic(2), 2))),
        _perm_entry("C2xC4", 8, True, _product((_cyclic(2), 2), (_cyclic(4), 4))),
        _perm_entry("C2xC6", 12, True, _product((_cyclic(2), 2), (_cyclic(6), 6))),
        _perm_entry("C3xC3", 9, True, _product((_cyclic(3), 3), (_cyclic(3), 3))),
        _perm_entry("C3xC6", 18, True, _product((_cyclic(3), 3), (_cyclic(6), 6))),
        _perm_entry("C4xC4", 16, True, _product((_cyclic(4), 4), (_cyclic(4), 4))),
        _perm_entry("C2xC2xC2", 8, True,
                    _product((_cyclic(2), 2), (_cyclic(2), 2), (_cyclic(2), 2))),
        _perm_entry("C6xC6", 36, True, _product((_cyclic(6), 6), (_cyclic(6), 6))),
    ]
    for n in range(3, 13):
        out.append(_perm_entry(f"D{n}", 2 * n, True, _dihedral(n)))
    out += [
        _perm_entry("Q8", 8, True, Q8),
        _perm_entry("Q16", 16, True, _dicyclic(4)),
        _perm_entry("S3", 6, True, S3),
        _perm_entry("S4", 24, True, S4),
        _perm_entry("A4", 12, True, A4),
        _perm_entry("A5", 60, False, A5_PERM),
        _perm_entry("SL(2,3)", 24, True, _sl2(3)),
        _perm_entry("SL(2,5)", 120, False, _sl2(5)),
        _perm_entry("C7:C3", 21, True, _affine(7, 2)),
        _perm_entry("C5:C4", 20, True, _affine(5, 2)),
        _perm_entry("E27+", 27, True, _heisenberg3(),
                    notes="extraspecial, exponent 3"),
        _perm_entry("E27-", 27, True, _mod_extraspecial27(),
                    notes="extraspecial, exponent 9"),
        _perm_entry("C2xD4", 16, True, _product((_cyclic(2), 2), (D4, 4))),
        _perm_entry("C2xQ8", 16, True, _product((_cyclic(2), 2), (Q8, 8))),
        _perm_entry("C2xA4", 24, True, _product((_cyclic(2), 2), (A4, 4))),
        _perm_entry("C3xS3", 18, True, _product((_cyclic(3), 3), (S3, 3))),
        _perm_entry("S3xS3", 36, True, _product((S3, 3), (S3, 3))),
        _perm_entry("C2xC2xS3", 24, True,
                    _product((_cyclic(2), 2), (_cyclic(2), 2), (S3, 3))),
        _perm_entry("C3xSL(2,3)", 72, True,
                    _product((_cyclic(3), 3), (_sl2(3), 8))),
        _perm_entry("C5xC5:C4", 100, True,
                    _product((_cyclic(5), 5), (_affine(5, 2), 5))),
        _perm_entry("C2xA5", 120, False,
                    _product((_cyclic(2), 2), (A5_PERM, 5))),
    ]
    return out


_CATALOG: list[CatalogEntry] | None = None
_GROUPS: dict[str, FiniteGroup] = {}


def catalog() -> list[CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise UnknownGroup(f"no catalog entry named {name!r}")


def get_group(name: str) -> FiniteGroup:
    if name not in _GROUPS:
        from .groups import is_solvable
        e = entry(name)
        G = e.build()
        if G.order != e.order:
            raise CrossCheckMismatch(
                f"catalog self-check failed: |{name}| = {G.order}, "
                f"expected {e.order}")
        if is_solvable(G) != e.solvable:
            raise CrossCheckMismatch(
                f"catalog self-check failed: {name} solvability")
        _GROUPS[name] = G
    return _GROUPS[name]


def resolve_group(name: str) -> FiniteGroup:
    """A catalog name, or a path to a group JSON file."""
    try:
        return get_group(name)
    except UnknownGroup:
        p = Path(name)
        if p.exists():
            from .groups import load_group
            return load_group(p)
        raise


def coclass_contexts(name: str) -> list[CoclassContext]:
    """group_contexts of the catalog group called name."""
    return group_contexts(get_group(name))


def group_contexts(G: FiniteGroup) -> list[CoclassContext]:
    """One context per coclass of G, lexicographic over the basis: every
    group, up to ``groups.ORDER_CAP``, gets its whole multiplier."""
    from .cohomology import schur_multiplier
    from .verify import CoclassContext
    return [CoclassContext(G, c.representative, label=c.label(), coclass=c)
            for c in schur_multiplier(G).coclasses()]
