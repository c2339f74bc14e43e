"""Shared group constructions and reference helpers for the test suite."""

import numpy as np
import pytest

from projrep.groups import Subgroup, build_group, centralizer_of_set


def cyclic_gens(n):
    return [list(range(2, n + 1)) + [1]]


def direct_gens(gens_a, pts_a, gens_b, pts_b):
    gens = []
    for g in gens_a:
        gens.append(list(g) + [pts_a + i + 1 for i in range(pts_b)])
    for g in gens_b:
        gens.append(list(range(1, pts_a + 1)) + [v + pts_a for v in g])
    return gens


def dihedral_gens(n):
    rot = [(i % n) + 1 for i in range(1, n + 1)]
    refl = [((1 - (i - 1)) % n) + 1 for i in range(1, n + 1)]
    return [rot, refl]


def sl2_gens(p):
    vecs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def act(m):
        return [pos[((m[0][0] * a + m[0][1] * b) % p,
                     (m[1][0] * a + m[1][1] * b) % p)] for a, b in vecs]

    return [act([[1, 1], [0, 1]]), act([[0, -1], [1, 0]])]


Q8_GENS = [[3, 4, 2, 1, 7, 8, 6, 5], [5, 6, 8, 7, 2, 1, 3, 4]]


def center_subgroup(G) -> Subgroup:
    members = [g for g in range(G.order)
               if centralizer_of_set(G, [g]).order == G.order]
    return Subgroup(G, members)


def transport_rep_reference(r, H, g, A):
    """Move a representation of H to one of H^g = g^-1 H g.

    y -> conj(twist(x, g)) phi(x) for x = y^(g^-1), since g sigma y sigma
    (g sigma)^-1 = conj(twist(x, g)) x sigma; the result lives over the
    restricted cocycle of the conjugate subgroup.  Returns (rep, H^g).
    """
    from projrep.reps import ProjRep
    from projrep.twisted import alpha_tilde

    G = A.group
    Ht = Subgroup(G, G.mul[G.mul[G.inv[g], H.elements], g])
    y = Ht.elements
    x = G.mul[G.mul[g, y], G.inv[g]]  # y^(g^-1)
    tw = np.conj(alpha_tilde(A, x, g))
    mats = tw[:, None, None] * r.matrices[H.positions()[x]]
    return ProjRep(Ht.as_group(), A.table[np.ix_(y, y)], mats), Ht


@pytest.fixture(scope="session")
def v4():
    return build_group(direct_gens([[2, 1]], 2, [[2, 1]], 2), name="C2xC2")


@pytest.fixture(scope="session")
def s3g():
    return build_group([[2, 1, 3], [2, 3, 1]], name="S3")


@pytest.fixture(scope="session")
def s4g():
    return build_group([[2, 1, 3, 4], [2, 3, 4, 1]], name="S4")


@pytest.fixture(scope="session")
def a4g():
    return build_group([[2, 3, 1, 4], [1, 3, 4, 2]], name="A4")


@pytest.fixture(scope="session")
def c6g():
    return build_group(cyclic_gens(6), name="C6")


@pytest.fixture(scope="session")
def d4g():
    return build_group(dihedral_gens(4), name="D4")


@pytest.fixture(scope="session")
def q8g():
    return build_group(Q8_GENS, name="Q8")


@pytest.fixture(scope="session")
def sl23g():
    return build_group(sl2_gens(3), name="SL(2,3)")


@pytest.fixture(scope="session")
def sl25g():
    return build_group(sl2_gens(5), name="SL(2,5)")
