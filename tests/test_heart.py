"""Permutation groups, double transitivity, and mod-p commutant dimensions."""
import random

import pytest
from hypothesis import given, strategies as st

from seljac.heart import (
    GROUPS,
    PermGroup,
    heart_centralizer_dim,
    is_doubly_transitive,
    permutation_heart_matrix,
)

V4 = PermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1)))
D4 = PermGroup(4, ((1, 2, 3, 0), (2, 1, 0, 3)))


def group_order(g: PermGroup) -> int:
    ident = tuple(range(g.degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in g.generators:
                composed = tuple(gen[v] for v in el)
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
        frontier = nxt
    return len(seen)


def test_group_constructors():
    assert group_order(PermGroup.symmetric(4)) == 24
    assert group_order(PermGroup.alternating(4)) == 12
    assert group_order(PermGroup.cyclic(4)) == 4
    assert group_order(PermGroup.symmetric(5)) == 120
    assert group_order(PermGroup.alternating(5)) == 60
    assert group_order(V4) == 4
    assert group_order(D4) == 8
    assert group_order(PermGroup.trivial(6)) == 1


def test_group_validation():
    with pytest.raises(ValueError):
        PermGroup(0, ())
    with pytest.raises(ValueError):
        PermGroup(3, ((0, 0, 1),))


@pytest.mark.parametrize(
    "group,expect",
    [
        (PermGroup.symmetric(3), True),
        (PermGroup.symmetric(4), True),
        (PermGroup.symmetric(5), True),
        (PermGroup.alternating(4), True),
        (PermGroup.alternating(5), True),
        (PermGroup.cyclic(3), False),
        (PermGroup.cyclic(4), False),
        (V4, False),
        (D4, False),
        (PermGroup.trivial(3), False),
    ],
)
def test_doubly_transitive(group, expect):
    assert is_doubly_transitive(group) is expect


def test_doubly_transitive_degree_bound():
    with pytest.raises(ValueError):
        is_doubly_transitive(PermGroup.trivial(1))


def test_identity_acts_as_identity():
    assert permutation_heart_matrix((0, 1, 2, 3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(st.permutations(range(5)), st.permutations(range(5)))
def test_heart_matrix_is_homomorphism(s, t):
    # composition (s then t applied inside-out): (s o t)(v) = s[t[v]]
    comp = tuple(s[t[v]] for v in range(5))
    a, b = permutation_heart_matrix(tuple(s)), permutation_heart_matrix(tuple(t))
    product = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )
    assert permutation_heart_matrix(comp) == product


@pytest.mark.parametrize(
    "group,p,expect",
    [
        (PermGroup.symmetric(3), 2, 1),
        (PermGroup.symmetric(4), 3, 1),
        (PermGroup.alternating(4), 3, 1),
        (PermGroup.symmetric(5), 2, 1),
        (PermGroup.symmetric(5), 3, 1),
        (PermGroup.symmetric(5), 7, 1),
        (PermGroup.alternating(5), 2, 1),
        (PermGroup.alternating(5), 3, 1),
        # C3 mod 2: the 2-dim module is F_4, commutant is all of F_4
        (PermGroup.cyclic(3), 2, 2),
        (PermGroup.cyclic(5), 2, 4),
        (PermGroup.cyclic(5), 3, 4),
        (PermGroup.cyclic(4), 3, 3),
        (V4, 3, 3),
        (D4, 3, 2),
        (PermGroup.trivial(3), 2, 4),
        (PermGroup.trivial(4), 3, 9),
        (PermGroup.trivial(5), 2, 16),
    ],
)
def test_centralizer_dim(group, p, expect):
    assert heart_centralizer_dim(group, p) == expect


def test_doubly_transitive_groups_have_scalar_commutant():
    for group in (PermGroup.symmetric(6), PermGroup.alternating(6)):
        for p in (5, 7, 11):
            assert heart_centralizer_dim(group, p) == 1


@given(st.permutations(range(5)))
def test_centralizer_conjugation_invariant(c):
    # relabeling the points must not change the commutant dimension
    base = PermGroup.symmetric(5)
    inv = [0] * 5
    for k, v in enumerate(c):
        inv[v] = k
    conj = tuple(tuple(c[g[inv[v]]] for v in range(5)) for g in base.generators)
    assert heart_centralizer_dim(PermGroup(5, conj), 3) == 1


@pytest.mark.parametrize(
    "group,p",
    [
        (PermGroup.symmetric(4), 2),
        (PermGroup.symmetric(3), 3),
        (PermGroup.cyclic(6), 3),
    ],
)
def test_centralizer_rejects_p_dividing_degree(group, p):
    with pytest.raises(ValueError):
        heart_centralizer_dim(group, p)


def test_centralizer_rejects_bad_modulus():
    with pytest.raises(ValueError):
        heart_centralizer_dim(PermGroup.symmetric(3), 4)
    with pytest.raises(ValueError):
        heart_centralizer_dim(PermGroup.trivial(1), 2)


def _orbit_counts(group: PermGroup) -> tuple[int, int]:
    """(orbits on points, orbitals: orbits on ordered pairs), by closing
    each point and pair under the generators."""
    n = group.degree

    def orbits(items, act):
        seen, count = set(), 0
        for start in items:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for g in group.generators:
                    y = act(g, x)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return count

    points = orbits(range(n), lambda g, a: g[a])
    pairs = orbits([(a, b) for a in range(n) for b in range(n)], lambda g, ab: (g[ab[0]], g[ab[1]]))
    return points, pairs


def _oracle_groups():
    yield from GROUPS.values()
    for n in range(2, 8):
        yield from (PermGroup.symmetric(n), PermGroup.alternating(n),
                    PermGroup.cyclic(n), PermGroup.trivial(n))
    rng = random.Random(20061)
    for _ in range(150):
        n = rng.randint(2, 7)
        gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3)))
        yield PermGroup(n, gens)


def test_centralizer_dim_counts_orbitals():
    # A matrix that commutes with every permutation matrix is constant on
    # orbitals, over any field, so the commutant of the permutation module
    # has dimension #orbitals; for p not dividing n the constant vector
    # splits off, and with it one dimension for the trivial summand and
    # #orbits - 1 each way between it and the sum-zero module.
    cases = 0
    for group in _oracle_groups():
        points, pairs = _orbit_counts(group)
        for p in (2, 3, 5, 7, 11):
            if group.degree % p:
                assert heart_centralizer_dim(group, p) == pairs - 2 * points + 1, (group, p)
                cases += 1
    assert cases > 600
