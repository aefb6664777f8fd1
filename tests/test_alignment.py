"""Projection and alignment geometry on exact models."""

import random
from fractions import Fraction

import pytest

from genlab.alignment import (
    AlignmentError,
    aligned_subsegments,
    behrstock_dichotomy,
    chain_alignment,
    check_alignment,
    fellow_traveling,
    gromov_product,
    hausdorff_distance,
    project,
    set_diameter,
    tree_hausdorff_distance,
)
from genlab.spaces import BassSerreTree, CayleyTree, Geodesic, cycle_graph

from conftest import random_reduced_word


def test_gromov_product_examples(tree2, f2):
    tree, action = tree2
    x0 = ()
    a, b = action.proj(f2.element("a")), action.proj(f2.element("b"))
    assert gromov_product(tree, a, b, x0) == 0
    assert gromov_product(tree, a, a, x0) == tree.distance(a, x0)
    assert gromov_product(tree, a, b, a) == 0


def test_gromov_product_is_tree_distance_to_geodesic(tree2):
    tree, _ = tree2
    rng = random.Random(0)
    for _ in range(500):
        x, y, z = (random_reduced_word(rng, 2, rng.randrange(0, 9)) for _ in range(3))
        if x == y:
            continue
        geo = tree.geodesic(x, y)
        expected = min(tree.distance(z, p) for p in geo.points)
        assert gromov_product(tree, x, y, z) == expected


def test_project_examples(tree2, f2):
    tree, action = tree2
    geo = tree.geodesic(f2.normalize((2,)), f2.normalize((2, 2)))
    ps = project(tree, action.proj(f2.element("a")), geo)
    assert ps.points == (f2.normalize((2,)),)
    on = project(tree, f2.normalize((2,)), geo)
    assert on.points == (f2.normalize((2,)),) and on.distance == 0
    # at delta = 0 the projection equals the Gromov-product point exactly
    rng = random.Random(1)
    for _ in range(300):
        x = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 8)))
        u = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 8)))
        v = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 8)))
        if u == v:
            continue
        geo = tree.geodesic(u, v)
        t = gromov_product(tree, x, v, u)
        assert project(tree, x, geo).points == (geo.points[int(t)],)


def test_tree_projection_rejects_a_path_that_is_not_a_geodesic(tree2, f2):
    # two points three apart are no length-1 geodesic: 2i = 0 + 1 - 3 is out
    # of range, and on a tree project raises where it used to scan
    tree, action = tree2
    start, end = action.proj(f2.identity()), action.proj(f2.element("aba"))
    with pytest.raises(ValueError, match="projects to no vertex"):
        project(tree, start, Geodesic((start, end)))


def test_projection_fast_path_matches_generic(tree2):
    tree, _ = tree2

    class Slow:
        is_tree = False
        delta = tree.delta
        basepoint = tree.basepoint
        distance = staticmethod(tree.distance)
        geodesic = staticmethod(tree.geodesic)

    slow = Slow()
    rng = random.Random(2)
    for _ in range(800):
        x = random_reduced_word(rng, 2, rng.randrange(0, 9))
        u = random_reduced_word(rng, 2, rng.randrange(0, 9))
        v = random_reduced_word(rng, 2, rng.randrange(0, 9))
        if u == v:
            continue
        geo = tree.geodesic(u, v)
        assert project(tree, x, geo).indices == project(slow, x, geo).indices
        items = [x, geo] if rng.random() < 0.5 else [geo, x]
        fast = check_alignment(tree, items, 2)
        slow_rep = check_alignment(slow, items, 2)
        assert fast.pair_diameters == slow_rep.pair_diameters


def _random_vertex(rng, tree, steps):
    v = tree.basepoint
    for _ in range(steps):
        v = rng.choice(sorted(tree.neighbors(v)))
    return v


@pytest.mark.parametrize("tree", [CayleyTree(2), BassSerreTree()], ids=["cayley2", "bass-serre"])
def test_tree_fellow_traveling_matches_the_hausdorff_scan(tree):
    # two tree geodesics, one-point ones among them, read d(p, eta) from
    # the median of each point; the exhaustive scan of every point pair is
    # the oracle
    class Slow:
        is_tree = False
        distance = staticmethod(tree.distance)

    rng = random.Random(5)

    def near(v):
        for _ in range(rng.randrange(0, 3)):
            v = rng.choice(sorted(tree.neighbors(v)))
        return v

    pairs, hausdorff, travels = 0, set(), 0
    while pairs < 400:
        gamma = tree.geodesic(_random_vertex(rng, tree, rng.randrange(0, 8)),
                              _random_vertex(rng, tree, rng.randrange(0, 8)))
        if rng.random() < 0.5:  # a geodesic between points near gamma's ends
            eta = tree.geodesic(near(gamma.start), near(gamma.end))
        else:
            eta = tree.geodesic(_random_vertex(rng, tree, rng.randrange(0, 8)),
                                _random_vertex(rng, tree, rng.randrange(0, 8)))
        pairs += 1
        want = hausdorff_distance(tree, gamma.points, eta.points)
        assert tree_hausdorff_distance(tree, gamma, eta) == want
        hausdorff.add(want)
        for eps in (want - 1, want, want + 1):
            for strict in (True, False):
                fast = fellow_traveling(tree, gamma, eta, eps, strict)
                assert fast == fellow_traveling(Slow(), gamma, eta, eps, strict)
                travels += fast
    assert len(hausdorff) > 3 and travels


@pytest.mark.parametrize("tree", [CayleyTree(2), BassSerreTree()], ids=["cayley2", "bass-serre"])
def test_tree_alignment_matches_generic_scan(tree):
    # the tree pair helper (endpoint medians, no distance onto a point)
    # against the generic scan of every projection and every diameter
    class Slow:
        is_tree = False
        delta = tree.delta
        basepoint = tree.basepoint
        distance = staticmethod(tree.distance)
        geodesic = staticmethod(tree.geodesic)

    slow = Slow()
    rng = random.Random(3)
    levels = (1, Fraction(3, 2), 2, Fraction(7, 3), 3, Fraction(9, 2))

    def geo():
        # one-point geodesics included
        return tree.geodesic(_random_vertex(rng, tree, rng.randrange(0, 8)),
                             _random_vertex(rng, tree, rng.randrange(0, 8)))

    def point():
        return _random_vertex(rng, tree, rng.randrange(0, 9))

    one_point = 0
    for _ in range(400):
        sequences = [
            [point(), geo(), point()],
            [geo(), geo()],
            [point(), geo()],
            [geo(), point()],
            [geo(), geo(), point(), geo()],
        ]
        for items in sequences:
            one_point += sum(isinstance(it, Geodesic) and len(it) == 0 for it in items)
            level = rng.choice(levels)
            fast = check_alignment(tree, items, level)
            slow_rep = check_alignment(slow, items, level)
            assert fast.pair_diameters == slow_rep.pair_diameters
            assert fast.aligned == slow_rep.aligned
            assert fast.level == slow_rep.level == Fraction(level)
            # the integer comparison with ceil(level) against the rational one
            assert fast.aligned == all(max(p) < Fraction(level) for p in fast.pair_diameters)
            assert fast.aligned == (fast.first_violation() is None)
    assert one_point > 0


def test_alignment_examples(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 8)
    g1, g2 = line.subsegment(0, 3), line.subsegment(5, 8)
    assert check_alignment(tree, [g1, g2], 1).aligned
    rev = check_alignment(tree, [g2, g1], 1)
    assert not rev.aligned
    assert rev.pair_diameters[0] == (3, 3)  # the segment gap
    assert check_alignment(tree, [(1, 2)], 1).aligned  # single point, vacuous
    with pytest.raises(ValueError):
        check_alignment(tree, [], 1)


def test_alignment_report_json(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 6)
    rep = check_alignment(tree, [line.subsegment(0, 2), line.subsegment(4, 6)], 3)
    doc = rep.to_json()
    assert doc["aligned"] and doc["level"] == "3"


def test_fellow_traveling(tree2):
    tree, _ = tree2
    geo = tree.geodesic((), (1, 1, 1))
    assert fellow_traveling(tree, geo, geo, 1)
    # two disjoint segments at Hausdorff distance exactly three
    seg1 = tree.geodesic((), (1, 1))
    seg2 = tree.geodesic((-1, -1, -1), (-1,))
    assert not set(seg1.points) & set(seg2.points)
    assert hausdorff_distance(tree, seg1.points, seg2.points) == 3
    assert not fellow_traveling(tree, seg1, seg2, 2)
    assert fellow_traveling(tree, seg1, seg2, 4)
    # endpoints close but the middles drift apart: opposite arcs of a cycle
    g8 = cycle_graph(8)
    arc1 = Geodesic((0, 1, 2, 3, 4))
    arc2 = Geodesic((0, 7, 6, 5, 4))
    assert g8.distance(arc1.start, arc2.start) == 0
    assert g8.distance(arc1.end, arc2.end) == 0
    assert hausdorff_distance(g8, arc1.points, arc2.points) == 2
    assert not fellow_traveling(g8, arc1, arc2, 2)
    assert fellow_traveling(g8, arc1, arc2, 3)


def test_behrstock_dichotomy_branches(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 8)
    g1, g2 = line.subsegment(0, 3), line.subsegment(5, 8)
    # a point past the far end of g2 aligns as a successor of the pair
    assert behrstock_dichotomy(tree, (1,) * 10, g1, g2, 1, 0) == "second"
    # a point behind g1 aligns as a predecessor
    assert behrstock_dichotomy(tree, (-1, -1), g1, g2, 1, 0) == "first"
    # a point hanging between them sees both branches at level 3
    assert behrstock_dichotomy(tree, (1, 1, 1, 1, 2), g1, g2, 3, 0) == "both"
    with pytest.raises(AlignmentError):
        behrstock_dichotomy(tree, (), g2, g1, 1, 0)


def test_each_alignment_lemma_refuses_a_misaligned_hypothesis(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 16)
    g1, g2 = line.subsegment(1, 5), line.subsegment(7, 11)
    refusals = [
        (lambda: behrstock_dichotomy(tree, (), g2, g1, 1, 0), "input pair"),
        (lambda: chain_alignment(tree, [g2, g1, g2], 1, 0), "sequence"),
        (lambda: aligned_subsegments(tree, (1,) * 16, [g1, g2], (-1,), 1, 0), "sequence"),
    ]
    for call, what in refusals:
        with pytest.raises(AlignmentError) as raised:
            call()
        assert str(raised.value) == f"{what} is not aligned at the stated level"
        assert raised.value.report.level == 1 and not raised.value.report.aligned


def test_chain_alignment(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 20)
    segs = [line.subsegment(0, 4), line.subsegment(6, 10), line.subsegment(12, 16)]
    assert chain_alignment(tree, segs, 1, 0) is None
    assert chain_alignment(tree, segs[:2], 1, 0) is None  # n = 2 reduces to the hypothesis
    short = [line.subsegment(0, 4), line.subsegment(6, 8), line.subsegment(12, 16)]
    with pytest.raises(ValueError):
        chain_alignment(tree, short, 1, 0)


def test_chain_alignment_random(tree2, f2):
    tree, _ = tree2
    rng = random.Random(3)
    violations = 0
    trials = 0
    for _ in range(1000):
        base = random_reduced_word(rng, 2, 30)
        line = tree.geodesic((), base)
        if len(line) < 24:
            continue
        pos, segs = 0, []
        while pos + 5 <= min(len(line), 24):
            nxt = pos + rng.randrange(3, 5)
            if nxt > len(line):
                break
            segs.append(line.subsegment(pos, nxt))
            pos = nxt + rng.randrange(1, 3)
        if len(segs) < 2:
            continue
        trials += 1
        if chain_alignment(tree, segs, 1, 0) is not None:
            violations += 1
    assert trials >= 500
    assert violations == 0


def test_aligned_subsegments_certificates(tree2):
    tree, _ = tree2
    line = tree.geodesic((), (1,) * 16)
    x, y = (-1,), (1,) * 16
    gammas = [line.subsegment(1, 5), line.subsegment(7, 11)]
    caps = aligned_subsegments(tree, x, gammas, y, 1, 0)
    prev_end = -1
    for cap, gamma in zip(caps, gammas):
        # at delta = 0 the certificates are exact equalities
        assert fellow_traveling(tree, cap.eta, cap.gamma_sub, 0, strict=False)
        assert fellow_traveling(tree, cap.gamma_sub, gamma, 1, strict=False)
        start = tree.distance(x, cap.eta.start)
        assert start > prev_end
        prev_end = tree.distance(x, cap.eta.end)
    with pytest.raises(ValueError):
        aligned_subsegments(tree, x, [line.subsegment(0, 1)], y, 1, 0)


def test_aligned_subsegments_random_certificates(tree2):
    tree, _ = tree2
    rng = random.Random(6)
    checked = 0
    for _ in range(400):
        base = random_reduced_word(rng, 2, 26)
        line = tree.geodesic((), base)
        if len(line) < 22:
            continue
        pos, segs = rng.randrange(0, 2), []
        while pos + 4 <= 20:
            nxt = pos + rng.randrange(3, 5)
            segs.append(line.subsegment(pos, nxt))
            pos = nxt + rng.randrange(1, 3)
        if len(segs) < 2:
            continue
        x = (-base[0],)  # one step behind the chain's line
        y = base
        caps = aligned_subsegments(tree, x, segs, y, 1, 0)
        checked += 1
        prev = -1
        for cap in caps:
            assert fellow_traveling(tree, cap.eta, cap.gamma_sub, 0, strict=False)
            start = tree.distance(x, cap.eta.start)
            assert start > prev
            prev = tree.distance(x, cap.eta.end)
    assert checked >= 250


def test_projection_diameter_lipschitz(tree2):
    # projections are exactly 1-Lipschitz in trees and within d(x,y) + 20*0
    tree, _ = tree2
    rng = random.Random(4)
    for _ in range(10000):
        x = random_reduced_word(rng, 2, rng.randrange(0, 10))
        y = random_reduced_word(rng, 2, rng.randrange(0, 10))
        u = random_reduced_word(rng, 2, rng.randrange(0, 10))
        v = random_reduced_word(rng, 2, rng.randrange(0, 10))
        if u == v:
            continue
        geo = tree.geodesic(u, v)
        diam = set_diameter(tree, list(project(tree, x, geo).points) + list(project(tree, y, geo).points))
        assert diam <= tree.distance(x, y)


def test_subsegment_fellow_travel_sixfold_alignment(tree2):
    # pairs fellow-traveling disjoint subsegments of one geodesic are
    # 6K-aligned
    tree, _ = tree2
    rng = random.Random(5)
    checked = 0
    for _ in range(1000):
        base = tree.group.normalize(random_reduced_word(rng, 2, 24))
        line = tree.geodesic(tree.basepoint, base)
        if len(line) < 20:
            continue
        a = rng.randrange(0, 4)
        b = a + rng.randrange(3, 6)
        c = b + rng.randrange(1, 3)
        d = min(c + rng.randrange(3, 6), len(line))
        if d - c < 2:
            continue
        k = 1 + rng.randrange(0, 2)
        kappa1 = _nudge(tree, line.subsegment(a, b), k, rng)
        kappa2 = _nudge(tree, line.subsegment(c, d), k, rng)
        if kappa1 is None or kappa2 is None:
            continue
        checked += 1
        assert check_alignment(tree, [kappa1, kappa2], 6 * k).aligned
    assert checked >= 400


def _nudge(tree, geo, eps, rng):
    """A geodesic K-fellow-traveling the given one (possibly itself)."""
    if eps <= 1 or rng.random() < 0.3:
        return geo
    start, end = geo.start, geo.end
    options = [v for v in tree.neighbors(end) if v not in geo.points]
    if not options:
        return None
    new_end = rng.choice(options)
    cand = tree.geodesic(start, new_end)
    if hausdorff_distance(tree, cand.points, geo.points) < eps and len(cand) >= 1:
        return cand
    return geo
