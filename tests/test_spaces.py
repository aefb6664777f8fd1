"""Tree models, actions, orbit segments, hyperbolicity measurement, ledger."""

import random
from fractions import Fraction

import pytest

from genlab.groups import Braid3
from genlab.ledger import ConstantLedger
from genlab.spaces import (
    BassSerreTree,
    FiniteGraph,
    Geodesic,
    OrbitSegment,
    axis_basepoint,
    build_bass_serre_tree,
    build_cayley_tree,
    cycle_graph,
    grid_graph,
    load_edge_list,
    measure_delta,
)

from conftest import random_reduced_word, random_word


def test_cayley_tree_examples(tree2, f2):
    tree, action = tree2
    assert tree.distance(action.proj(f2.element("a")), action.proj(f2.element("b"))) == 2
    assert tree.distance(tree.basepoint, tree.basepoint) == 0
    geo = tree.geodesic(tree.basepoint, f2.normalize((1, 2)))
    assert f2.normalize((1,)) in geo.points
    assert geo.points[0] == tree.basepoint and geo.points[-1] == f2.normalize((1, 2))


def test_tree_geodesics_unique_and_reversible(tree2):
    tree, _ = tree2
    rng = random.Random(0)
    for _ in range(300):
        p = random_reduced_word(rng, 2, rng.randrange(0, 9))
        q = random_reduced_word(rng, 2, rng.randrange(0, 9))
        geo = tree.geodesic(p, q)
        assert len(geo) == tree.distance(p, q)
        assert geo.reverse().points == tree.geodesic(q, p).points
        for u, v in zip(geo.points, geo.points[1:]):
            assert tree.distance(u, v) == 1


def _isometric_spaces():
    cayley, _ = build_cayley_tree(2)
    bass_serre, _, _ = build_bass_serre_tree()
    return [
        (cayley, cayley.ball(cayley.basepoint, 3)),
        (bass_serre, bass_serre.ball(bass_serre.basepoint, 5)),
        (cycle_graph(7), range(7)),
        (cycle_graph(8), range(8)),
        (grid_graph(3, 4), range(12)),
    ]


@pytest.mark.parametrize(
    "space,points", _isometric_spaces(), ids=["cayley2", "bass-serre", "cycle7", "cycle8", "grid3x4"]
)
def test_every_geodesic_is_isometric(space, points):
    # d(p_i, p_j) = |i - j| along every geodesic a space returns, between
    # every pair of the given points
    points = list(points)
    for p in points:
        for q in points:
            geo = space.geodesic(p, q)
            assert geo.start == p and geo.end == q and len(geo) == space.distance(p, q)
            pts = geo.points
            for i, u in enumerate(pts):
                for j in range(i, len(pts)):
                    assert space.distance(u, pts[j]) == j - i


def test_cayley_tree_rank_validation():
    with pytest.raises(ValueError):
        build_cayley_tree(1)


def test_bass_serre_delta_and_classification(bass_serre, braid):
    tree, quot_action, braid_action = bass_serre
    assert tree.delta == 0
    phi = braid.element("aB")  # trace 3, hyperbolic on the tree
    x0 = tree.basepoint
    d1 = tree.distance(x0, braid_action.proj(phi))
    d2 = tree.distance(x0, braid_action.proj(phi**2))
    assert d1 > 0 and d2 == 2 * d1
    m = braid.sl2_image(phi.word)
    assert abs(m[0] + m[3]) > 2
    elliptic = braid.element("ab")  # trace 1, finite order in the quotient
    displacements = {tree.distance(x0, braid_action.proj(elliptic**n)) for n in range(1, 7)}
    assert max(displacements) <= 2
    m2 = braid.sl2_image(elliptic.word)
    assert abs(m2[0] + m2[3]) < 2


def test_bass_serre_biregular(bass_serre):
    tree, _, _ = bass_serre
    for v in tree.ball(tree.basepoint, 4):
        degree = len(set(tree.neighbors(v)))
        assert degree == (2 if v[0] == 0 else 3)
        for w in tree.neighbors(v):
            assert tree.distance(v, w) == 1


def test_bass_serre_metric_matches_bfs():
    # a ball of a tree is convex, so a BFS inside the radius-6 ball gives
    # every distance and the unique geodesic of each pair of its vertices
    tree = BassSerreTree()
    ball = tree.ball(tree.basepoint, 6)
    inside = set(ball)
    for p in ball:
        parent, frontier = {p: None}, [p]
        while frontier:
            nxt = []
            for u in frontier:
                for v in tree.neighbors(u):
                    if v in inside and v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        for q in ball:
            path = [q]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            assert tree.distance(p, q) == len(path) - 1
            assert tree.geodesic(p, q).points == tuple(reversed(path))


def _root_chain(v):
    # the vertices from v to the root (0, b""): drop the name's last
    # syllable and flip the kind; (1, b"") steps to (0, b"")
    chain = [v]
    while chain[-1] != (0, b""):
        kind, name = chain[-1]
        chain.append((1 - kind, name[:-1]) if name else (0, b""))
    return chain


def _random_name(rng, length):
    # alternating x-syllables (0) and y-syllables (1 or 2), from either kind
    out, x_next = [], rng.random() < 0.5
    for _ in range(length):
        out.append(0 if x_next else rng.choice((1, 2)))
        x_next = not x_next
    return bytes(out)


def test_bass_serre_names_measure_like_root_chains():
    # the closed form on names against a walk of both root chains, on long
    # names of both root kinds, with shared prefixes and the two roots
    tree = BassSerreTree()
    rng = random.Random(5)
    verts = [(0, b""), (1, b"")]  # the two roots
    for _ in range(40):
        name = _random_name(rng, rng.randrange(40, 61))
        verts.append(tree.vertex(rng.randrange(2), name))
        cut = rng.randrange(len(name) + 1)  # a shared prefix, then a fresh tail
        tail = _random_name(rng, rng.randrange(0, 20))
        verts.append(tree.vertex(rng.randrange(2), name[:cut] + tail))
    assert {(1, b"") in _root_chain(v) for v in verts[2:]} == {True, False}  # both root kinds
    shared = 0
    for p in verts:
        cp = _root_chain(p)
        for q in verts:
            cq = _root_chain(q)
            common = 0
            while common < min(len(cp), len(cq)) and cp[-1 - common] == cq[-1 - common]:
                common += 1
            shared += common > 2
            path = cp[: len(cp) - common + 1] + cq[: len(cq) - common][::-1]
            assert tree.distance(p, q) == len(path) - 1
            assert tree.geodesic(p, q).points == tuple(path)
    assert shared > len(verts)


def test_axis_basepoint(bass_serre, zz23):
    tree, quot_action, _ = bass_serre
    phi = zz23.element("xy")
    v = axis_basepoint(tree, phi.key)
    d1 = tree.distance(v, tree.act_syllables(phi.key, v))
    d2 = tree.distance(v, tree.act_syllables(zz23.mul_keys(phi.key, phi.key), v))
    assert d1 > 0 and d2 == 2 * d1
    with pytest.raises(ValueError):
        axis_basepoint(tree, zz23.element("y").key)


def test_actions_are_isometric(tree2, bass_serre, f2, zz23, braid):
    rng = random.Random(1)
    tree, action = tree2
    for _ in range(1000):
        g = f2.element(random_reduced_word(rng, 2, rng.randrange(0, 6)))
        p = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 7)))
        q = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 7)))
        assert tree.distance(action.act(g, p), action.act(g, q)) == tree.distance(p, q)
    bst, quot_action, braid_action = bass_serre
    pts = bst.ball(bst.basepoint, 5)
    for _ in range(1000):
        g = braid.element(random_word(rng, 2, rng.randrange(0, 7)))
        p, q = rng.choice(pts), rng.choice(pts)
        assert bst.distance(braid_action.act(g, p), braid_action.act(g, q)) == bst.distance(p, q)


def test_action_composition(tree2, f2):
    tree, action = tree2
    rng = random.Random(2)
    for _ in range(300):
        g = f2.element(random_reduced_word(rng, 2, rng.randrange(0, 5)))
        h = f2.element(random_reduced_word(rng, 2, rng.randrange(0, 5)))
        p = f2.normalize(random_reduced_word(rng, 2, rng.randrange(0, 6)))
        assert action.act(g * h, p) == action.act(g, action.act(h, p))
        assert action.act(f2.identity(), p) == p


def test_orbit_segment_axial_length(tree2, bass_serre, f2, braid):
    tree, action = tree2
    phi = f2.element("ab")
    seg = OrbitSegment(action, f2.element("ba"), phi, 5)
    assert len(seg.projected) == 5 * 2  # n * axis step
    for i, pt in enumerate(seg.points):
        assert pt.key == (seg.base * phi**i).key
    # every orbit point is on (here: within C0 = 1 of) the projected geodesic
    for pt in seg.orbit_points:
        assert min(tree.distance(pt, q) for q in seg.projected.points) == 0
    bst, _, braid_action = bass_serre
    segb = OrbitSegment(braid_action, braid.identity(), braid.element("aB"), 3)
    assert len(segb.projected) == 3 * 4


def test_orbit_segment_near_projection(bass_serre, braid):
    # with a base moving the start off the axis the orbit points still run
    # within the generator displacement of the projected geodesic
    bst, _, braid_action = bass_serre
    c0 = max(bst.distance(bst.basepoint, braid_action.proj(s)) for s in braid.standard_gens())
    seg = OrbitSegment(braid_action, braid.element("a"), braid.element("aB"), 4)
    for pt in seg.orbit_points:
        assert min(bst.distance(pt, q) for q in seg.projected.points) <= c0


def test_measure_delta_values():
    assert measure_delta(cycle_graph(6)) == Fraction(1, 2)
    assert measure_delta(FiniteGraph(2, [(0, 1)], name="edge")) == 0
    assert measure_delta(FiniteGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], name="path")) == 0
    assert measure_delta(grid_graph(3, 3)) > 0


def test_measure_delta_guard():
    with pytest.raises(ValueError):
        measure_delta(cycle_graph(12), max_vertices=10)


def test_finite_graph_validation():
    with pytest.raises(ValueError) as err:
        FiniteGraph(4, [(0, 1), (2, 3)])
    assert "disconnected" in str(err.value)
    with pytest.raises(ValueError):
        FiniteGraph(2, [(0, 2)])


def test_load_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n# comment\n\n")
    g = load_edge_list(path.read_text().splitlines(), name="square")
    assert g.n == 4
    assert g.distance(0, 2) == 2
    with pytest.raises(ValueError):
        load_edge_list(["0 1 2"])


def test_all_geodesics_cycle():
    g = cycle_graph(6)
    geos = g.all_geodesics(0, 3)
    assert len(geos) == 2  # both ways around
    assert {geo.points for geo in geos} == {(0, 1, 2, 3), (0, 5, 4, 3)}


def test_geodesic_subsegment_invariants():
    geo = Geodesic(((), (1,), (1, 2), (1, 2, 1)))
    sub = geo.subsegment(1, 2)
    assert sub.points == ((1,), (1, 2))
    assert len(geo.subsegment(2, 2)) == 0
    with pytest.raises(ValueError):
        geo.subsegment(2, 5)
    with pytest.raises(ValueError):
        Geodesic(())


def test_ledger_faithful_formulas_bit_exact():
    led = ConstantLedger.faithful(
        delta=Fraction(3, 2), gen_displacement=2, axis_step=3, axis_word_norm=5,
        linkage_bound=1, contraction_bound=4, proj_lipschitz=2, recovery_lipschitz=7,
    )
    assert led.dominating == 10**4 * 7
    assert led.segment_length == (10**7 * (7 * 10**4) ** 5) // 3 + (1 if (10**7 * (7 * 10**4) ** 5) % 3 else 0)
    assert led.capture_threshold(10) == Fraction(2 * 10**6, 3) * (led.dominating**5 + 10)
    assert led.chain_threshold(10) == Fraction(3 * 10**6, 3) * (led.dominating**5 + 10)
    checks = led.derived_checks()
    assert all(checks.values())


_LEDGER_INPUTS = dict(delta=Fraction(3, 2), gen_displacement=2, axis_step=3, axis_word_norm=5,
                      linkage_bound=1, contraction_bound=4, proj_lipschitz=2, recovery_lipschitz=7)
_INPUTS_JSON = {"delta": "3/2", "gen_displacement": "2", "axis_step": "3", "axis_word_norm": "5",
                "linkage_bound": "1", "contraction_bound": "4", "proj_lipschitz": "2", "recovery_lipschitz": "7"}


def test_ledger_json_is_pinned():
    checks = {"dominating_covers_inputs": True, "dominating_has_faithful_margin": True,
              "dominating_square_margin": True, "segment_covers_chain_threshold": True}
    assert ConstantLedger.faithful(**_LEDGER_INPUTS).to_json() == {
        "profile": "faithful", **_INPUTS_JSON, "dominating": "70000",
        "segment_length": 5602333333333333333333333333334, "coeff": "1000000", "power": 5,
        "window": ["1/4", "3/10"], "cut_window": ["27/100", "7/25"], "derived_checks": checks,
    }
    no_margin = {**checks, "dominating_has_faithful_margin": False, "dominating_square_margin": False}
    assert ConstantLedger.scaled(**_LEDGER_INPUTS).to_json() == {
        "profile": "scaled", **_INPUTS_JSON, "dominating": "7", "segment_length": 24, "coeff": "1", "power": 1,
        "window": ["1/4", "3/10"], "cut_window": ["1/4", "3/10"],
        "derived_checks": {**no_margin, "segment_covers_chain_threshold": False},
    }
    set_entries = ConstantLedger.scaled(**_LEDGER_INPUTS, dominating=9, coeff=2, power=2,
                                        window=(Fraction(1, 5), "1/3"), cut_window=(0.25, Fraction(2, 5)))
    assert set_entries.to_json() == {
        "profile": "scaled", **_INPUTS_JSON, "dominating": "9", "segment_length": 540, "coeff": "2", "power": 2,
        "window": ["1/5", "1/3"], "cut_window": ["1/4", "2/5"], "derived_checks": no_margin,
    }


def test_ledger_scaled_records_checks():
    led = ConstantLedger.scaled(0, 1, 1, 1, 0, 0, 1, 1, segment_length=3)
    checks = led.derived_checks()
    assert checks["dominating_covers_inputs"]
    assert not checks["dominating_has_faithful_margin"]
    doc = led.to_json()
    assert doc["profile"] == "scaled"
    assert doc["derived_checks"] == checks
