"""Contraction profiles, Lipschitz constants, discreteness censuses."""

import random
from fractions import Fraction

import pytest

from genlab import contraction
from genlab.alignment import gromov_product, project, set_diameter
from genlab.balls import BallIndex, BudgetExceeded, enumerate_ball, word_distance
from genlab.contraction import (
    LinkageChoice,
    NonLoxodromicError,
    _distance_to_segment,
    _twice_max_product,
    lipschitz_projection_bound,
    measure_scaled_ledger,
    require_loxodromic,
    segment_projection,
    select_linkage,
    strong_contraction_check,
    weak_contraction_profile,
    wpd_census,
)
from genlab.groups import GeneratingSet, GroupElement, make_model
from genlab.spaces import Geodesic, OrbitSegment, build_cayley_tree, cycle_graph, grid_graph

from conftest import random_reduced_word


def test_tree_geodesics_strongly_contracting(tree2):
    tree, _ = tree2
    geo = tree.geodesic(tree.basepoint, tree.group.normalize((1, 1, 1, 1)))
    xs = tree.ball(tree.group.normalize((1, 1)), 4)
    res = strong_contraction_check(tree, geo, 1, xs)
    assert res.passes
    assert res.least_passing == 0  # tree projections of far balls are points
    assert res.worst == 0


def test_degenerate_geodesic_vacuously_contracting(tree2):
    tree, _ = tree2
    geo = Geodesic((tree.basepoint,))
    res = strong_contraction_check(tree, geo, 1, tree.ball(tree.basepoint, 3))
    assert res.passes


def test_grid_diagonal_fails_small_levels():
    grid = grid_graph(10, 10)
    diag = grid.geodesic(0, 99)
    xs = [v for v in grid.vertices() if v % 3 == 0]
    res = strong_contraction_check(grid, diag, 1, xs)
    assert not res.passes
    assert res.worst >= 4


@pytest.mark.parametrize("which", ["cayley2", "bass-serre", "cycle9", "grid4x5"])
def test_strong_contraction_spans_match_the_point_sets(which, tree2, bass_serre):
    # per off-geodesic x, the projected ball's index span against the
    # diameter of its projected point set, by pairwise distances
    space = {"cayley2": tree2[0], "bass-serre": bass_serre[0], "cycle9": cycle_graph(9),
             "grid4x5": grid_graph(4, 5)}[which]
    points = space.ball(space.basepoint, 3) if space.is_tree else list(space.vertices())
    rng = random.Random(5)
    pairs = rng.sample([(u, v) for u in points for v in points if u != v], 40)
    diameters = []
    for u, v in pairs:
        geo = space.geodesic(u, v)
        for x in space.ball(u, 2):
            if x in geo.points:
                continue
            dist = min(space.distance(x, p) for p in geo.points)
            pts = {p for y in space.ball(x, dist) for p in project(space, y, geo).points}
            diameters.append(set_diameter(space, list(pts)))
            res = strong_contraction_check(space, geo, 1, [x])
            assert (res.tested, res.worst) == (1, diameters[-1]), (u, v, x)
    assert len(diameters) > 40
    assert space.is_tree == (max(diameters) == 0)  # the graphs' spans are not all 0


def test_weak_contraction_profile_constant_on_tree(tree2, f2):
    tree, action = tree2
    gens = f2.standard_gens()
    rng = random.Random(0)
    profile = weak_contraction_profile(
        f2, gens, action, f2.element("a"), 6,
        sample_norms=[4, 6, 8, 10], rng=rng, samples_per_norm=6,
    )
    assert profile.bound == 0  # half-radius balls project to single points
    by_norm = {}
    for s in profile.samples:
        by_norm.setdefault(len(s.g_key), []).append(s.projection_diameter)
    for norms, diams in by_norm.items():
        assert max(diams) == profile.bound


def test_weak_contraction_zero_radius_sample(tree2, f2):
    tree, action = tree2
    seg = OrbitSegment(action, f2.identity(), f2.element("a"), 4)
    # a point on the segment has distance 0, ball radius 0, diameter 0
    from genlab.alignment import project

    pset = project(tree, action.proj(seg.points[1]), seg.projected)
    assert pset.distance == 0


def test_weak_contraction_profile_braid(braid, bass_serre):
    _, _, action = bass_serre
    gens = braid.standard_gens()
    rng = random.Random(1)
    profile = weak_contraction_profile(
        braid, gens, action, braid.element("aB"), 4,
        sample_norms=[3, 4], rng=rng, samples_per_norm=4, r_max=24,
    )
    assert profile.bound < 10**6  # finite over all samples
    assert len(profile.samples) > 0


@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(3, 2)])
def test_weak_contraction_profile_matches_per_sample_balls(braid, bass_serre, factor):
    # each sample is drawn from its requested sphere, and its diameter is
    # that of a fresh ball of radius floor(factor * distance) around it
    _, _, action = bass_serre
    gens, phi, norms = braid.standard_gens(), braid.element("aB"), [3, 4]
    profile = weak_contraction_profile(
        braid, gens, action, phi, 2, sample_norms=norms, rng=random.Random(7), samples_per_norm=6, factor=factor,
    )
    segment = OrbitSegment(action, braid.identity(), phi, 2)
    spheres = enumerate_ball(braid, gens, max(norms), keep_elements=True).elements
    assert len(profile.samples) == 12
    for i, sample in enumerate(profile.samples):
        assert sample.g_key in spheres[norms[i // 6]]
        assert sample.ball_radius == int(factor * sample.distance_to_segment)
        g = GroupElement(braid, sample.g_key)
        pts = set()
        for sphere in enumerate_ball(braid, gens, sample.ball_radius, keep_elements=True).elements:
            for uk in sphere:
                pts.update(segment_projection(action, segment, g * GroupElement(braid, uk)))
        assert sample.projection_diameter == set_diameter(action.space, list(pts))


def test_require_loxodromic(braid, bass_serre, f2, tree2):
    _, _, action = bass_serre
    with pytest.raises(NonLoxodromicError):
        require_loxodromic(action, braid.element("ababab"))  # central
    with pytest.raises(NonLoxodromicError):
        require_loxodromic(action, braid.element("ab"))  # elliptic
    require_loxodromic(action, braid.element("aB"))
    _, act2 = tree2
    require_loxodromic(act2, f2.element("ab"))


def test_lipschitz_bounds(tree2, f2):
    tree, action = tree2
    gens = f2.standard_gens()
    seg = OrbitSegment(action, f2.identity(), f2.element("a"), 5)
    ball = enumerate_ball(f2, gens, 4, keep_elements=True)
    keys = [k for sphere in ball.elements for k in sphere]
    rep = lipschitz_projection_bound(f2, gens, action, seg, keys[:60])
    assert 0 < rep.recovery_constant <= 2
    assert 0 < rep.proj_constant <= 2
    # identity is on the segment: contributes ratio 0, keeps constants sane
    rep_small = lipschitz_projection_bound(f2, gens, action, seg, [f2.identity_key()])
    assert rep_small.proj_constant == 0


def test_lipschitz_stability_under_doubling(tree2, f2):
    tree, action = tree2
    gens = f2.standard_gens()
    seg = OrbitSegment(action, f2.identity(), f2.element("a"), 5)
    ball = enumerate_ball(f2, gens, 4, keep_elements=True)
    keys = [k for sphere in ball.elements for k in sphere]
    rng = random.Random(2)
    sample = [keys[rng.randrange(len(keys))] for _ in range(80)]
    k1_half = lipschitz_projection_bound(f2, gens, action, seg, sample[:40]).recovery_constant
    k1_full = lipschitz_projection_bound(f2, gens, action, seg, sample).recovery_constant
    assert k1_half <= k1_full <= k1_half * Fraction(11, 10) + Fraction(1, 2)


def test_wpd_census_examples(tree2, f2):
    tree, action = tree2
    gens = f2.standard_gens()
    phi = f2.element("a")
    zero = wpd_census(f2, gens, action, phi, 6, 0, 4)
    assert zero.count == 0
    cen = wpd_census(f2, gens, action, phi, 6, 2, 8, linkage_bound=3)
    assert cen.count == 3  # id, a, a^-1 coarsely stabilize the axis segment
    assert cen.stabilized
    assert not cen.fact_exceptions
    # counts nondecreasing in the closeness parameter
    cen3 = wpd_census(f2, gens, action, phi, 6, 3, 8)
    assert cen3.count >= cen.count


def test_wpd_census_central_direction_unbounded(braid, bass_serre):
    _, _, action = bass_serre
    gens = braid.standard_gens()
    d2 = braid.element("ababab")
    # witnesses are the powers of the half-twist cube root, norm 3|k|
    counts = [wpd_census(braid, gens, action, d2, 2, 1, r).count for r in (3, 6, 9)]
    assert counts == [3, 5, 7]
    assert not wpd_census(braid, gens, action, d2, 2, 1, 9).stabilized


def test_select_linkage_examples(tree3, f3):
    _, action = tree3
    gens = f3.standard_gens()
    phi = f3.element("c")
    link = select_linkage(f3, gens, action, phi, f3.element("ab"))
    assert link.s.is_identity()
    assert link.achieved == 0
    link2 = select_linkage(f3, gens, action, phi, phi**3)
    assert not link2.s.is_identity()
    assert link2.achieved <= 1
    link3 = select_linkage(f3, gens, action, phi, f3.identity())
    assert link3.achieved <= 1


def _reference_linkage(model, gens, action, phi, g, horizon):
    """select_linkage's choice from rational Gromov products, each read from
    three distances: the oracle of its integer fast path."""
    space, x0 = action.space, action.space.basepoint
    candidates = [model.identity()] + list(gens.elements)

    def side_max(w, step, hz):
        pt = action.proj(w * g)
        return max(gromov_product(space, action.proj(step**i), pt, x0) for i in range(1, hz + 1))

    inv = phi.inverse()
    best_s = min(candidates, key=lambda s: (side_max(s, phi, horizon), s.key))
    best_t = min(candidates, key=lambda t: (side_max(t, inv, horizon), t.key))
    return best_s, best_t, max(side_max(best_s, phi, 2 * horizon), side_max(best_t, inv, 2 * horizon))


@pytest.mark.parametrize("model_id, phi_word, words", [
    ("free:2", "a", None),
    ("free:2", "a", ["a"]),  # too few letters to leave the axis: products above 0
    ("free:2", "a", ["a", "b", "ab"]),
    ("zz23", "xy", None),
    ("braid3", "aB", None),
    ("braid3", "aB", ["a", "b", "aba"]),
], ids=["f2-a", "f2-only-a", "f2-ab-a", "zz23-xy", "braid3-aB", "braid3-aba-aB"])
def test_select_linkage_matches_the_gromov_product_reference(model_id, phi_word, words):
    # the integer maxima 2 (p, pt)_x0 choose the same letters, by the same
    # key tie-break, and give the same achieved product as the rationals
    model = make_model(model_id)
    gens = model.standard_gens() if words is None else GeneratingSet(model, words)
    action, phi = model.tree_action(), model.element(phi_word)
    ball = enumerate_ball(model, model.standard_gens(), 4, keep_elements=True)
    keys = [k for sphere in ball.elements for k in sphere]
    rng = random.Random(21)
    for horizon in (1, 3, 12):
        for key in [keys[rng.randrange(len(keys))] for _ in range(15)]:
            g = GroupElement(model, key)
            link = select_linkage(model, gens, action, phi, g, horizon=horizon)
            s, t, value = _reference_linkage(model, gens, action, phi, g, horizon)
            assert (link.s.key, link.t.key, link.achieved) == (s.key, t.key, value)


@pytest.mark.parametrize("model_id", ["free:2", "zz23", "braid3"])
def test_twice_max_product_is_twice_the_largest_gromov_product(model_id):
    # side_max's integer against the rational products it replaces, on
    # random axis prefixes and points of each model's tree
    model = make_model(model_id)
    action = model.tree_action()
    space, x0 = action.space, action.space.basepoint
    keys = [k for sphere in enumerate_ball(model, model.standard_gens(), 5, keep_elements=True).elements
            for k in sphere]
    rng = random.Random(8)
    values = set()
    for _ in range(300):
        points = [action.proj(GroupElement(model, keys[rng.randrange(len(keys))])) for _ in range(rng.randint(1, 6))]
        pt = action.proj(GroupElement(model, keys[rng.randrange(len(keys))]))
        axis = [(p, space.distance(p, x0)) for p in points]
        want = max(gromov_product(space, p, pt, x0) for p in points)
        assert _twice_max_product(space, x0, axis, pt) == 2 * want
        values.add(want)
    assert len(values) > 3


def test_lipschitz_bound_searches_past_a_truncated_index(braid, bass_serre, monkeypatch):
    # a truncated index bounds no norm beyond it: each query outside it is
    # a word_distance search, and the constants are those of no index
    gens, action = braid.standard_gens(), bass_serre[2]
    segment = OrbitSegment(action, braid.identity(), braid.element("aB"), 4)
    ball = enumerate_ball(braid, gens, 4, keep_elements=True)
    keys = [k for sphere in ball.elements for k in sphere]
    rng = random.Random(4)
    sample = [keys[rng.randrange(len(keys))] for _ in range(10)]
    index = BallIndex(braid, gens, 8, node_budget=150)
    assert index.truncated
    searched = []

    def counted(model, gens, g, h, *rest):
        searched.append(model.mul_keys(model.inverse_key(g.key), h.key))
        return word_distance(model, gens, g, h, *rest)

    monkeypatch.setattr(contraction, "word_distance", counted)
    with_index = lipschitz_projection_bound(braid, gens, action, segment, sample, ball=index)
    outside = list(searched)
    searched.clear()
    assert lipschitz_projection_bound(braid, gens, action, segment, sample) == with_index
    assert outside and all(key not in index for key in outside)
    assert len(outside) < len(searched)  # the queries inside the index were read from it


def test_measure_scaled_ledger_records_profile(tree2, f2):
    _, action = tree2
    rng = random.Random(3)
    led = measure_scaled_ledger(f2, f2.standard_gens(), action, f2.element("a"), rng, segment_length=3)
    assert led.profile == "scaled"
    assert led.axis_step == 1
    assert led.contraction_bound == 0
    assert led.dominating >= 1
    assert led.segment_length == 3


def test_ledger_node_budget_binds_every_search(braid, bass_serre):
    # braid3 has no closed-form norm, so the ledger's distances are searches
    def ledger(budget):
        return measure_scaled_ledger(braid, braid.standard_gens(), bass_serre[2], braid.element("aB"),
                                     random.Random(0), segment_length=2, node_budget=budget).to_json()

    with pytest.raises(BudgetExceeded, match="sample ball"):
        ledger(100)  # #B(5) > 100
    with pytest.raises(BudgetExceeded, match="distance search"):
        ledger(300)
    assert ledger(400) == ledger(None)


def _handing(monkeypatch, index_of):
    """Make the ledger hand ``lipschitz_projection_bound`` ``index_of`` of
    the index it would hand it (None where it hands none)."""

    def handed(model, gens, action, segment, keys, node_budget=None, ball=None):
        return lipschitz_projection_bound(model, gens, action, segment, keys, node_budget=node_budget,
                                          ball=index_of(ball))

    monkeypatch.setattr(contraction, "lipschitz_projection_bound", handed)


def _radius_recorder(radii: list):
    """An ``index_of`` for :func:`_handing` that hands on the same index and
    records its radius."""

    def recorded(ball):
        if ball is not None:
            radii.append(ball.radius)
        return ball

    return recorded


def _built_indices(monkeypatch) -> list:
    """The indices the ledger builds, recorded as it builds them."""
    built = []

    def recorded(model, gens, radius, budget):
        built.append(BallIndex(model, gens, radius, budget))
        return built[-1]

    monkeypatch.setattr(contraction, "BallIndex", recorded)
    return built


@pytest.mark.parametrize("words", [["a", "b"], ["a", "b", "aba"]], ids=["ab", "ab-aba"])
def test_ledger_reads_the_same_distances_from_its_ball(braid, bass_serre, words, monkeypatch):
    # braid3 has no closed-form norm: the ledger reads its Lipschitz
    # distances from its index grown to twice the sample radius, and must
    # measure what a search per distance measures.  Both kinds of search
    # count: the bidirectional word_distance and the search beyond a
    # complete index.
    searches = []
    norm_beyond = BallIndex.norm_beyond

    def counted(*args):
        searches.append("word_distance")
        return word_distance(*args)

    def counted_beyond(index, *args):
        searches.append("norm_beyond")
        return norm_beyond(index, *args)

    def ledger():
        searches.clear()
        return measure_scaled_ledger(braid, GeneratingSet(braid, words), bass_serre[2], braid.element("aB"),
                                     random.Random(5), segment_length=2, sample_radius=4).to_json()

    monkeypatch.setattr(contraction, "word_distance", counted)
    monkeypatch.setattr(BallIndex, "norm_beyond", counted_beyond)
    radii = []
    _handing(monkeypatch, _radius_recorder(radii))
    with_ball, searched_with_ball = ledger(), len(searches)
    assert radii == [8]
    # a radius-0 index holds the identity alone, so every other distance is a search
    _handing(monkeypatch, lambda ball: BallIndex(ball.model, ball.gens, 0, ball.node_budget))
    assert ledger() == with_ball
    assert len(searches) > searched_with_ball + 300
    # with no index every distance is a bidirectional word_distance search,
    # the oracle for both the index and the search beyond it
    _handing(monkeypatch, lambda ball: None)
    assert ledger() == with_ball
    assert len(searches) > searched_with_ball + 300 and set(searches) == {"word_distance"}


@pytest.mark.parametrize("model_id, words, indexed", [
    ("braid3", None, [10]),
    ("free:2", None, []),  # closed-form norms, no searches to replace
    ("free:2", ["a", "b", "ab"], []),  # #B(5) = 2,047 > 2 * 396 queries: B(10) could outgrow the searches
], ids=["braid3", "f2", "f2-ab"])
def test_ledger_indexes_its_pairs_only_where_it_pays(model_id, words, indexed, monkeypatch):
    # the radius of the index the ledger hands lipschitz_projection_bound;
    # where it hands none, its index stays at the sample radius
    radii, built = [], _built_indices(monkeypatch)
    _handing(monkeypatch, _radius_recorder(radii))
    model = make_model(model_id)
    gens = model.standard_gens() if words is None else GeneratingSet(model, words)
    phi = model.element("aB" if model_id == "braid3" else "a")
    measure_scaled_ledger(model, gens, model.tree_action(), phi, random.Random(0), sample_radius=5)
    assert radii == indexed
    assert [index.radius for index in built] == (indexed or [5])


def test_ledger_enumerates_its_sample_ball_once(braid, bass_serre, monkeypatch):
    # the ledger builds one index, and the weak contraction profile samples
    # from it, grown to the sample radius
    radii, built = [], _built_indices(monkeypatch)

    def sampled(*args, ball, **kwargs):
        radii.append(ball.radius)
        assert ball is built[0]
        return weak_contraction_profile(*args, ball=ball, **kwargs)

    monkeypatch.setattr(contraction, "weak_contraction_profile", sampled)
    measure_scaled_ledger(braid, braid.standard_gens(), bass_serre[2], braid.element("aB"), random.Random(0),
                          segment_length=2, sample_radius=4)
    assert radii == [4] and len(built) == 1


@pytest.mark.parametrize("words", [["a", "b"], ["a", "b", "aba"]], ids=["ab", "ab-aba"])
def test_ledger_axis_word_norm_is_the_word_norm(braid, bass_serre, words):
    # |aB|_S = 2 under both sets, while the key word of aB has 24 letters
    phi = braid.element("aB")
    assert len(phi.word) == 24
    gens = GeneratingSet(braid, words)
    ledger = measure_scaled_ledger(braid, gens, bass_serre[2], phi, random.Random(0), segment_length=2, sample_radius=3)
    assert ledger.axis_word_norm == 2


@pytest.mark.parametrize("which", ["braid3", "braid3-aba", "f2-ab"])
def test_ledger_measurements_match_their_references(which, braid, bass_serre, f2, tree2):
    # lipschitz_projection_bound reads d_S(g, gamma) as the least of the
    # d_S(g, h) it computes, searched or read from a ball, and select_linkage
    # builds each phi^(+-i) x0 once; both must equal the searches and powers
    # they replace
    if which.startswith("braid3"):
        gens = braid.standard_gens() if which == "braid3" else GeneratingSet(braid, ["a", "b", "aba"])
        model, action, phi = braid, bass_serre[2], braid.element("aB")
    else:
        model, gens, action, phi = f2, GeneratingSet(f2, ["a", "b", "ab"]), tree2[1], f2.element("a")
    space, x0 = action.space, action.space.basepoint
    segment = OrbitSegment(action, model.identity(), phi, 2)
    keys = [k for sphere in enumerate_ball(model, gens, 3, keep_elements=True).elements for k in sphere]
    keys = keys[:: max(1, len(keys) // 20)]
    k1 = Fraction(0)
    for key in keys:
        g = GroupElement(model, key)
        d_seg = _distance_to_segment(model, gens, g, segment, 64)
        pg = segment_projection(action, segment, g)
        for h, point in zip(segment.points, segment.orbit_points):
            d = word_distance(model, gens, g, h, 64)
            k1 = max(k1, Fraction(d, d_seg + set_diameter(space, list(pg) + [point]) + 1))
    assert k1 > 0 and lipschitz_projection_bound(model, gens, action, segment, keys).recovery_constant == k1
    # B(4) holds some of the pairs' g^-1 h and not others
    ball = BallIndex(model, gens, 4)
    assert lipschitz_projection_bound(model, gens, action, segment, keys, ball=ball).recovery_constant == k1

    def side_max(w, g, sign, horizon):
        return max(gromov_product(space, action.proj(phi ** (sign * i)), action.proj(w * g), x0)
                   for i in range(1, horizon + 1))

    candidates = [model.identity()] + list(gens.elements)
    for key in keys:
        g = GroupElement(model, key)
        s = min(candidates, key=lambda c: (side_max(c, g, +1, 8), c.key))
        t = min(candidates, key=lambda c: (side_max(c, g, -1, 8), c.key))
        achieved = max(side_max(s, g, +1, 16), side_max(t, g, -1, 16))
        assert select_linkage(model, gens, action, phi, g, horizon=8) == LinkageChoice(s, t, achieved)
