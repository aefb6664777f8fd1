"""Concatenation inequalities and the hyperbolic-space fact suite."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from genlab import cli, lemmas
from genlab.lemmas import (
    ChainInstance,
    InequalityVerdict,
    SkippedInstance,
    _middle_third_ok,
    appendix_suite_graph,
    appendix_suite_tree,
    central_mix_norm,
    certified_braid_norm,
    chain_weight_bound,
    check_projection_diameter,
    check_projection_near_median,
    check_subsegment_capture,
    check_synchronized_projections,
    random_chain_instance,
    random_quadratic_instance,
    verify_chain_capture,
    verify_distance_sum,
    verify_midpoint_capture,
    verify_quadratic_length,
)
from genlab.alignment import behrstock_dichotomy, check_alignment, project
from genlab.spaces import CayleyTree, OrbitSegment, build_cayley_tree, cycle_graph, measure_delta
from genlab.groups import Braid3


def collinear_instance(n_segments, f2_ledger):
    """Segments on the axis itself: every capture is exact."""
    tree, action = build_cayley_tree(2)
    group = tree.group
    phi = group.element("a")
    length = int(f2_ledger.chain_threshold(2)) + 1
    length += length % 2
    segs = []
    cur = group.identity()
    for _ in range(n_segments):
        segs.append(OrbitSegment(action, cur, phi, length))
        cur = cur * phi**length
    g = group.element("A") * group.element("b")
    h = cur * phi * group.element("b")
    return ChainInstance("collinear", group, action, f2_ledger, Fraction(2), g, h, segs)


def test_midpoint_capture_trivial(f2_ledger):
    inst = collinear_instance(1, f2_ledger)
    v = verify_midpoint_capture(inst)
    assert isinstance(v, InequalityVerdict)
    assert v.passed and v.lhs == 0 and v.rhs > 0


def test_midpoint_capture_requires_single_segment(f2_ledger):
    inst = collinear_instance(2, f2_ledger)
    with pytest.raises(ValueError):
        verify_midpoint_capture(inst)


def test_midpoint_capture_skips_below_threshold(f2_ledger):
    inst = collinear_instance(1, f2_ledger)
    short = OrbitSegment(inst.action, inst.segments[0].base, inst.segments[0].phi, 2)
    inst.segments = [short]
    out = verify_midpoint_capture(inst)
    assert isinstance(out, SkippedInstance)
    assert "threshold" in out.reason


def test_every_lemma_skips_a_short_segment_for_one_reason(f2_ledger, braid_ledger):
    inst = collinear_instance(2, f2_ledger)
    inst.segments = [OrbitSegment(inst.action, seg.base, seg.phi, 2) for seg in inst.segments]
    quad = random_quadratic_instance(random.Random(0), n_segments=3, segment_length=2, ledger=braid_ledger)
    for verify, instance, threshold in [
        (verify_chain_capture, inst, f2_ledger.chain_threshold(2)),
        (verify_distance_sum, inst, f2_ledger.chain_threshold(2)),
        (verify_quadratic_length, quad, braid_ledger.chain_threshold(2)),
    ]:
        out = verify(instance)
        assert isinstance(out, SkippedInstance) and out.report is None
        assert out.reason == f"segment length 2 not above threshold {threshold}"


def test_misaligned_instance_is_skipped_with_certificate(f2_ledger):
    inst = collinear_instance(1, f2_ledger)
    inst.g, inst.h = inst.h, inst.g  # reverse orientation: alignment fails
    out = verify_midpoint_capture(inst)
    assert isinstance(out, SkippedInstance)
    assert out.report is not None and not out.report.aligned


def test_chain_capture_trivial_and_weights(f2_ledger):
    inst = collinear_instance(3, f2_ledger)
    verdicts = verify_chain_capture(inst)
    assert all(v.passed for v in verdicts)
    assert all(v.lhs == 0 for v in verdicts)
    # when the first gap dominates, the bound decays like the weights
    tree, action = build_cayley_tree(2)
    group = tree.group
    phi = group.element("a")
    length = int(f2_ledger.chain_threshold(2)) + 1
    length += length % 2
    segs, cur = [], group.identity()
    for _ in range(4):
        segs.append(OrbitSegment(action, cur, phi, length))
        cur = cur * phi**length
    g = group.element("A" * 600)  # first gap dwarfs the rest
    h = cur * phi
    inst2 = ChainInstance("dominated", group, action, f2_ledger, Fraction(2), g, h, segs)
    bounds = [chain_weight_bound(inst2, i) for i in range(1, 5)]
    assert all(b > nxt for b, nxt in zip(bounds, bounds[1:]))
    assert bounds[0] / bounds[1] > 10  # close to the weight ratio of thirty


def test_distance_sum_trivial(f2_ledger):
    inst = collinear_instance(3, f2_ledger)
    v = verify_distance_sum(inst)
    assert v.passed and v.lhs == 0
    assert v.rhs == Fraction(inst.d(inst.g, inst.h), 2)


def test_random_chain_instances_certify_and_pass(f2_ledger):
    rng = random.Random(7)
    produced = certified = 0
    for _ in range(120):
        n = rng.randrange(1, 5)
        inst = random_chain_instance(rng, n_segments=n, level=2, ledger=f2_ledger)
        produced += 1
        if isinstance(inst.hypothesis_report(), object) and inst.hypothesis_report().aligned:
            certified += 1
        out = verify_chain_capture(inst)
        if isinstance(out, SkippedInstance):
            continue
        assert all(v.passed for v in out)
        vd = verify_distance_sum(inst)
        if not isinstance(vd, SkippedInstance):
            assert vd.passed
    assert certified / produced >= 0.95  # the generator is property-tested


def test_random_midpoint_instances_pass(f2_ledger):
    rng = random.Random(8)
    passed = 0
    for _ in range(120):
        inst = random_chain_instance(rng, n_segments=1, level=2, ledger=f2_ledger)
        out = verify_midpoint_capture(inst)
        if isinstance(out, SkippedInstance):
            continue
        assert out.passed
        passed += 1
    assert passed >= 114


def test_chain_instance_on_longer_axis_word(f2_ledger):
    rng = random.Random(9)
    for _ in range(40):
        inst = random_chain_instance(rng, n_segments=2, level=2, phi_word="ab", ledger=f2_ledger)
        out = verify_chain_capture(inst)
        if isinstance(out, SkippedInstance):
            continue
        assert all(v.passed for v in out)


def test_certified_braid_norm():
    b = Braid3()
    d2phi = b.normalize((1, 2, 1, 1, 1, 2))
    assert certified_braid_norm(b, d2phi, (1, 2, 1, 1, 1, 2)) == 6
    with pytest.raises(ValueError):
        certified_braid_norm(b, d2phi, (1, 2, 1, 1, 1, 2, 1, -1))  # too long
    with pytest.raises(ValueError):
        certified_braid_norm(b, b.normalize((1,)), (2,))  # wrong element
    assert central_mix_norm(b, 5, 3) == 30
    assert central_mix_norm(b, 5, -5) == 30
    assert central_mix_norm(b, 5, 0) == 30
    with pytest.raises(ValueError):
        central_mix_norm(b, 2, 3)


def test_quadratic_trivial_when_few_segments(braid_ledger):
    rng = random.Random(10)
    m = int(braid_ledger.chain_threshold(2)) + 1
    inst = random_quadratic_instance(rng, n_segments=max(1, m - 3), segment_length=m,
                                     ledger=braid_ledger, level=2)
    v = verify_quadratic_length(inst)
    assert isinstance(v, InequalityVerdict)
    assert v.lhs == 0 and v.passed  # N <= M + 1: right side vacuous


def test_quadratic_constructed_with_slack(braid_ledger):
    rng = random.Random(11)
    m = int(braid_ledger.chain_threshold(2)) + 1
    inst = random_quadratic_instance(rng, n_segments=m + 4, segment_length=m,
                                     ledger=braid_ledger, level=2)
    v = verify_quadratic_length(inst)
    assert isinstance(v, InequalityVerdict)
    assert v.passed
    assert v.lhs == braid_ledger.dominating * 9
    assert v.rhs > v.lhs  # recorded slack


def test_quadratic_random_bulk(braid_ledger):
    rng = random.Random(12)
    m = int(braid_ledger.chain_threshold(2)) + 1
    checked = 0
    for _ in range(60):
        n = m + rng.randrange(2, 7)
        inst = random_quadratic_instance(rng, n_segments=n, segment_length=m,
                                         ledger=braid_ledger, level=2)
        v = verify_quadratic_length(inst)
        if isinstance(v, SkippedInstance):
            continue
        assert v.passed
        checked += 1
    assert checked >= 57  # certification rate of the constructive generator


def test_appendix_suite_tree_green():
    rep = appendix_suite_tree(2, 1500, random.Random(13))
    assert rep.all_green(), rep.summary()
    assert rep.trials["projection-near-median"] >= 1400
    rep3 = appendix_suite_tree(3, 500, random.Random(14))
    assert rep3.all_green(), rep3.summary()


def test_appendix_suite_draws_every_letter_of_its_rank(monkeypatch):
    # every draw offers the letters 1..k, then -1..-k, of the rank-k tree,
    # also past z (26)
    offered, drawn = set(), set()
    draw = lemmas.random_reduced_word

    def spy(rng, letters, n, avoid_first=None):
        offered.add(tuple(letters))
        word = draw(rng, letters, n, avoid_first)
        drawn.update(word)
        return word

    monkeypatch.setattr(lemmas, "random_reduced_word", spy)
    rep = appendix_suite_tree(30, 40, random.Random(7))
    assert rep.all_green(), rep.summary()
    assert offered == {(*range(1, 31), *range(-1, -31, -1))}
    assert any(abs(a) > 26 for a in drawn)


@pytest.mark.parametrize("rank, trials, captures, state",
                         [(2, 200, 175, 12825139603781594175), (26, 60, 53, 17252295924521427908)],
                         ids=["f2", "f26"])
def test_appendix_suite_draws_of_ranks_to_26_are_unchanged(rank, trials, captures, state):
    # the JSON, and the generator's next 64 bits after the suite (which
    # fix every draw's count and range), as they were when the suite drew
    # from the alphabet's signed letters
    rng = random.Random(7)
    doc = appendix_suite_tree(rank, trials, rng).to_json()
    assert rng.getrandbits(64) == state
    counts = {"projection-near-median": trials - 1, "synchronized-projections": trials - 1,
              "projection-diameter": trials - 1, "subsegment-capture": captures, "projection-dichotomy": trials - 1}
    assert doc == {"suite": f"appendix-tree-f{rank}", "trials": counts, "passes": counts, "failures": {}}


def test_a_chain_instance_builds_its_report_and_geodesic_once(monkeypatch):
    # the survey's lemma experiment at seed 7: 40 midpoint and 40 chain
    # instances, each chain instance verified by two lemmas
    builds = {"report": 0, "path": 0}
    check, geodesic = lemmas.check_alignment, CayleyTree.geodesic
    report_code = ChainInstance.hypothesis_report.__code__
    path_code = ChainInstance.word_geodesic_elements.__code__

    def count_check(*args):
        builds["report"] += sys._getframe(1).f_code is report_code
        return check(*args)

    def count_geodesic(*args):
        builds["path"] += sys._getframe(1).f_code is path_code
        return geodesic(*args)

    monkeypatch.setattr(lemmas, "check_alignment", count_check)
    monkeypatch.setattr(CayleyTree, "geodesic", count_geodesic)
    exp = cli.validate_config({"experiments": [{"kind": "verify-lemmas", "name": "lemmas", "trials": 400}]})[0]
    outcome = cli._run_one(exp, 7, None)
    assert builds == {"report": 80, "path": 80}
    digests = {rel: hashlib.sha256(text.encode()).hexdigest() for rel, text, _ in outcome.outputs}
    assert digests == {"lemmas.json": "2071c4739d7ecbd4c9fc4ebd99d4975f0754c0b0a5e8374b6d7918e4f6469824",
                       "lemmas.txt": "4b7a4e3df8cb7d1194b41dfc7a5d21befe5eb1e82737021a59f14f294d346b15"}


def test_lemma_digests_at_seed_13_and_rank_3():
    # the lemma experiment's outputs at a second seed and rank
    exp = cli.validate_config({"experiments": [{"kind": "verify-lemmas", "name": "lemmas", "trials": 120,
                                                "rank": 3}]})[0]
    outcome = cli._run_one(exp, 13, None)
    digests = {rel: hashlib.sha256(text.encode()).hexdigest() for rel, text, _ in outcome.outputs}
    assert digests == {"lemmas.json": "d9bb698bdfe23bbb8989e5f4126dbbd1cbdac7db23a64d1ae0d49d28756ee9b7",
                       "lemmas.txt": "aa5c3925892d79e2ad2e2dfafab28e2720318d44f014854d59f33f28c333f357"}


class _ScanView:
    """A tree's metric and geodesics without ``is_tree``: every projection
    scans the geodesic's points, as on a graph."""

    is_tree = False

    def __init__(self, tree):
        self.distance, self.geodesic = tree.distance, tree.geodesic


def _generic_dichotomy_sides(view, x, g1, g2, level):
    try:
        branch = behrstock_dichotomy(view, x, g1, g2, level, 0)
    except AssertionError:
        return False, False
    return {"both": (True, True), "first": (True, False), "second": (False, True)}[branch]


_GENERIC_CHECKS = {
    "_tree_near_median": lambda view, x, y, z, geo: check_projection_near_median(view, x, y, z, 0, geo),
    "_tree_synchronized": lambda view, x, gamma, eta: check_synchronized_projections(view, x, gamma, eta, 0),
    "_tree_projection_diameter": lambda view, x, y, geo: check_projection_diameter(view, x, y, geo, 0),
    "_tree_subsegment_capture": lambda view, x, y, geo: check_subsegment_capture(view, x, y, geo, 0),
    "_tree_dichotomy_sides": _generic_dichotomy_sides,
}


@pytest.mark.parametrize("rank, trials, seed", [(2, 300, 1), (2, 300, 2), (2, 300, 3), (3, 200, 4),
                                                (3, 200, 5), (26, 60, 6), (26, 60, 7)])
def test_tree_suite_decides_as_the_generic_checks(rank, trials, seed, monkeypatch):
    # every verdict of the tree suite, and each pair's level, equals the
    # generic check's on the same points through a view that scans
    calls = []
    for name in (*_GENERIC_CHECKS, "_aligned_tree_pair"):
        def spy(*args, _check=getattr(lemmas, name), _name=name):
            out = _check(*args)
            calls.append((_name, args, out))
            return out

        monkeypatch.setattr(lemmas, name, spy)
    rep = appendix_suite_tree(rank, trials, random.Random(seed))
    assert rep.all_green(), rep.summary()
    for name, args, out in calls:
        view = _ScanView(args[0])
        if name == "_aligned_tree_pair":
            g1, g2, level = out
            assert level == check_alignment(view, [g1, g2], 1).worst() + 1
            continue
        assert _GENERIC_CHECKS[name](view, *args[1:]) == out, name
    counts = {name: sum(c[0] == name and c[2] is not None for c in calls) for name, _, _ in calls}
    assert counts == {"_tree_near_median": rep.trials["projection-near-median"],
                      "_tree_synchronized": rep.trials["synchronized-projections"],
                      "_tree_projection_diameter": rep.trials["projection-diameter"],
                      "_tree_subsegment_capture": rep.trials["subsegment-capture"],
                      "_tree_dichotomy_sides": rep.trials["projection-dichotomy"],
                      "_aligned_tree_pair": rep.trials["projection-dichotomy"]}


def test_appendix_suite_six_cycle_exhaustive():
    g6 = cycle_graph(6)
    delta = measure_delta(g6)
    assert delta == Fraction(1, 2)
    rep = appendix_suite_graph(g6, delta)
    assert rep.all_green(), rep.summary()
    assert rep.trials["projection-near-median"] == 6 * 6 * 5 + 6 * 6  # ordered pairs x geodesic choices
    assert "suite" in rep.to_json()
    assert "ok" in rep.summary()


def _reference_middle_third(space, segment, p_point) -> bool:
    proj = segment.projected
    length = Fraction(len(proj))
    return all(length / 3 <= i <= 2 * length / 3 for i in project(space, p_point, proj).indices)


def test_middle_third_matches_the_fraction_reference(f2_ledger):
    # the integer test n <= 3i <= 2n against the rational thirds, on the
    # tree's median projection and on the generic scan, over segment lengths that
    # put a third on a vertex and ones that do not
    class Slow:
        is_tree = False

        def __init__(self, tree):
            self.distance = tree.distance

    rng = random.Random(13)
    outcomes = []
    for n in range(1, 13):
        inst = random_chain_instance(rng, n_segments=rng.randrange(1, 4), ledger=f2_ledger, segment_length=n)
        slow = Slow(inst.space)
        for seg in inst.segments:
            for p in inst.word_geodesic_elements():
                pt = inst.action.proj(p)
                want = _reference_middle_third(inst.space, seg, pt)
                assert _middle_third_ok(inst.space, seg, pt) == want
                assert _middle_third_ok(slow, seg, pt) == want
                outcomes.append(want)
    assert any(outcomes) and not all(outcomes)


def test_chain_instance_reads_the_word_metric_from_the_tree(f2_ledger):
    # on the standard-basis Cayley tree the tree distance of two keys is
    # the reduced length of u^-1 v, and the tree geodesic from g to h is g
    # times the prefixes of the reduced word of g^-1 h
    rng = random.Random(17)
    for _ in range(20):
        inst = random_chain_instance(rng, n_segments=2, ledger=f2_ledger)
        walk = [inst.g]
        for a in inst.group.key_word((inst.g.inverse() * inst.h).key):
            walk.append(walk[-1] * inst.group.element((a,)))
        assert inst.word_geodesic_elements() == walk
        pts = walk + inst.midpoints()
        for u in pts:
            v = pts[rng.randrange(len(pts))]
            assert inst.d(u, v) == len((u.inverse() * v).key)
