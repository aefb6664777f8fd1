"""Classification, threshold counts, thick sets, replacement maps, curves."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.alignment import check_alignment
from genlab.balls import BallIndex, enumerate_ball, free_ball_count, word_distance
from genlab.census import (
    LinkageFailure,
    SegmentTable,
    _norm,
    a_thick_certify,
    a_thick_search,
    classify,
    count_cyclically_reduced,
    count_translation_below,
    double_replacement,
    exponential_negligibility_probe,
    fiber_census,
    free_group_threshold_count,
    genericity_experiment,
    replacement_map,
    single_letter_replacement,
    single_replacement_fibers,
)
from genlab.contraction import measure_scaled_ledger
from genlab.groups import Braid3, FiniteSample, FreeGroup, GeneratingSet, GroupElement
from genlab.ledger import ConstantLedger
from genlab.spaces import GroupAction, OrbitSegment, build_cayley_tree, cycle_graph

from conftest import random_reduced_word, random_word


def test_classify_worked_examples(braid):
    assert classify(braid, None, braid.element("a")).verdict == "reducible"
    aB = classify(braid, None, braid.element("aB"))
    assert aB.verdict == "pseudoAnosov" and aB.evidence["trace"] == 3
    ab = classify(braid, None, braid.element("ab"))
    assert ab.verdict == "periodic" and ab.evidence["trace"] == 1
    assert classify(braid, None, braid.identity()).verdict == "periodic"
    assert classify(braid, None, braid.element("ababab")).verdict == "periodic"


def test_classify_conjugation_and_center_invariant(braid):
    rng = random.Random(0)
    for _ in range(1000):
        g = braid.element(random_word(rng, 2, rng.randrange(0, 9)))
        h = braid.element(random_word(rng, 2, rng.randrange(0, 7)))
        conj = h * g * h.inverse()
        base = classify(braid, None, g).verdict
        assert classify(braid, None, conj).verdict == base
        assert classify(braid, None, g.inverse()).verdict == base
        assert classify(braid, None, g * braid.element("ababab")).verdict == base


def test_classify_tree_models(f2, zz23):
    assert classify(f2, None, f2.element("abA")).verdict == "contracting-loxodromic"
    assert classify(f2, None, f2.identity()).verdict == "non-loxodromic"
    assert classify(zz23, None, zz23.element("xy")).verdict == "contracting-loxodromic"
    assert classify(zz23, None, zz23.element("yxY")).verdict == "non-loxodromic"


def test_classify_unsupported():
    from genlab.groups import FiniteSample

    with pytest.raises(ValueError):
        classify(FiniteSample.cyclic(4), None, FiniteSample.cyclic(4).identity())


def test_counting_oracles_match_enumeration(f2):
    for model in (FreeGroup(1), f2, FreeGroup(3)):
        gens = model.standard_gens()
        census = enumerate_ball(model, gens, 7, keep_elements=True)
        for t in range(8):
            brute = sum(1 for k in census.elements[t] if model.translation_length_exact(k) == t)
            assert count_cyclically_reduced(model.rank, t) == brute
        for n, T in [(5, 0), (5, 2), (6, 3), (7, 1), (7, 6)]:
            brute = sum(
                1
                for r in range(n + 1)
                for k in census.elements[r]
                if model.translation_length_exact(k) <= T
            )
            assert count_translation_below(model.rank, n, T) == brute


def test_threshold_inequalities_k3_all_pairs():
    for n in range(1, 13):
        for T in range(0, n):
            tc = free_group_threshold_count(3, n, T)
            assert tc.linear_holds, (n, T)
            assert tc.binomial_holds, (n, T)
            assert tc.ball == free_ball_count(3, n)
    # threshold at n or above makes the factor trivial
    tc = free_group_threshold_count(3, 6, 6)
    assert tc.linear_factor == 1


def test_single_letter_replacement_properties(f3):
    w = f3.alphabet.parse("acA")
    new = single_letter_replacement(f3, w, 1)
    assert new == f3.alphabet.parse("bcA")
    assert f3.translation_length_exact(f3.normalize(new)) == 3
    # replaced words stay reduced and become loxodromic with length n - 2i
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(4, 11)
        word = random_reduced_word(rng, 3, n)
        i = rng.randrange(1, n // 2)
        new = single_letter_replacement(f3, word, i)
        assert new is not None
        assert f3.key_word(f3.normalize(new)) == new
        assert f3.translation_length_exact(f3.normalize(new)) >= n - 2 * i


def test_single_replacement_fibers_bounded():
    for n, T in [(6, 0), (6, 2), (8, 2)]:
        rep = single_replacement_fibers(3, n, T)
        assert rep.max_fiber <= 6, (n, T, rep.max_fiber)
        assert sum(rep.fibers.values()) == rep.domain


def test_a_thick_certify_cases(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    g = zz23.element("xy" * 5)
    # a window-placed axis segment certifies
    base = phi**2
    seg = OrbitSegment(action, base, phi, zz23_ledger.segment_length)
    cert = a_thick_certify(_search_table(zz23, gens, action, phi, zz23_ledger), g, seg)
    assert cert.certified
    # distance window violation: segment at half the norm
    far = OrbitSegment(action, phi**4, phi, zz23_ledger.segment_length)
    cert2 = a_thick_certify(_search_table(zz23, gens, action, phi, zz23_ledger), g, far)
    assert not cert2.certified and cert2.reason == "distance-window"
    # reversed orientation: alignment rejected
    flipped = OrbitSegment(action, base * phi**zz23_ledger.segment_length, phi.inverse(), zz23_ledger.segment_length)
    cert3 = a_thick_certify(_search_table(zz23, gens, action, phi.inverse(), zz23_ledger), g, flipped)
    assert not cert3.certified and cert3.reason == "alignment"
    # wrong segment length is a usage error
    with pytest.raises(ValueError):
        a_thick_certify(_search_table(zz23, gens, action, phi, zz23_ledger), g,
                        OrbitSegment(action, base, phi, zz23_ledger.segment_length + 1))


def test_a_thick_search(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    table = _search_table(zz23, gens, action, phi, zz23_ledger)
    assert a_thick_search(table, zz23.element("xy" * 5)).found
    short = a_thick_search(table, zz23.element("y"))
    assert not short.found and short.degenerate
    # an element heading straight away from the axis: not found
    off = zz23.element("yx" * 5)
    res = a_thick_search(table, off)
    assert isinstance(res.found, bool)


def test_replacement_map_window_and_block(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    g = zz23.element("yxyxyyxyxy")
    n = zz23.exact_length(g.key)
    lo = math.ceil(zz23_ledger.cut_window[0] * n)
    table = _search_table(zz23, gens, action, phi, zz23_ledger)
    rep = replacement_map(table, g, lo)
    assert rep.report.aligned
    slack = 2 * zz23_ledger.segment_length + 2
    assert rep.norm_out <= rep.norm_in + slack
    with pytest.raises(ValueError):
        replacement_map(table, g, n)  # out of window


def test_replacement_map_free_group(f2, tree2, f2_ledger):
    _, action = tree2
    gens = f2.standard_gens()
    phi = f2.element("a")
    g = f2.element("babbabbabbab")
    n = len(g.key)
    i = math.ceil(f2_ledger.cut_window[0] * n)
    rep = replacement_map(_search_table(f2, gens, action, phi, f2_ledger), g, i)
    assert rep.report.aligned
    # the spliced element keeps the untouched prefix and suffix
    out = rep.element.key
    assert out[:i] == g.key[:i]


def test_fiber_census_consistency(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    report = fiber_census(zz23, gens, action, phi, zz23_ledger, 10)
    assert report.domain_size == sum(
        size * mult for size, mult in report.histogram.items()
    )
    assert report.image_size == sum(report.histogram.values())
    assert report.max_fiber >= math.ceil(report.domain_size / max(report.image_size, 1))
    assert report.max_fiber <= 8 * math.sqrt(10)


def test_fiber_census_empty_domain(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    # at n = 4 the excised block does not fit: the report is trivial
    report = fiber_census(zz23, gens, action, zz23.element("xy"), zz23_ledger, 4)
    assert report.domain_size == 0 and report.max_fiber == 0
    assert report.histogram == {}


def test_double_replacement(zz23, bass_serre, zz23_ledger):
    from genlab.ledger import ConstantLedger

    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    led = ConstantLedger.scaled(
        0, zz23_ledger.gen_displacement, zz23_ledger.axis_step, zz23_ledger.axis_word_norm,
        zz23_ledger.linkage_bound, zz23_ledger.contraction_bound,
        zz23_ledger.proj_lipschitz, zz23_ledger.recovery_lipschitz,
        dominating=Fraction(1), segment_length=1,
        cut_window=(Fraction(1, 10), Fraction(7, 10)),
    )
    g = zz23.element("xy" * 10 + "yx" * 2)
    n = zz23.exact_length(g.key)
    block = led.block_length()
    gap = 2 * (block - 2) + 3
    i = math.ceil(led.cut_window[0] * n)
    j = i + gap + 1
    table = _search_table(zz23, gens, action, phi, led)
    dr = double_replacement(table, g, i, j)
    # the first map is a literal prefix factor of the second
    s, t, s2, t2 = dr.linkages
    tail = s2 * phi ** (2 * led.segment_length) * t2 * _suffix(zz23, gens, g, j + block)
    assert (dr.first * tail).key == dr.second.key
    with pytest.raises(ValueError):
        double_replacement(table, g, i, i + gap)


def test_double_replacement_free_group_length_12(f2, tree2):
    from genlab.ledger import ConstantLedger

    _, action = tree2
    gens = f2.standard_gens()
    phi = f2.element("a")
    led = ConstantLedger.scaled(
        0, 1, 1, 1, 0, 0, 1, 1, dominating=Fraction(1), segment_length=1,
        cut_window=(Fraction(1, 10), Fraction(7, 10)),
    )
    g = f2.element("babbababbbab")
    assert len(g.key) == 12
    block = led.block_length()
    gap = 2 * (block - 2) + 3
    i = 2
    j = i + gap + 1
    dr = double_replacement(_search_table(f2, gens, action, phi, led), g, i, j)
    assert dr.report.aligned
    # both excised blocks replaced by linked powers of the axis element
    assert dr.second.key[:i] == g.key[:i]
    s_el, t_el, s2, t2 = dr.linkages
    tail = s2 * phi ** (2 * led.segment_length) * t2 * _suffix(f2, gens, g, j + block)
    assert (dr.first * tail).key == dr.second.key


def _failing_linkages(which, zz23, bass_serre, segment_length):
    """(table, model, action, phi) at alignment level 0, which no linkage
    meets: zz23 on its tree, or Z/N rotating an N-cycle (not a tree, so
    every tail is a full pair_diameters scan and tied reports can differ)."""
    if which == "bass-serre":
        model, action, phi = zz23, bass_serre[1], zz23.element("xy")
    else:
        model = FiniteSample.cyclic(24 if segment_length == 2 else 40)
        n = len(model.table)
        action = GroupAction(model, cycle_graph(n), lambda g, p: (g.key + p) % n)
        phi = model.element("t")
    # alignment level = linkage_bound + 8 delta + 1 = 0
    led = ConstantLedger.scaled(0, 1, 1, 1, -1, 0, 1, 1, dominating=Fraction(1), segment_length=segment_length,
                                cut_window=(Fraction(1, 10), Fraction(7, 10)))
    return _search_table(model, model.standard_gens(), action, phi, led), model, action, phi


def _first_least_worst(reports):
    best = min(reports, key=lambda r: r.worst())  # min keeps the first of equal keys
    tied = {repr(r.pair_diameters) for r in reports if r.worst() == best.worst()}
    return best, len(tied)


@pytest.mark.parametrize("which, word, i", [("bass-serre", "xyxyyxyxyxy", 3), ("cycle", "t" * 18, 2)],
                         ids=["bass-serre", "cycle"])
def test_linkage_failure_reports_the_first_least_worst_pair(which, word, i, zz23, bass_serre):
    table, model, action, phi = _failing_linkages(which, zz23, bass_serre, 2)
    space, gens, level, length = action.space, table.gens, table.level, table.ledger.segment_length
    g = model.element(word)
    with pytest.raises(LinkageFailure) as failure:
        replacement_map(table, g, i)
    w, v = _prefix(model, gens, g, i), _suffix(model, gens, g, i + table.block)
    reports = [
        check_alignment(space, [space.basepoint, OrbitSegment(action, w * s, phi, length).projected,
                                action.proj(w * s * phi**length * t * v)], level)
        for s in table.candidates for t in table.candidates
    ]
    best, distinct_ties = _first_least_worst(reports)
    assert failure.value.best_report == best and not best.aligned
    assert reports[0].worst() > best.worst()
    if which == "cycle":  # tied pairs differ, so the first is the one reported
        assert distinct_ties > 1


@pytest.mark.parametrize("which, word, i, j", [("bass-serre", "xy" * 10 + "yx" * 2, 3, 9), ("cycle", "t" * 28, 2, 8)],
                         ids=["bass-serre", "cycle"])
def test_double_linkage_failure_reports_the_first_least_worst_linkage(which, word, i, j, zz23, bass_serre):
    table, model, action, phi = _failing_linkages(which, zz23, bass_serre, 1)
    space, gens, level, block = action.space, table.gens, table.level, table.block
    g = model.element(word)
    with pytest.raises(LinkageFailure) as failure:
        double_replacement(table, g, i, j)
    w, v = _prefix(model, gens, g, i), _suffix(model, gens, g, j + block)
    w2 = _prefix(model, gens, g, i + block).inverse() * _prefix(model, gens, g, j)
    reports = []
    for s in table.candidates:
        seg1 = OrbitSegment(action, w * s, phi, 1)
        for t in table.candidates:
            head = w * s * phi * t * w2
            for s2 in table.candidates:
                seg2 = OrbitSegment(action, head * s2, phi, 2)
                for t2 in table.candidates:
                    out = head * s2 * phi**2 * t2 * v
                    seq = [space.basepoint, seg1.projected, seg2.projected, action.proj(out)]
                    reports.append(check_alignment(space, seq, level))
    best, distinct_ties = _first_least_worst(reports)
    assert failure.value.best_report == best and not best.aligned
    assert reports[0].worst() > best.worst()
    if which == "cycle":
        assert distinct_ties > 1


@pytest.mark.parametrize("which", ["zz23", "braid3-aba", "f2-ab"])
def test_cut_keys_are_the_spelled_prefixes_and_suffixes(which, zz23, bass_serre, braid, f2, tree2, zz23_ledger):
    # closed-form (zz23), walked (radius-4 index) and searched (radius-0
    # index) geodesics all cut to the keys of their spelled S-words
    if which == "zz23":
        model, gens, action, phi = zz23, zz23.standard_gens(), bass_serre[1], zz23.element("xy")
    elif which == "braid3-aba":
        model, gens, action, phi = braid, GeneratingSet(braid, ["a", "b", "aba"]), bass_serre[2], braid.element("aB")
    else:
        model, gens, action, phi = f2, GeneratingSet(f2, ["a", "b", "ab"]), tree2[1], f2.element("a")
    ball = BallIndex(model, gens, 4)
    sphere = [GroupElement(model, k) for k in ball.spheres[4]]
    for table in (SegmentTable(ball, action, phi, zz23_ledger), _search_table(model, gens, action, phi, zz23_ledger)):
        for g in sphere:
            letters = ball.geodesic(g).s_letters
            prefix, suffix = table.cuts(g)
            assert len(prefix) == len(suffix) == len(letters) + 1 == 5
            for i in range(len(letters) + 1):
                assert prefix[i] == model.element(gens.spell(letters[:i])).key
                assert suffix[i] == model.element(gens.spell(letters[i:])).key
            assert table.cuts(g)[0] is prefix  # the memo answers a repeat
        # a second element replaces the memo; the first is cut afresh
        g, h = sphere[0], sphere[-1]
        first = table.cuts(g)
        second = table.cuts(h)
        assert second[0][-1] == h.key and second[1][0] == h.key
        again = table.cuts(g)
        assert again[0] is not first[0] and again == first


def _search_table(model, gens, action, phi, ledger):
    # a radius-0 ball: every geodesic and norm query is a new search
    return SegmentTable(BallIndex(model, gens, 0), action, phi, ledger)


def _suffix(model, gens, g, start):
    from genlab.balls import geodesic_representative

    geo = geodesic_representative(model, gens, g)
    return model.element(gens.spell(geo.s_letters[start:]))


def _prefix(model, gens, g, stop):
    from genlab.balls import geodesic_representative

    geo = geodesic_representative(model, gens, g)
    return model.element(gens.spell(geo.s_letters[:stop]))


def test_genericity_braid_curve(braid):
    gens = braid.standard_gens()
    curve = genericity_experiment(braid, None, gens, 8)
    assert curve.ratios[0] == 1  # the identity coset is periodic
    assert curve.mode == "braid-cosets"
    assert all(0 <= q <= 1 for q in curve.ratios)
    assert curve.ratios[8] <= curve.ratios[6] <= curve.ratios[4]
    assert curve.fitted_exponent < 0
    csv = curve.to_csv()
    assert csv.startswith("radius,special_count,total,ratio")
    assert len(curve.plot_data().strip().split("\n")) == 9


def test_genericity_free_curve(f2, tree2):
    _, action = tree2
    curve = genericity_experiment(f2, action, f2.standard_gens(), 7,
                                  tree_threshold=0, word_threshold=Fraction(0))
    assert curve.mode == "tree"
    assert curve.special_counts == [1] * 8  # only the identity is slow
    assert all(b < a for a, b in zip(curve.ratios, curve.ratios[1:]))


def test_genericity_zz23_curve(zz23, bass_serre):
    _, action, _ = bass_serre
    curve = genericity_experiment(zz23, action, zz23.standard_gens(), 8,
                                  tree_threshold=0, word_threshold=Fraction(0))
    # parity effects make consecutive ratios wobble; compare two steps apart
    for r in range(4, 9):
        assert curve.ratios[r] <= curve.ratios[r - 2]


def test_genericity_unsupported():
    from genlab.groups import FiniteSample

    c4 = FiniteSample.cyclic(4)
    with pytest.raises(ValueError):
        genericity_experiment(c4, None, c4.standard_gens(), 3)


def test_negligibility_probe(f2):
    gens = f2.standard_gens()
    probe = exponential_negligibility_probe(f2, gens, [2, 8, 10])
    assert probe.points[0].ratio == 0  # windows too small to act at n = 2
    assert probe.points[1].ratio > probe.points[2].ratio > 0
    doc = probe.to_json()
    assert doc["points"][0]["n"] == 2


def _brute_probe_pairs(model, gens, n_values):
    """(shell, decomposable) by a word_distance search for every core."""
    ident = model.identity()
    census = enumerate_ball(model, gens, max(n_values), keep_elements=True)
    out = {}
    for n in n_values:
        inner = math.floor(Fraction(99, 100) * n)
        h_cap = math.floor(Fraction(31, 100) * n)
        core_cap = math.floor(Fraction(57, 100) * n)
        hs = [model.element(model.key_word(k)) for r in range(h_cap + 1) for k in census.elements[r]]
        shell = decomposable = 0
        for r in range(inner + 1, n + 1):
            for key in census.elements[r]:
                shell += 1
                g = model.element(model.key_word(key))
                decomposable += any(
                    word_distance(model, gens, ident, h * g * h.inverse(), core_cap) is not None for h in hs
                )
        out[n] = (shell, decomposable)
    return out


@pytest.mark.parametrize("gens_words", [["a", "b", "ab"], None], ids=["f2-ab", "braid3"])
def test_negligibility_probe_uses_the_word_metric(f2, braid, gens_words):
    # F2 over {a, b, ab} has no closed-form length (|abab|_S = 2, not 4);
    # braid3 has none at all and used to report a silent ratio of 0
    model, gens = (f2, GeneratingSet(f2, gens_words)) if gens_words else (braid, braid.standard_gens())
    probe = exponential_negligibility_probe(model, gens, [4, 5])
    got = {p.n: (p.shell_size, p.decomposable) for p in probe.points}
    assert got == _brute_probe_pairs(model, gens, [4, 5])
    assert got[4][1] > 0


@pytest.mark.parametrize("which", ["f2", "zz23"])
def test_segment_table_matches_check_alignment(which, f2, tree2, f2_ledger, zz23, bass_serre, zz23_ledger):
    # every report the table assembles from its stored (basepoint, segment)
    # pair equals check_alignment on the whole sequence, and its least norms
    # equal a word_distance search over the segment's points
    if which == "f2":
        model, action, ledger, phi, n = f2, tree2[1], f2_ledger, f2.element("a"), 8
    else:
        model, action, ledger, phi, n = zz23, bass_serre[1], zz23_ledger, zz23.element("xy"), 10
    gens = model.standard_gens()
    ball = BallIndex(model, gens, n)
    table = SegmentTable(ball, action, phi, ledger)
    space, ident = action.space, model.identity()
    power = phi**ledger.segment_length
    candidates = [ident] + list(gens.elements)
    levels = (ledger.dominating, ledger.alignment_level(), Fraction(3, 2), Fraction(7, 3))
    compared = aligned = windowed = 0
    for key in ball.spheres[n][:: max(1, len(ball.spheres[n]) // 25)]:
        g = GroupElement(model, key)
        geo = ball.geodesic(g)
        for i in range(1, n):
            w = model.element(gens.spell(geo.s_letters[:i]))
            v = model.element(gens.spell(geo.s_letters[i + 1 :]))
            for s in candidates:
                entry = table.entry(w * s)
                seg = OrbitSegment(action, w * s, phi, ledger.segment_length)
                assert entry.segment.orbit_points == seg.orbit_points
                cap = n // 2
                direct = [word_distance(model, gens, ident, h, cap) for h in seg.points]
                assert table.least_norm(entry, cap) == min((d for d in direct if d is not None), default=None)
                # the thick-window test against the rational window
                lo, hi = ledger.window[0] * n, ledger.window[1] * n
                direct = [word_distance(model, gens, ident, h, int(hi) + 1) for h in seg.points]
                best = min((d for d in direct if d is not None), default=None)
                cert = a_thick_certify(table, g, entry.segment, norm=n)
                assert cert.distance == best
                assert (cert.reason != "distance-window") == (best is not None and lo <= best <= hi)
                windowed += cert.reason != "distance-window"
                points = [action.proj(g)] + [action.proj(w * s * power * t * v) for t in candidates]
                for p in points:
                    for level in levels:
                        got = table.report(entry, p, level, math.ceil(level))
                        want = check_alignment(space, [space.basepoint, seg.projected, p], level)
                        assert got == want
                        compared += 1
                        aligned += want.aligned
    assert compared > 1000 and 0 < aligned < compared
    assert windowed > 0


@pytest.mark.parametrize("which", ["free2", "zz23"])
def test_closed_form_census_matches_search_on_reordered_generators(which, f2, tree2, zz23, bass_serre, zz23_ledger):
    # the standard generators listed in another order: a closed-form
    # geodesic must name each letter by its generator's index in the set
    if which == "free2":
        model, words, action, phi, n = f2, ["b", "a"], tree2[1], f2.element("a"), 7
        ledger = measure_scaled_ledger(model, model.standard_gens(), action, phi, random.Random(7), segment_length=2,
                                       window=(Fraction(1, 4), Fraction(2, 5)), cut_window=(Fraction(1, 4), Fraction(2, 5)))
    else:
        model, words, action, phi, n, ledger = zz23, ["y", "x"], bass_serre[1], zz23.element("xy"), 10, zz23_ledger
    closed, searched = (fiber_census(model, GeneratingSet(model, words, standard=flag), action, phi, ledger, n)
                        for flag in (True, False))
    assert closed.to_json() == searched.to_json()
    assert closed.thick_skipped > 0


def test_census_queries_agree_on_radius_0_and_radius_n_tables(zz23, bass_serre, zz23_ledger):
    _, action, _ = bass_serre
    gens = zz23.standard_gens()
    phi = zz23.element("xy")
    n = 10
    ball = BallIndex(zz23, gens, n)
    table = SegmentTable(ball, action, phi, zz23_ledger)
    lo = math.ceil(zz23_ledger.cut_window[0] * n)
    for key in ball.spheres[n][::5]:
        g = GroupElement(zz23, key)
        shared = a_thick_search(table, g)
        alone = a_thick_search(_search_table(zz23, gens, action, phi, zz23_ledger), g)
        assert shared.found == alone.found
        if shared.found:
            assert shared.certificate == alone.certificate
            assert shared.witness.base == alone.witness.base
            continue
        shared_rep = replacement_map(table, g, lo)
        alone_rep = replacement_map(_search_table(zz23, gens, action, phi, zz23_ledger), g, lo)
        assert shared_rep == alone_rep


@functools.lru_cache(maxsize=None)
def _norm_oracles(which):
    # the radius-6 index, and each key's sphere in an independent BFS
    model, words = (Braid3(), ["a", "b", "aba"]) if which == "braid3" else (FreeGroup(2), ["a", "b", "ab"])
    gens = GeneratingSet(model, words)
    spheres = enumerate_ball(model, gens, 6, keep_elements=True).elements
    return model, gens, BallIndex(model, gens, 6), {k: r for r, sphere in enumerate(spheres) for k in sphere}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_norm_agrees_on_radius_0_and_radius_6_balls(data):
    # the radius-0 index is the search path: it must agree with the ball
    which = data.draw(st.sampled_from(("braid3", "f2-ab")), label="model")
    model, gens, ball, sphere_of = _norm_oracles(which)
    w = data.draw(st.lists(st.sampled_from(model.alphabet.signed_letters()), max_size=6).map(tuple), label="w")
    g = model.element(w)
    assert _norm(BallIndex(model, gens, 0), g) == _norm(ball, g) == sphere_of[g.key]
