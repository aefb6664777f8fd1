"""Classification, threshold counts, thick sets, replacement maps, curves."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.alignment import as_geodesic, assemble_report, check_alignment, pair_diameters
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
    exponential_negligibility_probe,
    fiber_census,
    free_group_threshold_count,
    genericity_experiment,
    replacement_map,
    single_letter_replacement,
    single_replacement_fibers,
)
from genlab.contraction import measure_scaled_ledger
from genlab.groups import Braid3, FiniteSample, FreeGroup, GeneratingSet, GroupElement, make_model
from genlab.ledger import ConstantLedger
from genlab.spaces import GroupAction, OrbitSegment, build_cayley_tree, cycle_graph

from conftest import CountingModel, random_generating_sets, random_reduced_word, random_word, unpruned_bfs


def test_classify_worked_examples(braid):
    assert classify(braid, braid.element("a")).verdict == "reducible"
    aB = classify(braid, braid.element("aB"))
    assert aB.verdict == "pseudoAnosov" and aB.evidence["trace"] == 3
    ab = classify(braid, braid.element("ab"))
    assert ab.verdict == "periodic" and ab.evidence["trace"] == 1
    assert classify(braid, braid.identity()).verdict == "periodic"
    assert classify(braid, braid.element("ababab")).verdict == "periodic"


def test_classify_conjugation_and_center_invariant(braid):
    rng = random.Random(0)
    for _ in range(1000):
        g = braid.element(random_word(rng, 2, rng.randrange(0, 9)))
        h = braid.element(random_word(rng, 2, rng.randrange(0, 7)))
        conj = h * g * h.inverse()
        base = classify(braid, g).verdict
        assert classify(braid, conj).verdict == base
        assert classify(braid, g.inverse()).verdict == base
        assert classify(braid, g * braid.element("ababab")).verdict == base


def test_classify_tree_models(f2, zz23):
    assert classify(f2, f2.element("abA")).verdict == "contracting-loxodromic"
    assert classify(f2, f2.identity()).verdict == "non-loxodromic"
    assert classify(zz23, zz23.element("xy")).verdict == "contracting-loxodromic"
    assert classify(zz23, zz23.element("yxY")).verdict == "non-loxodromic"


def test_classify_unsupported():
    from genlab.groups import FiniteSample

    with pytest.raises(ValueError):
        classify(FiniteSample.cyclic(4), FiniteSample.cyclic(4).identity())


def test_counting_oracles_match_enumeration(f2):
    for model in (FreeGroup(1), f2, FreeGroup(3)):
        gens = model.standard_gens()
        census = enumerate_ball(model, gens, 7, keep_elements=True)
        # sphere r -> how many of its keys have each translation length
        taus = [Counter(map(model.translation_length_exact, sphere)) for sphere in census.elements]
        for t in range(8):
            assert count_cyclically_reduced(model.rank, t) == taus[t][t]
        for n in range(8):
            for T in range(n + 2):
                brute = sum(c for sphere in taus[: n + 1] for tau, c in sphere.items() if tau <= T)
                assert count_translation_below(model.rank, n, T) == brute, (model.rank, n, T)


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
    norm_in, norm_out = _norm(table.ball, g), _norm(table.ball, rep.element)
    assert norm_in == n and norm_out <= norm_in + slack
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
    report = fiber_census(_search_table(zz23, gens, action, phi, zz23_ledger), 10)
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
    report = fiber_census(_search_table(zz23, gens, action, zz23.element("xy"), zz23_ledger), 4)
    assert report.domain_size == 0 and report.max_fiber == 0
    assert report.histogram == {}


def _failing_linkages(zz23, bass_serre, segment_length):
    """(table, model, action, phi) at alignment level 0, which no linkage
    meets: zz23 on its tree."""
    model, action, phi = zz23, bass_serre[1], zz23.element("xy")
    # alignment level = linkage_bound + 8 delta + 1 = 0
    led = ConstantLedger.scaled(0, 1, 1, 1, -1, 0, 1, 1, dominating=Fraction(1), segment_length=segment_length,
                                cut_window=(Fraction(1, 10), Fraction(7, 10)))
    return _search_table(model, model.standard_gens(), action, phi, led), model, action, phi


def _first_least_worst(reports):
    return min(reports, key=lambda r: r.worst())  # min keeps the first of equal keys


@pytest.mark.parametrize("which, word, i", [("bass-serre", "xyxyyxyxyxy", 3)], ids=["bass-serre"])
def test_linkage_failure_reports_the_first_least_worst_pair(which, word, i, zz23, bass_serre):
    table, model, action, phi = _failing_linkages(zz23, bass_serre, 2)
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
    best = _first_least_worst(reports)
    assert failure.value.best_report == best and not best.aligned
    assert reports[0].worst() > best.worst()


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
    # a radius-0 ball: every geodesic and norm query is a new search, until
    # a census grows the ball, as it does a fibers experiment's
    return SegmentTable(BallIndex(model, gens, 0), action, phi, ledger)


def _fresh_table(table):
    # a table with empty memos over another table's ball and constants
    return SegmentTable(table.ball, table.action, table.phi, table.ledger)


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


@pytest.mark.parametrize(
    "which, n_values, decomposed_at",
    [("f2-ab", [4, 5, 6], 4), ("braid3", [4, 5], 4), ("zz23", [4, 5, 6, 7], 7)],
    ids=["f2-ab", "braid3", "zz23"],
)
def test_negligibility_probe_uses_the_word_metric(f2, braid, zz23, which, n_values, decomposed_at):
    # F2 over {a, b, ab} has no closed-form length (|abab|_S = 2, not 4);
    # braid3 has none at all and used to report a silent ratio of 0; zz23
    # first decomposes a shell element at n = 7
    model, gens = {
        "f2-ab": (f2, GeneratingSet(f2, ["a", "b", "ab"])),
        "braid3": (braid, braid.standard_gens()),
        "zz23": (zz23, zz23.standard_gens()),
    }[which]
    probe = exponential_negligibility_probe(model, gens, n_values)
    got = {p.n: (p.shell_size, p.decomposable) for p in probe.points}
    assert got == _brute_probe_pairs(model, gens, n_values)
    assert got[decomposed_at][1] > 0


def _scan_probe_pairs(model, gens, n_values):
    """(shell, decomposable) by testing h g h^-1 against the short cores for
    every (shell element g, conjugator h) pair, on keys."""
    census = enumerate_ball(model, gens, max(n_values), keep_elements=True)
    mul = model.mul_keys
    out = {}
    for n in n_values:
        inner = math.floor(Fraction(99, 100) * n)
        h_cap = math.floor(Fraction(31, 100) * n)
        core_cap = math.floor(Fraction(57, 100) * n)
        short_core = {k for r in range(core_cap + 1) for k in census.elements[r]}
        h_pairs = [(hk, model.inverse_key(hk)) for r in range(h_cap + 1) for hk in census.elements[r]]
        shell = decomposable = 0
        for r in range(inner + 1, n + 1):
            for key in census.elements[r]:
                shell += 1
                decomposable += any(mul(mul(hk, key), hinv) in short_core for hk, hinv in h_pairs)
        out[n] = (shell, decomposable)
    return out


def test_negligibility_probe_matches_the_pair_scan_on_the_survey_points(f2):
    # the survey workload's probe: free:2, n = 6, 8, 9
    probe = exponential_negligibility_probe(f2, f2.standard_gens(), [6, 8, 9])
    got = {p.n: (p.shell_size, p.decomposable) for p in probe.points}
    assert got == _scan_probe_pairs(f2, f2.standard_gens(), [6, 8, 9])
    assert got[8][1] > 0 and got[9][1] > 0  # none at n = 6


@pytest.mark.parametrize("which", ["f2", "zz23"])
def test_segment_table_matches_check_alignment(which, f2, tree2, f2_ledger, zz23, bass_serre, zz23_ledger):
    # every report assembled from the table's stored (basepoint, segment)
    # pair and its tail equals check_alignment on the whole sequence, and
    # its least norms equal a word_distance search over the segment's points
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
                        got = assemble_report(level, math.ceil(level), [entry.head, table.tail(entry, p)])
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
    closed, searched = (fiber_census(_search_table(model, GeneratingSet(model, words, standard=flag), action, phi,
                                                   ledger), n)
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


def test_segment_table_rejects_a_space_that_is_not_a_tree(zz23_ledger):
    # the translated-key tails hold by tree isometry alone
    model = FiniteSample.cyclic(12)
    action = GroupAction(model, cycle_graph(12), lambda g, p: (g.key + p) % 12)
    with pytest.raises(ValueError, match="tree"):
        SegmentTable(BallIndex(model, model.standard_gens(), 2), action, model.element("t"), zz23_ledger)


# (model, generating words or None for the standard ones, phi, ball radius)
_ORACLE_CASES = {
    "f2": ("free:2", None, "a", 5),
    "f2-ab": ("free:2", ["a", "b", "ab"], "a", 5),
    "zz23": ("zz23", None, "xy", 10),
    "zz23-xy": ("zz23", ["x", "y", "xy"], "xy", 8),
    "braid3": ("braid3", None, "aB", 6),
    "braid3-aba": ("braid3", ["a", "b", "aba"], "aB", 5),
}


@functools.lru_cache(maxsize=None)
def _oracle_table(which, linkage_bound=1):
    """A table over a ball of the case's model on its tree (or of a random
    generating set's, for an index, with its model's phi), with a ledger
    of dominating constant 1 and alignment level linkage_bound + 1 (2 by
    default), and the ball's shell; one per case and level, shared by the
    tests."""
    if which in _ORACLE_CASES:
        model_id, words, phi, radius = _ORACLE_CASES[which]
        model = make_model(model_id)
        gens = model.standard_gens() if words is None else GeneratingSet(model, words)
    else:  # an index into the random generating sets
        model_id, gens, radius = _RANDOM_SETS[which]
        model, phi = gens.model, _RANDOM_PHI[model_id]
    ledger = ConstantLedger.scaled(0, 1, 1, 1, linkage_bound, 0, 1, 1, dominating=Fraction(1), segment_length=1,
                                   window=(Fraction(1, 4), Fraction(1, 2)), cut_window=(Fraction(1, 4), Fraction(1, 2)))
    ball = BallIndex(model, gens, radius)
    table = SegmentTable(ball, model.tree_action(), model.element(phi), ledger)
    return table, [GroupElement(model, k) for k in ball.spheres[radius]]


@pytest.mark.parametrize("which", list(_ORACLE_CASES))
def test_memoized_tails_equal_pair_diameters(which):
    # every (segment, point) pair of the thick search and the replacement
    # maps, read per translated key, against pair_diameters on the pair
    table, shell = _oracle_table(which)
    model, action, mul, inv = table.model, table.action, table.model.mul_keys, table.model.inverse_key
    space, power = action.space, table.power.key
    compared = 0
    for g in shell:
        prefix, suffix = table.cuts(g)
        point = as_geodesic(action.proj(g))
        for i in range(len(prefix)):
            for s in table.candidates:
                entry = table.entry_at(mul(prefix[i], s.key))
                geo = entry.segment.projected
                # the thick search's pair (w s segment, g x0)
                assert table.tail_at(mul(inv(s.key), suffix[i])) == pair_diameters(space, geo, point)
                # the replacement map's pairs (w s segment, w s phi^L t v x0)
                for t in table.candidates:
                    back = mul(mul(power, t.key), suffix[i])
                    out = GroupElement(model, mul(entry.segment.base.key, back))
                    assert table.tail_at(back) == pair_diameters(space, geo, as_geodesic(action.proj(out)))
                    compared += 2
    assert compared > 1000


def _reference_thick_search(table, g):
    """(found, degenerate, key of the witness's base) by the scan of
    ``a_thick_search``, each segment built and each tail computed from
    distances."""
    model, gens, action, ledger = table.model, table.gens, table.action, table.ledger
    space, basepoint = action.space, as_geodesic(action.space.basepoint)
    letters = table.ball.geodesic(g).s_letters
    n = len(letters)
    lo, hi = table.thick_window(n)
    if lo < 1 or lo > hi:
        return False, True, None
    for i in range(lo, hi + 1):
        w = model.element(gens.spell(letters[:i]))
        for s in table.candidates:
            seg = OrbitSegment(action, w * s, table.phi, ledger.segment_length)
            norms = [d for d in (table.ball.distance_from_identity(h, hi + 1) for h in seg.points) if d is not None]
            if not norms or not lo <= min(norms) <= hi:
                continue
            pairs = [pair_diameters(space, basepoint, seg.projected),
                     pair_diameters(space, seg.projected, as_geodesic(action.proj(g)))]
            if max(max(p) for p in pairs) < math.ceil(ledger.dominating):
                return True, False, (w * s).key
    return False, False, None


def _reference_replacement(table, g, i):
    """(output key, s, t, pair diameters) of the first linkage pair whose
    alignment certifies, or None, each tail computed from distances."""
    model, gens, action, ledger = table.model, table.gens, table.action, table.ledger
    space, basepoint = action.space, as_geodesic(action.space.basepoint)
    letters = table.ball.geodesic(g).s_letters
    w = model.element(gens.spell(letters[:i]))
    v = model.element(gens.spell(letters[i + table.block :]))
    for s in table.candidates:
        seg = OrbitSegment(action, w * s, table.phi, ledger.segment_length)
        for t in table.candidates:
            out = w * s * table.power * t * v
            pairs = [pair_diameters(space, basepoint, seg.projected),
                     pair_diameters(space, seg.projected, as_geodesic(action.proj(out)))]
            if max(max(p) for p in pairs) < math.ceil(table.level):
                return out.key, s, t, pairs
    return None


@pytest.mark.parametrize("which", list(_ORACLE_CASES))
def test_thick_search_and_replacement_match_the_distance_reference(which):
    table, shell = _oracle_table(which)
    tally = Counter()
    for g in shell:
        found = a_thick_search(table, g)
        got = found.found, found.degenerate, found.witness.base.key if found.found else None
        assert got == _reference_thick_search(table, g)
        tally["thick" if found.found else "degenerate" if found.degenerate else "thin"] += 1
        n = len(table.cuts(g)[0]) - 1
        lo, hi = table.cut_window(n)
        for i in range(max(lo, 1), min(hi, n - table.block) + 1):
            want = _reference_replacement(table, g, i)
            if want is None:
                with pytest.raises(LinkageFailure):
                    replacement_map(table, g, i)
                tally["failure"] += 1
                continue
            rep = replacement_map(table, g, i)
            assert (rep.element.key, rep.s, rep.t, rep.report.pair_diameters) == want
            tally["replaced"] += 1
    assert tally["thick"] and tally["thin"] and tally["replaced"]


def _reference_least_worst(table, g, i):
    """The report of the first linkage pair of least worst diameter, each
    segment built and each alignment checked from distances."""
    model, gens, action = table.model, table.gens, table.action
    space, length = action.space, table.ledger.segment_length
    letters = table.ball.geodesic(g).s_letters
    w = model.element(gens.spell(letters[:i]))
    v = model.element(gens.spell(letters[i + table.block :]))
    reports = []
    for s in table.candidates:
        seg = OrbitSegment(action, w * s, table.phi, length).projected
        reports += [check_alignment(space, [space.basepoint, seg, action.proj(w * s * table.power * t * v)],
                                    table.level) for t in table.candidates]
    return _first_least_worst(reports)


@pytest.mark.parametrize("linkage_bound", [1, -1], ids=["level-2", "level-0"])
@pytest.mark.parametrize("which", list(_ORACLE_CASES))
def test_linkage_memo_matches_the_reference(which, linkage_bound):
    # a replacement depends on g only through its cut keys (w, v), and the
    # table memoizes it per pair: at level 2 every linkage certifies and the
    # memo must hold the reference's first certifying pair; at level 0 none
    # does, and every read must raise with the first least-worst report
    table, shell = _oracle_table(which, linkage_bound)
    tally = Counter()
    for g in shell:
        prefix, suffix = table.cuts(g)
        n = len(prefix) - 1
        lo, hi = table.cut_window(n)
        for i in range(max(lo, 1), min(hi, n - table.block) + 1):
            want = _reference_replacement(table, g, i)
            if want is None:
                best = _reference_least_worst(table, g, i)
                for read in (lambda: table.linkage(prefix[i], suffix[i + table.block]),
                             lambda: replacement_map(table, g, i)):
                    with pytest.raises(LinkageFailure) as failure:
                        read()
                    assert failure.value.best_report == best
                tally["failure"] += 1
                continue
            s, t, out, entry, tail = table.linkage(prefix[i], suffix[i + table.block])
            assert (out, s, t, [entry.head, tail]) == want
            report = check_alignment(table.action.space, [table.action.space.basepoint, entry.segment.projected,
                                                          table.action.proj(GroupElement(table.model, out))],
                                     table.level)
            assert replacement_map(table, g, i).report == report and report.aligned
            tally["replaced"] += 1
    assert set(tally) == {"replaced" if linkage_bound > 0 else "failure"}


@functools.lru_cache(maxsize=None)
def _fibers_f2_ledger():
    """The ledger of the fibers workload's F2 experiment at seed 7."""
    model = make_model("free:2")
    windows = (Fraction(1, 4), Fraction(2, 5))
    return measure_scaled_ledger(model, model.standard_gens(), model.tree_action(), model.element("a"),
                                 random.Random(7), segment_length=2, window=windows, cut_window=windows)


def test_fiber_census_decides_each_cut_key_pair_once(monkeypatch):
    # the F2 n = 8 census of the fibers workload (seed 7) makes 15,066
    # replacements on 288 distinct cut-key pairs (w, v); it computes one
    # linkage per pair and reads the memo for the rest
    model = make_model("free:2")
    gens, action, phi = model.standard_gens(), model.tree_action(), model.element("a")
    asked, computed = [], []
    linkage, first_linkage = SegmentTable.linkage, SegmentTable._first_linkage
    monkeypatch.setattr(SegmentTable, "linkage", lambda self, w, v: asked.append((w, v)) or linkage(self, w, v))
    monkeypatch.setattr(SegmentTable, "_first_linkage",
                        lambda self, w, v: computed.append((w, v)) or first_linkage(self, w, v))
    report = fiber_census(_search_table(model, gens, action, phi, _fibers_f2_ledger()), 8)
    assert report.domain_size == len(asked) == 15066
    assert len(computed) == len(set(computed)) == len(set(asked)) == 288


def test_fiber_census_products_are_pinned():
    # the same census forms 72,905 products: each shell element's walk back
    # through the ball's parents stops at the shallowest cut index that the
    # windows read, and forms only the suffixes from there (90,401 when it
    # walked to the identity, 160,385 when the prefixes were formed too)
    counting = CountingModel(make_model("free:2"))
    report = fiber_census(_search_table(counting, counting.standard_gens(), counting.tree_action(),
                                        counting.element("a"), _fibers_f2_ledger()), 8)
    assert report.domain_size == 15066
    assert counting.calls == 72905


_RANDOM_SETS = random_generating_sets()
_RANDOM_PHI = {"free:2": "a", "zz23": "xy", "braid3": "aB"}


def _running_cuts(model, gens, path) -> tuple:
    """The prefix and suffix keys of a path of S-letters, as running
    products of its letter keys."""
    letter_keys = [gens.letter_element(s).key for s in path]
    prefix, suffix = [model.identity_key()], [model.identity_key()]
    for k in letter_keys:
        prefix.append(model.mul_keys(prefix[-1], k))
    for k in reversed(letter_keys):
        suffix.append(model.mul_keys(k, suffix[-1]))
    return prefix, suffix[::-1]


# the oracle cases, then the indices of the random generating sets
_ALL_CASES = list(_ORACLE_CASES) + list(range(len(_RANDOM_SETS)))
_ALL_IDS = list(_ORACLE_CASES) + [f"random-{m}-{i}" for i, (m, _, _) in enumerate(_RANDOM_SETS)]


@pytest.mark.parametrize("which", _ALL_CASES, ids=_ALL_IDS)
def test_cuts_read_from_parents_equal_the_running_products(which, zz23_ledger):
    # every shell element of the oracle balls and of balls over random
    # generating sets: the cuts walked back through the ball's parents, and
    # a few searched by a radius-0 table, against the running products of
    # the unpruned BFS's first-visit path
    if which in _ORACLE_CASES:
        table, shell = _oracle_table(which)
    else:
        model_id, gens, radius = _RANDOM_SETS[which]
        model = gens.model
        table = SegmentTable(BallIndex(model, gens, radius), model.tree_action(),
                             model.element(_RANDOM_PHI[model_id]), zz23_ledger)
        shell = [GroupElement(model, k) for k in table.ball.spheres[radius]]
    model, gens = table.model, table.gens
    _, paths = unpruned_bfs(model, gens, table.ball.radius)
    search = _search_table(model, gens, table.action, table.phi, table.ledger)
    for n, g in enumerate(shell):
        want = _running_cuts(model, gens, paths[g.key])
        assert table.cuts(g) == want
        if n < 3:
            assert search.cuts(g) == want
        # the census's walk, stopped at each depth, agrees from there up
        norm = len(want[0]) - 1
        for depth in range(norm + 1):
            prefix, suffix = table.cut_keys(g.key, norm, depth)
            assert (prefix[depth:], suffix[depth:]) == (want[0][depth:], want[1][depth:])
            assert prefix[:depth] == suffix[:depth] == [None] * depth


def _reference_census(table, shell):
    """The counts of ``fiber_census`` over the shell of the table's ball,
    with :func:`_reference_thick_search` and :func:`_reference_replacement`
    in place of the memoized verdicts; None if a linkage fails."""
    n = table.ball.radius
    fibers, skipped = Counter(), Counter()
    for r in range(math.floor(shell * n) + 1, n + 1):
        for key in table.ball.spheres[r]:
            g = GroupElement(table.model, key)
            if _reference_thick_search(table, g)[0]:
                skipped["thick"] += 1
                continue
            lo, hi = table.cut_window(r)
            indices = [i for i in range(max(lo, 1), hi + 1) if i + table.block <= r]
            skipped["degenerate"] += not indices
            for i in indices:
                want = _reference_replacement(table, g, i)
                if want is None:
                    return None
                fibers[want[0]] += 1
    return {"domain_size": sum(fibers.values()), "image_size": len(fibers),
            "max_fiber": max(fibers.values(), default=0), "histogram": dict(Counter(fibers.values())),
            "thick_skipped": skipped["thick"], "degenerate_skipped": skipped["degenerate"]}


@pytest.mark.parametrize("which", _ALL_CASES, ids=_ALL_IDS)
def test_half_shell_census_matches_the_distance_reference(which):
    # with shell 1/2 one table serves the radii above n/2, each with its own
    # thick and cut windows, so a verdict memoized under the wrong window or
    # key would change a count; under the random generating sets too, whose
    # words of two and three letters make other cut keys meet
    table, _ = _oracle_table(which)
    shell, n = Fraction(1, 2), table.ball.radius
    radii = range(math.floor(shell * n) + 1, n + 1)
    assert len({table.thick_window(r) for r in radii}) > 1
    want = _reference_census(table, shell)
    assert want is not None and want["domain_size"] and want["thick_skipped"]
    report = fiber_census(_fresh_table(table), n, shell=shell)
    assert {field: getattr(report, field) for field in want} == want
    # the census decides thick verdicts on cut keys and builds no
    # certificate: it skips exactly the keys on which a_thick_search
    # answers found, and each of those answers certifies
    thick = [found for found in (a_thick_search(table, GroupElement(table.model, key))
                                 for r in radii for key in table.ball.spheres[r]) if found.found]
    assert report.thick_skipped == len(thick)
    assert all(found.certificate.certified for found in thick)


_WINDOWS = {"window": (Fraction(1, 4), Fraction(2, 5)), "cut_window": (Fraction(1, 4), Fraction(2, 5))}
# the fibers workload's experiments: model, phi, ledger keywords, and its n
# values unsorted and repeated
_FIBERS_WORKLOAD = {
    "zz23-xy": ("zz23", "xy", dict(dominating=Fraction(1), segment_length=2, **_WINDOWS), [14, 8, 11, 8]),
    "free2-a": ("free:2", "a", dict(segment_length=2, **_WINDOWS), [8, 6, 8]),
    "braid3-aB": ("braid3", "aB", dict(dominating=Fraction(1), segment_length=2, **_WINDOWS), [7, 6]),
}


def _shared_and_fresh(table, n_values):
    """The census reports of each n from ``table``, then from a new table
    and a new index per n."""
    shared = [fiber_census(table, n).to_json() for n in n_values]
    fresh = [fiber_census(_search_table(table.model, table.gens, table.action, table.phi, table.ledger), n).to_json()
             for n in n_values]
    return shared, fresh


@pytest.mark.parametrize("which", list(_FIBERS_WORKLOAD))
def test_one_table_serves_every_n_of_a_workload_experiment(which):
    # as a fibers run does: the ledger grows the experiment's index (braid3
    # to its B(10) pairs index), and one table over it serves every n, each
    # census trimming or growing the index to its n; a memo keyed without
    # its window, or a census reading spheres past its n, would change a
    # report
    model_id, phi, keywords, n_values = _FIBERS_WORKLOAD[which]
    model = make_model(model_id)
    gens, action, phi = model.standard_gens(), model.tree_action(), model.element(phi)
    ball = BallIndex(model, gens, 0)
    ledger = measure_scaled_ledger(model, gens, action, phi, random.Random(7), ball=ball, **keywords)
    shared, fresh = _shared_and_fresh(SegmentTable(ball, action, phi, ledger), n_values)
    assert shared == fresh
    assert ball.radius == n_values[-1]
    assert all(report["domain"] for report in shared)


@pytest.mark.parametrize("which", range(len(_RANDOM_SETS)), ids=[f"random-{m}-{i}" for i, (m, _, _) in
                                                                  enumerate(_RANDOM_SETS)])
def test_one_table_serves_every_n_on_random_generating_sets(which):
    # the same on the random generating sets, at their oracle ledger's
    # windows, with the largest n first
    model_id, gens, radius = _RANDOM_SETS[which]
    model = gens.model
    ledger = _oracle_table(which)[0].ledger
    table = _search_table(model, gens, model.tree_action(), model.element(_RANDOM_PHI[model_id]), ledger)
    n_values = [radius, radius - 2, radius - 1, radius - 2]
    shared, fresh = _shared_and_fresh(table, n_values)
    assert shared == fresh
    assert any(report["domain"] for report in shared)


@pytest.mark.parametrize("which", ["zz23", "f2", "braid3"])
def test_tail_guard_never_fires_on_the_censuses(which, monkeypatch):
    # between tree vertices d(x, start) + d(x, end) - n = 2 d(x, segment),
    # so 2i = d(x, start) + n - d(x, end) is even and in [0, 2n], and tail
    # never raises; record 2i for every pair a census decides
    seen = []
    tail = SegmentTable.tail

    def recording_tail(self, entry, point):
        geo, space = entry.segment.projected, self.action.space
        seen.append((space.distance(point, geo.start) + len(geo) - space.distance(point, geo.end), len(geo)))
        return tail(self, entry, point)

    monkeypatch.setattr(SegmentTable, "tail", recording_tail)
    table, _ = _oracle_table(which)
    report = fiber_census(_fresh_table(table), table.ball.radius)
    assert report.domain_size > 0 and len(seen) > 50
    assert all(two_i % 2 == 0 and 0 <= two_i <= 2 * length for two_i, length in seen)


@pytest.mark.parametrize("which", ["zz23", "f2", "braid3", "appendix-tree"])
def test_project_tree_guard_never_fires(which, monkeypatch):
    # alignment.tree_projection raises ValueError when 2i = d(x, start) + n -
    # d(x, end) is odd or outside [0, 2n]; between tree vertices it never is.
    # Record 2i on every tree projection (through project, pair_diameters or
    # a census tail) of a model's ledger measurement and census, and of the
    # appendix suite on the free-group Cayley tree
    from genlab import alignment, census, lemmas

    seen = []
    tree_projection = alignment.tree_projection

    def recording_tree_projection(space, x, geo):
        n = len(geo)
        seen.append((space.distance(x, geo.start) + n - space.distance(x, geo.end), n))
        return tree_projection(space, x, geo)

    for module in (alignment, census, lemmas):
        monkeypatch.setattr(module, "tree_projection", recording_tree_projection)
    if which == "appendix-tree":
        assert lemmas.appendix_suite_tree(2, 200, random.Random(13)).all_green()
    else:
        table, _ = _oracle_table(which)
        model, gens, action, phi = table.model, table.gens, table.action, table.phi
        measure_scaled_ledger(model, gens, action, phi, random.Random(7), segment_length=2, sample_radius=4)
        report = fiber_census(_fresh_table(table), table.ball.radius)
        assert report.domain_size > 0
    assert len(seen) > 50
    assert all(two_i % 2 == 0 and 0 <= two_i <= 2 * n for two_i, n in seen)
