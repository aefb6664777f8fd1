"""Acceptance suite: every exit criterion, one pass/fail line each.

Tolerances and sizes are pinned here; expected values marked as frozen were
computed by the exhaustive oracles in this repository and must reproduce
bit-exactly (all arithmetic is integer/rational)."""

import hashlib
import math
import random
import time
from fractions import Fraction

from genlab.balls import BallIndex, enumerate_ball, free_ball_count, free_sphere_count
from genlab.census import (
    SegmentTable,
    fiber_census,
    free_group_threshold_count,
    genericity_experiment,
    single_replacement_fibers,
)
from genlab.cli import run
from genlab.contraction import measure_scaled_ledger, strong_contraction_check, weak_contraction_profile
from genlab.groups import Braid3, FreeGroup, FreeProductZ2Z3, GeneratingSet
from genlab.lemmas import (
    InequalityVerdict,
    SkippedInstance,
    appendix_suite_graph,
    appendix_suite_tree,
    random_chain_instance,
    random_quadratic_instance,
    verify_chain_capture,
    verify_distance_sum,
    verify_midpoint_capture,
    verify_quadratic_length,
)
from genlab.census import classify
from genlab.spaces import build_bass_serre_tree, build_cayley_tree, cycle_graph, measure_delta

from conftest import record_criterion, random_word


def test_criterion_1_ball_counts():
    f3 = FreeGroup(3)
    gens = f3.standard_gens()
    start = time.monotonic()
    census = enumerate_ball(f3, gens, 8)
    elapsed = time.monotonic() - start
    counts_ok = all(census.ball_count(r) == free_ball_count(3, r) for r in range(9))
    spheres_ok = all(census.sphere_counts[r] == free_sphere_count(3, r) for r in range(9))
    assert census.ball_count(1) == 7 and census.ball_count(2) == 37
    record_criterion(
        1, "free-group ball counts match the closed form for R <= 8",
        counts_ok and spheres_ok and elapsed < 60.0,
        f"#B(8)={census.ball_count(8)}, {elapsed:.1f}s single-threaded",
    )


def test_criterion_2_counting_inequality():
    violations = []
    for n in range(1, 13):
        for t in range(0, n):
            tc = free_group_threshold_count(3, n, t)
            if not (tc.linear_holds and tc.binomial_holds):
                violations.append((n, t))
    worst_fiber = 0
    for n, t in [(6, 0), (6, 2), (8, 2), (8, 4)]:
        rep = single_replacement_fibers(3, n, t)
        worst_fiber = max(worst_fiber, rep.max_fiber)
    record_criterion(
        2, "single-replacement counting inequality and 6-to-1 fibers",
        not violations and worst_fiber <= 6,
        f"all (n,T) with T < n <= 12 exact; max fiber {worst_fiber}",
    )


def test_criterion_3_appendix_suite():
    tree_report = appendix_suite_tree(2, 10000, random.Random(101))
    g6 = cycle_graph(6)
    delta = measure_delta(g6)
    graph_report = appendix_suite_graph(g6, delta)
    ok = tree_report.all_green() and graph_report.all_green()
    trials = sum(tree_report.trials.values()) + sum(graph_report.trials.values())
    record_criterion(
        3, "hyperbolic-space facts on 10^4 tree configs and the 6-cycle",
        ok, f"{trials} checks, zero conclusion failures, cycle delta {delta}",
    )


def test_criterion_4_concatenation_suite():
    start = time.monotonic()
    rng = random.Random(202)
    failures = skips = 0

    def outcome(result):
        nonlocal failures, skips
        if isinstance(result, SkippedInstance):
            skips += 1
            return
        if isinstance(result, InequalityVerdict):
            failures += 0 if result.passed else 1
        else:
            failures += sum(0 if v.passed else 1 for v in result)

    tree, action = build_cayley_tree(2)
    f2 = tree.group
    ledger = measure_scaled_ledger(f2, f2.standard_gens(), action, f2.element("a"),
                                   random.Random(0), segment_length=4)
    done = 0
    while done < 1000:
        inst = random_chain_instance(rng, n_segments=1, level=2, ledger=ledger)
        v = verify_midpoint_capture(inst)
        if not isinstance(v, SkippedInstance):
            done += 1
        outcome(v)
    for counter, verifier in (("chain", verify_chain_capture), ("sum", verify_distance_sum)):
        done = 0
        while done < 1000:
            inst = random_chain_instance(rng, n_segments=rng.randrange(1, 5), level=2, ledger=ledger)
            v = verifier(inst)
            if not isinstance(v, SkippedInstance):
                done += 1
            outcome(v)
    braid = Braid3()
    _, _, braid_action = build_bass_serre_tree()
    bledger = measure_scaled_ledger(braid, braid.standard_gens(), braid_action,
                                    braid.element("aB"), random.Random(0),
                                    segment_length=4, sample_radius=4)
    m = int(bledger.chain_threshold(2)) + 1
    done = 0
    while done < 1000:
        inst = random_quadratic_instance(rng, n_segments=m + rng.randrange(2, 7),
                                         segment_length=m, ledger=bledger, level=2)
        v = verify_quadratic_length(inst)
        if not isinstance(v, SkippedInstance):
            done += 1
        outcome(v)
    elapsed = time.monotonic() - start
    record_criterion(
        4, "concatenation inequalities on 10^3 certified instances each",
        failures == 0 and elapsed < 600.0,
        f"failures {failures}, skips {skips}, {elapsed:.0f}s (scaled profile)",
    )


def test_criterion_5_contraction():
    tree, action = build_cayley_tree(2)
    f2 = tree.group
    # geodesics between vertices at distance <= 12, up to the label
    # permutation isometries: one representative per length, deep x-scan
    ok = True
    for ell in range(1, 13):
        geo = tree.geodesic(tree.basepoint, f2.normalize((1,) * ell))
        xs = tree.ball(f2.normalize((1,) * (ell // 2)), 5)
        res = strong_contraction_check(tree, geo, 1, xs)
        ok = ok and res.passes and res.worst == 0
    # raw scan over every geodesic with both endpoints in the radius-3 ball
    ball3 = tree.ball(tree.basepoint, 3)
    for u in ball3:
        for v in ball3:
            if u >= v:
                continue
            res = strong_contraction_check(tree, tree.geodesic(u, v), 1, tree.ball(u, 3))
            ok = ok and res.passes
    profile = weak_contraction_profile(
        f2, f2.standard_gens(), action, f2.element("a"), 6,
        sample_norms=list(range(4, 11)), rng=random.Random(303), samples_per_norm=6,
    )
    by_norm = {}
    for s in profile.samples:
        by_norm.setdefault(len(s.g_key), []).append(s.projection_diameter)
    constant = len({max(d) for d in by_norm.values()}) == 1
    record_criterion(
        5, "tree geodesics 1-strongly contracting; half-ball bound flat in the norm",
        ok and constant and profile.bound == 0,
        f"lengths 1..12 exhaustive up to isometry + {len(ball3)**2 // 2} raw pairs; bound {profile.bound} on norms 4..10",
    )


def test_criterion_6_braid_classification():
    braid = Braid3()
    ok = (
        classify(braid, braid.element("a")).verdict == "reducible"
        and classify(braid, braid.element("aB")).verdict == "pseudoAnosov"
        and classify(braid, braid.element("ab")).verdict == "periodic"
    )
    rng = random.Random(404)
    violations = 0
    d2 = braid.element("ababab")
    for _ in range(1000):
        g = braid.element(random_word(rng, 2, rng.randrange(0, 9)))
        h = braid.element(random_word(rng, 2, rng.randrange(0, 7)))
        base = classify(braid, g).verdict
        if classify(braid, h * g * h.inverse()).verdict != base:
            violations += 1
        if classify(braid, g * d2).verdict != base:
            violations += 1
        if classify(braid, g.inverse()).verdict != base:
            violations += 1
    record_criterion(
        6, "trace trichotomy reproduces worked examples, class-function checks",
        ok and violations == 0, f"10^3 random conjugation/center/inverse pairs",
    )


def test_criterion_7_genericity_trend():
    braid = Braid3()
    curves = []
    std = braid.standard_gens()
    curves.append(("standard", genericity_experiment(braid, None, std, 8)))
    rng = random.Random(2026)
    while True:
        w = tuple(rng.choice((1, -1, 2, -2)) for _ in range(3))
        if braid.normalize(w) != braid.identity_key():
            break
    extra = GeneratingSet(braid, ["a", "b", braid.alphabet.format(w)])
    curves.append((f"randomized {extra.describe()}", genericity_experiment(braid, None, extra, 8)))
    ok = True
    details = []
    for label, curve in curves:
        for r in (6, 8):
            ok = ok and curve.ratios[r] <= curve.ratios[r - 2]
        ok = ok and curve.fitted_exponent < 0
        details.append(f"{label} slope {curve.fitted_exponent:.2f}")
    # free group: non-loxodromic ratio decreases on [4, 12]; enumerated to
    # 10, extended by the (BFS-verified) closed ball form beyond
    f2 = FreeGroup(2)
    _, action = build_cayley_tree(2)
    curve = genericity_experiment(f2, action, f2.standard_gens(), 10,
                                  tree_threshold=0, word_threshold=Fraction(0))
    ok = ok and curve.special_counts == [1] * 11
    ratios = list(curve.ratios) + [Fraction(1, free_ball_count(2, n)) for n in (11, 12)]
    ok = ok and all(b < a for a, b in zip(ratios[4:], ratios[5:]))
    record_criterion(
        7, "non-pA coset ratio falls with the radius for both generating sets",
        ok, "; ".join(details) + "; free-group ratio strictly decreasing on [4,12]",
    )


def test_criterion_8_fiber_census():
    q23 = FreeProductZ2Z3()
    gens = q23.standard_gens()
    _, action, _ = build_bass_serre_tree()
    phi = q23.element("xy")
    ledger = measure_scaled_ledger(
        q23, gens, action, phi, random.Random(0), segment_length=2, sample_radius=5,
        dominating=Fraction(1), window=(Fraction(1, 4), Fraction(2, 5)),
        cut_window=(Fraction(1, 4), Fraction(2, 5)),
    )
    frozen = {  # n: (domain, image, max fiber), from the exhaustive census
        8: (48, 10, 6), 9: (40, 12, 4), 10: (96, 20, 6), 11: (144, 28, 6),
        12: (192, 40, 6), 13: (288, 64, 6), 14: (384, 80, 6),
    }
    ok = True
    ratios = []
    table = SegmentTable(BallIndex(q23, gens, 0), action, phi, ledger)  # one table, grown by each census
    for n, expected in frozen.items():
        rep = fiber_census(table, n)
        ok = ok and (rep.domain_size, rep.image_size, rep.max_fiber) == expected
        ratios.append(rep.sqrt_ratio)
    ok = ok and max(ratios) <= 2.2 and ratios[-1] <= ratios[0]

    f2 = FreeGroup(2)
    _, taction = build_cayley_tree(2)
    fledger = measure_scaled_ledger(
        f2, f2.standard_gens(), taction, f2.element("a"), random.Random(0),
        segment_length=2, window=(Fraction(1, 4), Fraction(2, 5)),
        cut_window=(Fraction(1, 4), Fraction(2, 5)),
    )
    f_ratios = []
    max_fibers = []
    ftable = SegmentTable(BallIndex(f2, f2.standard_gens(), 0), taction, f2.element("a"), fledger)
    for n in (8, 10):
        rep = fiber_census(ftable, n)
        f_ratios.append(rep.sqrt_ratio)
        max_fibers.append(rep.max_fiber)
    ok = ok and max_fibers == [114, 114]  # frozen: block-determined, flat in n
    ok = ok and max(f_ratios) <= 41.0 and f_ratios[1] <= f_ratios[0]
    record_criterion(
        8, "replacement-map fibers bounded by a constant times sqrt(n)",
        ok,
        f"zz23 ratios {ratios[0]:.2f}..{ratios[-1]:.2f} on n=8..14; "
        f"free ratios {f_ratios[0]:.1f},{f_ratios[1]:.1f} on n=8,10; no growth",
    )


def test_criterion_9_reproducibility(tmp_path):
    doc = {"experiments": [
        {"kind": "enumerate", "name": "ball", "model": "free:2", "radius": 6, "keep_elements": True},
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 6},
        {"kind": "verify-lemmas", "name": "suite", "trials": 25},
    ]}

    def run_to(out, workers):
        assert run(doc, out, 11, "scaled", None, workers=workers) == 0
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }

    h1 = run_to(tmp_path / "one", 1)
    h2 = run_to(tmp_path / "two", 1)
    h4 = run_to(tmp_path / "four", 4)
    record_criterion(
        9, "identical config and seed reproduce identical bytes, any worker count",
        h1 == h2 == h4, f"{len(h1)} files compared across three runs",
    )
