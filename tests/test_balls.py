"""Ball enumeration, distances, geodesics, translation lengths."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.balls import (
    BallIndex,
    BudgetExceeded,
    _closed_form_geodesic,
    _followers,
    center_coset_census,
    enumerate_ball,
    free_ball_count,
    free_sphere_count,
    geodesic_representative,
    translation_length,
    word_distance,
)
from genlab.groups import Braid3, FiniteSample, FreeGroup, FreeProductZ2Z3, GeneratingSet, GroupElement

from conftest import CountingModel, random_generating_sets, random_reduced_word, random_word, unpruned_bfs


def naive_free_ball(rank: int, radius: int) -> set:
    """Independent oracle: multiply out every raw word up to the radius."""
    letters = [a for s in range(1, rank + 1) for a in (s, -s)]
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for a in letters:
                # reduction by repeated scanning, not the library routine
                word = list(w) + [a]
                changed = True
                while changed:
                    changed = False
                    for i in range(len(word) - 1):
                        if word[i] == -word[i + 1]:
                            del word[i : i + 2]
                            changed = True
                            break
                t = tuple(word)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def test_f3_small_balls_against_oracle(f3):
    gens = f3.standard_gens()
    census = enumerate_ball(f3, gens, 4)
    oracle = naive_free_ball(3, 4)
    for r in range(5):
        assert census.ball_count(r) == len(naive_free_ball(3, r))
    assert census.ball_count(1) == 7
    assert census.ball_count(2) == 37
    assert census.ball_count(4) == len(oracle)


def test_closed_form_matches_bfs(f2):
    gens = f2.standard_gens()
    census = enumerate_ball(f2, gens, 10)
    for r in range(11):
        assert census.sphere_counts[r] == free_sphere_count(2, r)
        assert census.ball_count(r) == free_ball_count(2, r)


def test_radius_zero_ball(braid):
    census = enumerate_ball(braid, braid.standard_gens(), 0)
    assert census.ball_count(0) == 1


def test_budget_truncation(f2):
    census = enumerate_ball(f2, f2.standard_gens(), 8, node_budget=100)
    assert census.truncated
    assert census.radius < 8


def test_nonstandard_generating_set(f2):
    gens = GeneratingSet(f2, ["a", "b", "ab"])
    census = enumerate_ball(f2, gens, 3, keep_elements=True)
    # ab is one letter now
    assert f2.normalize((1, 2)) in census.elements[1]
    a, b = f2.element("a"), f2.element("ab")
    assert word_distance(f2, gens, a, b, 5) == 1  # a^-1 (ab) = b... via gens? b itself is a generator
    assert word_distance(f2, gens, f2.identity(), f2.element("abab"), 5) == 2


def test_word_distance_examples(f2, braid):
    S2 = f2.standard_gens()
    assert word_distance(f2, S2, f2.element("a"), f2.element("b"), 10) == 2
    g = f2.element("abA")
    assert word_distance(f2, S2, g, g, 10) == 0
    Sb = braid.standard_gens()
    assert word_distance(braid, Sb, braid.identity(), braid.element("ababab"), 8) == 6


def test_word_distance_triangle_and_symmetry(f2, f3, zz23, braid):
    rng = random.Random(5)
    # exact-length fast paths carry the free and free-product models; the
    # braid model runs honest bidirectional BFS on short words
    cases = [(f2, 8), (f3, 8), (zz23, 8), (braid, 3)]
    for model, max_len in cases:
        gens = model.standard_gens()
        for _ in range(1000):
            g, h, k = (
                model.element(random_word(rng, model.alphabet.size, rng.randrange(0, max_len + 1)))
                for _ in range(3)
            )
            dgh = word_distance(model, gens, g, h, 4 * max_len)
            dhk = word_distance(model, gens, h, k, 4 * max_len)
            dgk = word_distance(model, gens, g, k, 4 * max_len)
            assert dgh == word_distance(model, gens, h, g, 4 * max_len)
            assert dgk <= dgh + dhk


def test_zz23_exact_length_matches_bfs(zz23):
    gens = zz23.standard_gens()
    census = enumerate_ball(zz23, gens, 8, keep_elements=True)
    for r, sphere in enumerate(census.elements):
        for key in sphere:
            assert zz23.exact_length(key) == r


def test_geodesic_representative(f2, braid):
    S2 = f2.standard_gens()
    g = f2.element("abA")
    geo = geodesic_representative(f2, S2, g)
    assert geo.word == (1, 2, -1)
    assert geodesic_representative(f2, S2, f2.identity()).word == ()
    Sb = braid.standard_gens()
    geo_b = geodesic_representative(braid, Sb, braid.element("aba"))
    assert len(geo_b.s_letters) == 3
    assert braid.normalize(geo_b.word) == braid.normalize((1, 2, 1))
    # deterministic: rerun gives the same spelling
    geo_b2 = geodesic_representative(braid, Sb, braid.element("bab"))
    assert geo_b2.s_letters == geo_b.s_letters


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_free_closed_form_geodesic_matches_search(data):
    # the reduced word under the standard generators, listed in any order,
    # against the shortlex BFS on the same generators flagged non-standard,
    # which forces the search
    model = data.draw(st.sampled_from((FreeGroup(2), FreeGroup(3), FreeProductZ2Z3())), label="model")
    w = data.draw(st.lists(st.sampled_from(model.alphabet.signed_letters()), max_size=7).map(tuple), label="w")
    words = data.draw(st.permutations([(i,) for i in range(1, model.alphabet.size + 1)]), label="order")
    std, forced = GeneratingSet(model, words, standard=True), GeneratingSet(model, words, standard=False)
    g = model.element(w)
    closed = _closed_form_geodesic(model, std, g.key)
    assert closed is not None
    searched = geodesic_representative(model, forced, g)
    assert closed.word == model.key_word(g.key)
    assert len(closed) == len(searched)
    # the two spellings may name the inverse letters differently (A is
    # both -1 and 3; zz23's x spells as 1 or -1), but every prefix is the
    # same element
    for i in range(len(closed) + 1):
        assert (model.normalize(std.spell(closed.s_letters[:i]))
                == model.normalize(forced.spell(searched.s_letters[:i])))


def test_translation_length_examples(f2):
    S2 = f2.standard_gens()
    t = translation_length(f2, S2, f2.element("abA"), 8)
    assert t.exact and t.upper == 1
    assert translation_length(f2, S2, f2.identity(), 4).upper == 0
    t2 = translation_length(f2, S2, f2.element("ab"), 8)
    assert t2.exact and t2.upper == 2
    # the sampled quotients agree with the exact value in the limit
    assert [d for n, d in t2.samples] == [2 * n for n, d in t2.samples]


def test_translation_length_cyclic_reduction_bulk(f2):
    S2 = f2.standard_gens()
    rng = random.Random(6)
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        t = translation_length(f2, S2, f2.element(w), 3)
        assert t.exact
        assert t.upper == f2.translation_length_exact(f2.normalize(w))


def test_translation_upper_bound_antitone(braid):
    Sb = braid.standard_gens()
    g = braid.element("aab")
    uppers = [translation_length(braid, Sb, g, n).upper for n in (1, 2, 4, 6)]
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))


def test_translation_length_zz23_exact(zz23):
    gens = zz23.standard_gens()
    t = translation_length(zz23, gens, zz23.element("xy"), 6)
    assert t.exact and t.upper == 2
    t2 = translation_length(zz23, gens, zz23.element("yxY"), 6)
    assert t2.exact and t2.upper == 0  # conjugate of torsion


def test_center_coset_census(braid):
    gens = braid.standard_gens()
    cc = center_coset_census(braid, gens, 6)
    assert cc.center_counts[0] == 1
    assert cc.center_counts[6] >= 3  # id and both half-twist squares
    assert cc.max_coset_intersection >= 3
    assert cc.least_linear_slope <= 1
    # exponent-sum lower bound: |Delta^(2i)| >= 6|i| / max|rho(s)| = 6|i|
    d2 = braid.element("ababab")
    for i in (1, -1, 2):
        g = d2**i
        assert abs(braid.exponent_sum_key(g.key)) == 6 * abs(i)


def test_center_census_requires_predicate(f2):
    with pytest.raises(ValueError):
        center_coset_census(f2, f2.standard_gens(), 3)


def test_growth_sequence_fekete(f2):
    gens = f2.standard_gens()
    census = enumerate_ball(f2, gens, 10)
    balls = census.ball_counts + [free_ball_count(2, n) for n in (11, 12)]
    seq = [math.log(balls[n]) / n for n in range(1, 13)]
    # decreasing to its infimum, which the limit attains within 0.05
    assert min(seq) >= seq[-1] - 1e-12
    assert abs(min(seq) - seq[-1]) <= 0.05


def test_shell_ratio_decays_exponentially():
    # #B(floor(0.99 n)) / #B(n) <= 3^(-0.005 n) for F2, n <= 12, checked
    # exactly by raising both sides to the 200th power
    for n in range(1, 13):
        inner = free_ball_count(2, math.floor(Fraction(99, 100) * n))
        outer = free_ball_count(2, n)
        assert Fraction(inner, outer) ** 200 <= Fraction(1, 3**n)


def test_census_export_shapes(f2):
    census = enumerate_ball(f2, f2.standard_gens(), 3)
    lines = census.to_csv().strip().split("\n")
    assert lines[0] == "radius,sphere_count,ball_count,ln_ball_over_n"
    assert len(lines) == 5
    assert census.to_json()["ball_counts"][3] == free_ball_count(2, 3)


def _index_cases():
    f2, braid, zz23 = FreeGroup(2), Braid3(), FreeProductZ2Z3()
    return [
        (zz23, zz23.standard_gens(), 10),
        (braid, braid.standard_gens(), 6),
        (braid, GeneratingSet(braid, ["a", "b", "aba"]), 5),
        (f2, GeneratingSet(f2, ["a", "b", "ab"]), 5),
        (f2, f2.standard_gens(), 6),
    ]


@pytest.mark.parametrize("model,gens,radius", _index_cases(), ids=["zz23", "braid3", "braid3-aba", "f2-ab", "f2"])
def test_ball_index_matches_searches(model, gens, radius):
    index = BallIndex(model, gens, radius)
    assert not index.truncated and index.radius == radius
    assert index.spheres == enumerate_ball(model, gens, radius, keep_elements=True).elements
    ident = model.identity()
    for r, sphere in enumerate(index.spheres):
        for key in sphere:
            g = GroupElement(model, key)
            assert key in index
            assert index.geodesic(g) == geodesic_representative(model, gens, g)
            for cap in (radius - 2, radius, radius + 2):
                want = word_distance(model, gens, ident, g, cap)
                assert want == (r if r <= cap else None)
                assert index.distance_from_identity(g, cap) == want


@pytest.mark.parametrize("model,gens,radius", _index_cases(), ids=["zz23", "braid3", "braid3-aba", "f2-ab", "f2"])
def test_ball_index_falls_back_outside_the_ball(model, gens, radius):
    index = BallIndex(model, gens, radius - 2)
    ident = model.identity()
    outside = [GroupElement(model, k) for k in index.spheres[-1][:3]]
    outside = [g * x for g in outside for x in gens.elements]
    outside = [g for g in outside if g.key not in index]
    assert outside
    for g in outside:
        assert index.geodesic(g) == geodesic_representative(model, gens, g)
        for cap in (radius - 3, radius - 2, radius + 2):
            assert index.distance_from_identity(g, cap) == word_distance(model, gens, ident, g, cap)


def test_ball_index_budget_matches_enumeration(braid):
    gens = braid.standard_gens()
    index = BallIndex(braid, gens, 8, node_budget=100)
    census = enumerate_ball(braid, gens, 8, keep_elements=True, node_budget=100)
    assert index.truncated and census.truncated
    assert index.radius == census.radius
    assert index.spheres == census.elements
    # the discarded layer is not in the index
    assert sum(1 for r in index.spheres for _ in r) == census.ball_count()
    beyond = braid.element("aaaa")
    assert beyond.key not in index
    assert index.distance_from_identity(beyond, 8) == 4


@pytest.mark.parametrize("model,gens,radius", _index_cases(), ids=["zz23", "braid3", "braid3-aba", "f2-ab", "f2"])
def test_grown_or_trimmed_index_equals_one_built_at_the_radius(model, gens, radius):
    # grown in uneven steps, a request below the radius reached included,
    # then trimmed and grown back, it keeps the same shortlex BFS: the same
    # spheres, parents and members as an index built at its radius
    def same(index, r):
        built = BallIndex(model, gens, r + 1)
        assert index.radius == r and not index.truncated and index.spheres == built.spheres[: r + 1]
        assert all(index.walk(k) == built.walk(k) for sphere in index.spheres for k in sphere)
        assert not any(k in index for k in built.spheres[r + 1])

    index = BallIndex(model, gens, 0)
    assert index.grow(2) and index.grow(1)
    same(index, 2)
    assert index.grow(radius)
    same(index, radius)
    index.trim(1)
    same(index, 1)
    assert index.grow(radius - 1) and index.grow(radius)
    same(index, radius)


def test_truncated_index_grows_only_once_trimmed(braid):
    # grown past its budget, an index stops where one built under the same
    # budget stops, and stays there; trimmed below that radius it is
    # complete, and grows back to it and stops there again
    gens = braid.standard_gens()
    index = BallIndex(braid, gens, 3, node_budget=100)
    assert not index.truncated and index.radius == 3
    assert not index.grow(8) and index.truncated
    built = BallIndex(braid, gens, 8, node_budget=100)
    cut = index.radius
    assert cut == built.radius < 8 and index.spheres == built.spheres
    assert not index.grow(cut + 1) and index.grow(cut)
    index.trim(cut - 1)
    assert not index.truncated and index.spheres == built.spheres[:cut]
    assert not index.grow(cut + 1) and index.truncated and index.spheres == built.spheres


def _zz23_growth_series(radius: int) -> list:
    """The sphere counts of Z/2 * Z/3 under {x, y, Y}, to ``radius``, from
    the free-product formula 1/f = 1/f1 + 1/f2 - 1 (de la Harpe, *Topics in
    Geometric Group Theory*, 2000, VI.A) with f1 = 1 + z and f2 = 1 + 2z:
    f = (1 + z)(1 + 2z) / (1 - 2z^2), expanded in exact integers."""
    numerator = [1, 3, 2]  # (1 + z)(1 + 2z)
    out = []
    for r in range(radius + 1):
        out.append((numerator[r] if r < len(numerator) else 0) + (2 * out[r - 2] if r >= 2 else 0))
    return out


def test_zz23_spheres_follow_the_free_product_growth_series(zz23):
    # an oracle that shares no code with the program: 1, 3, 4, 6, 8, 12, ...
    # with s_r = 2 s_(r-2) for r >= 3
    series = _zz23_growth_series(24)
    assert series[:8] == [1, 3, 4, 6, 8, 12, 16, 24]
    assert all(series[r] == 2 * series[r - 2] for r in range(3, 25))
    gens = zz23.standard_gens()
    assert enumerate_ball(zz23, gens, 24).sphere_counts == series
    assert [len(sphere) for sphere in BallIndex(zz23, gens, 24).spheres] == series
    grown = BallIndex(zz23, gens, 0)
    for r in range(1, 25):  # one sphere at a time
        assert grown.grow(r) and len(grown.spheres[r]) == series[r]


def symmetric3() -> FiniteSample:
    """S_3 generated by the transpositions (0 1) and (1 2); its ball
    saturates at radius 3."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return FiniteSample("s3", table, [index[(1, 0, 2)], index[(0, 2, 1)]], ("s", "t"))


def _unpruned_cases():
    # none of these sets is flagged standard, so every geodesic is searched
    f2, braid, zz23, c3, s3 = FreeGroup(2), Braid3(), FreeProductZ2Z3(), FiniteSample.cyclic(3), symmetric3()
    return [
        (f2, GeneratingSet(f2, ["a", "b"]), 5),
        (f2, GeneratingSet(f2, ["a", "b", "ab"]), 4),
        (zz23, GeneratingSet(zz23, ["x", "y"]), 10),
        (braid, GeneratingSet(braid, ["a", "b"]), 6),
        (braid, GeneratingSet(braid, ["a", "b", "aba"]), 4),
        (c3, GeneratingSet(c3, ["t"]), 3),  # t·t = T is a generator: t has no follower
        (s3, GeneratingSet(s3, ["s", "t"]), 5),
    ]


_UNPRUNED_IDS = ["f2", "f2-ab", "zz23", "braid3", "braid3-aba", "cyclic3", "s3"]
_RANDOM_SETS = random_generating_sets()
_RANDOM_IDS = [f"random-{model_id}-{i}" for i, (model_id, _, _) in enumerate(_RANDOM_SETS)]
# the fixed sets and random ones (repeated elements, shuffled letter order)
_UNPRUNED_AND_RANDOM = _unpruned_cases() + [(gens.model, gens, radius) for _, gens, radius in _RANDOM_SETS]


@pytest.mark.parametrize("model,gens,radius", _UNPRUNED_AND_RANDOM, ids=_UNPRUNED_IDS + _RANDOM_IDS)
def test_enumerate_ball_matches_unpruned_bfs(model, gens, radius):
    spheres, _ = unpruned_bfs(model, gens, radius)
    census = enumerate_ball(model, gens, radius, keep_elements=True)
    assert census.elements == spheres
    assert census.sphere_counts == [len(s) for s in spheres]
    assert enumerate_ball(model, gens, radius).sphere_counts == census.sphere_counts


@pytest.mark.parametrize("model,gens,radius", _unpruned_cases(), ids=_UNPRUNED_IDS)
def test_ball_index_matches_unpruned_bfs(model, gens, radius):
    spheres, paths = unpruned_bfs(model, gens, radius)
    index = BallIndex(model, gens, radius)
    assert index.spheres == spheres
    assert set(index._last) == set(paths)
    for r, sphere in enumerate(spheres):
        for key in sphere:
            path = paths[key]
            assert index._last[key] == (path[-1] if path else 0)
            assert index.geodesic(GroupElement(model, key)).s_letters == path
            assert index.norm(key) == r


@pytest.mark.parametrize("model,gens,radius", _unpruned_cases(), ids=_UNPRUNED_IDS)
def test_geodesic_representative_matches_unpruned_bfs(model, gens, radius):
    spheres, paths = unpruned_bfs(model, gens, radius)
    for r, sphere in enumerate(spheres):
        # a budget of |B(r - 1)| is overrun only by the sphere that holds the
        # target, and the search still returns it from there
        budget = sum(map(len, spheres[:r]))
        for key in sphere:
            geo = geodesic_representative(model, gens, GroupElement(model, key), node_budget=budget)
            assert geo is not None and geo.s_letters == paths[key]
            assert geo.word == gens.spell(paths[key])


@pytest.mark.parametrize("model,gens,radius", _UNPRUNED_AND_RANDOM, ids=_UNPRUNED_IDS + _RANDOM_IDS)
def test_ball_index_walks_the_unpruned_bfs_tree(model, gens, radius):
    # each key's parent is its first-visit path one letter shorter, and a
    # walk back reads the keys of every prefix of that path, on the fixed
    # sets and on random ones (repeated elements, shuffled letter order)
    spheres, paths = unpruned_bfs(model, gens, radius)
    by_path = {path: key for key, path in paths.items()}
    index = BallIndex(model, gens, radius)
    assert index.spheres == spheres
    assert set(index._parent) == set(paths) - {model.identity_key()}
    for r, sphere in enumerate(spheres):
        budget = sum(map(len, spheres[:r]))
        for n, key in enumerate(sphere):
            path = paths[key]
            keys, letters = index.walk(key)
            assert keys == [by_path[path[:i]] for i in range(r, -1, -1)]
            assert letters == list(reversed(path))
            assert index.geodesic(GroupElement(model, key)).s_letters == path
            assert index.norm(key) == r
            if n < 3:  # the search grows the same tree up to its target
                geo = geodesic_representative(model, gens, GroupElement(model, key), node_budget=budget)
                assert geo.s_letters == path


@pytest.mark.parametrize("model,gens,radius", _UNPRUNED_AND_RANDOM, ids=_UNPRUNED_IDS + _RANDOM_IDS)
def test_norm_beyond_a_complete_index_matches_unpruned_bfs(model, gens, radius):
    # outside a complete B(R), |x| = R + d(x, B(R)): the search beyond an
    # index of radius R reads every reference norm of the spheres past R,
    # and None under a cap one below it
    spheres, _ = unpruned_bfs(model, gens, radius)
    for inner in sorted({max(0, radius - 3), radius - 1}):
        index = BallIndex(model, gens, inner)
        assert not index.truncated
        for r in range(inner + 1, radius + 1):
            for key in spheres[r]:
                assert key not in index
                assert index.norm_beyond(key, radius) == r
                assert index.norm_beyond(key, r - 1) is None


def test_norm_beyond_a_truncated_index_is_refused(braid):
    # from the small ball a budget leaves, the one-way search runs deep;
    # such queries stay with the bidirectional word_distance
    index = BallIndex(braid, braid.standard_gens(), 8, node_budget=100)
    assert index.truncated
    with pytest.raises(ValueError, match="truncated"):
        index.norm_beyond(braid.element("aaaa").key, 8)


def test_norm_beyond_keeps_its_own_node_budget(braid):
    # the search may hold node_budget nodes next to the ball, not what the
    # ball leaves of them
    gens = braid.standard_gens()
    index = BallIndex(braid, gens, 6)
    far = braid.element("aaaaaaaa").key  # exponent sum 8, so norm 8: two layers past B(6)
    held = sum(map(len, BallIndex(braid, gens, 1).spheres))  # the search holds B(far, 1) before it meets B(6)
    assert held < len(index._last)
    assert index.norm_beyond(far, 10, node_budget=held) == 8
    with pytest.raises(BudgetExceeded, match="distance search"):
        index.norm_beyond(far, 10, node_budget=held - 1)


@pytest.mark.parametrize(
    "model,words,radius",
    [(Braid3(), ["a", "b", "aba"], 5), (FreeGroup(2), ["a", "b", "ab"], 4), (FreeProductZ2Z3(), ["x", "y"], 10)],
    ids=["braid3-aba", "f2-ab", "zz23"],
)
def test_ball_index_walks_form_no_product(model, words, radius):
    # sets not flagged standard, so no closed form answers: every geodesic,
    # norm and walk of a key in the ball is read from the stored parents
    counting = CountingModel(model)
    index = BallIndex(counting, GeneratingSet(model, words), radius)
    counting.calls = 0
    for r, sphere in enumerate(index.spheres):
        for key in sphere:
            assert len(index.geodesic(GroupElement(counting, key))) == index.norm(key) == r
            assert len(index.walk(key)[0]) == r + 1
    assert counting.calls == 0


def test_follower_table():
    zz23 = FreeProductZ2Z3()
    keys = [g.key for g in zz23.standard_gens().elements]  # x, y, Y
    assert [len(row) for row in _followers(zz23, keys)] == [2, 1, 1]
    for k in (1, 2, 3):
        fk = FreeGroup(k)
        keys = [g.key for g in fk.standard_gens().elements]
        assert [len(row) for row in _followers(fk, keys)] == [2 * k - 1] * (2 * k)
    c3 = FiniteSample.cyclic(3)
    assert _followers(c3, [g.key for g in c3.standard_gens().elements]) == [[], []]


_STANDARD_SETS = [(m, m.standard_gens()) for m in (FreeGroup(2), FreeProductZ2Z3(), Braid3())]


@pytest.mark.parametrize("model,gens", _STANDARD_SETS + [(gens.model, gens) for _, gens, _ in _RANDOM_SETS],
                         ids=["f2", "zz23", "braid3"] + _RANDOM_IDS)
def test_followers_are_the_products_outside_the_set(model, gens):
    # t follows s exactly when the word s t spells an element outside S ∪ {1}
    words = gens.element_words
    near = {g.key for g in gens.elements} | {model.identity_key()}
    expected = [[j for j, wt in enumerate(words) if model.element(ws + wt).key not in near] for ws in words]
    assert _followers(model, [g.key for g in gens.elements]) == expected


class ClosedFormSpy(CountingModel):
    """A model that also counts its ``exact_length`` and
    ``translation_length_exact`` calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.oracle_calls = 0

    def exact_length(self, key):
        self.oracle_calls += 1
        return self.inner.exact_length(key)

    def translation_length_exact(self, key):
        self.oracle_calls += 1
        return self.inner.translation_length_exact(key)


def _metric_answers(model, gens, radius):
    """What each guarded path answers about a few keys of each sphere of
    B(radius), from an index of B(radius - 1), so that the outer sphere
    takes the search fallbacks: norms, geodesic lengths and distances, then
    the translation-length bounds of three of the keys."""
    index = BallIndex(model, gens, radius - 1)
    keys = [k for sphere in BallIndex(model, gens, radius).spheres for k in sphere[:: max(1, len(sphere) // 3)]]
    elements = [GroupElement(model, k) for k in keys]
    norms = []
    for g in elements:
        geo = index.geodesic(g)
        assert model.normalize(geo.word) == g.key
        norms.append((index.distance_from_identity(g, radius), len(geo),
                      word_distance(model, gens, elements[-1], g, 2 * radius)))
    return norms, [translation_length(model, gens, g, 3) for g in elements[-3:]]


@pytest.mark.parametrize("model", [FreeGroup(2), FreeProductZ2Z3(), Braid3()], ids=["f2", "zz23", "braid3"])
def test_a_set_reads_the_closed_form_under_the_standard_letters_only(model):
    ball = BallIndex(model, model.standard_gens(), 5)
    keys = [k for sphere in ball.spheres for k in sphere]
    letters = [(a,) for a in range(1, model.alphabet.size + 1)]
    for words in (letters, letters[::-1]):
        gens = GeneratingSet(model, words, standard=True)
        assert [gens.exact_length(k) for k in keys] == [model.exact_length(k) for k in keys]
        if model.exact_length(model.identity_key()) is not None:
            assert [gens.exact_length(k) for k in keys] == [ball.norm(k) for k in keys]
    # the same letters not declared standard, and sets of longer words
    assert all(GeneratingSet(model, letters).exact_length(k) is None for k in keys)
    other = GeneratingSet(model, [*letters, (1, 2)], standard=True)
    assert all(other.exact_length(k) is None for k in keys)


def test_a_random_set_reads_no_closed_form():
    for _, gens, _ in _RANDOM_SETS:
        keys = [k for sphere in BallIndex(gens.model, gens.model.standard_gens(), 3).spheres for k in sphere]
        assert all(gens.exact_length(k) is None for k in keys)
    f2 = FreeGroup(2)
    assert GeneratingSet(f2, ["a", "b", "ab"], standard=True).exact_length(f2.element("ab").key) is None
    assert Braid3().standard_gens().exact_length(Braid3().element("aB").key) is None


@pytest.mark.parametrize("model_id,gens,radius", _RANDOM_SETS, ids=_RANDOM_IDS)
def test_no_closed_form_is_asked_under_a_random_set(model_id, gens, radius):
    spy = ClosedFormSpy(gens.model)
    _metric_answers(spy, GeneratingSet(spy, gens.element_words), min(radius, 6))
    assert spy.oracle_calls == 0


@pytest.mark.parametrize("model", [FreeGroup(2), FreeProductZ2Z3(), Braid3()], ids=["f2", "zz23", "braid3"])
def test_closed_forms_under_reordered_standard_letters_equal_the_searches(model):
    words = [(a,) for a in range(model.alphabet.size, 0, -1)]
    spy = ClosedFormSpy(model)
    norms, bounds = _metric_answers(spy, GeneratingSet(spy, words, standard=True), 5)
    assert spy.oracle_calls > 0
    searched_norms, searched_bounds = _metric_answers(model, GeneratingSet(model, words), 5)
    assert norms == searched_norms
    for fast, searched in zip(bounds, searched_bounds):
        assert fast.samples == searched.samples
        # the exact stable norm lies below every sampled d(id, g^n)/n
        assert fast.exact == (model.translation_length_exact(model.identity_key()) is not None)
        assert fast.upper <= searched.upper and (fast.exact or fast == searched)


@pytest.mark.parametrize(
    "model,words,radius,ball",
    [
        (FreeGroup(3), None, 8, free_ball_count(3, 8)),
        (FreeProductZ2Z3(), None, 24, 28_666),
        (FreeGroup(2), ["a", "b", "ab"], 9, 524_287),
    ],
    ids=["f3", "zz23", "f2-ab"],
)
def test_enumerate_ball_forms_one_product_per_new_element(model, words, radius, ball):
    # the follower rule leaves no redundant product on these sets: past the
    # |S|² of the table, every product the BFS forms is a new element
    gens = model.standard_gens() if words is None else GeneratingSet(model, words)
    counting = CountingModel(model)
    census = enumerate_ball(counting, gens, radius)
    assert census.ball_count() == ball
    assert counting.calls == len(gens) ** 2 + ball - 1


def test_budget_stops_the_bfs_within_one_pass(f3):
    gens = f3.standard_gens()
    r, n_gens = 5, len(gens)
    budget = free_ball_count(3, r) + 10
    counting = CountingModel(f3)
    census = enumerate_ball(counting, gens, 8, keep_elements=True, node_budget=budget)
    assert census.truncated and census.radius == r
    assert census.elements == enumerate_ball(f3, gens, r, keep_elements=True).elements
    # the table, B(r), then one pass of sphere r + 1: the elements of sphere
    # r ending in a, times a; a check after the whole sphere would have
    # formed all |S(r + 1)| = 18,750 of its products first
    assert counting.calls == n_gens**2 + free_ball_count(3, r) - 1 + free_sphere_count(3, r) // n_gens
    counting.calls = 0
    index = BallIndex(counting, gens, 8, node_budget=budget)
    assert index.truncated and index.spheres == census.elements
    assert len(index._last) == free_ball_count(3, r)  # the partial sphere is dropped
    assert len(index._parent) == free_ball_count(3, r) - 1  # with its parents
    # the index stops after the frontier key that overruns the budget: each
    # key of sphere r adds its five followers, and the third passes ball + 10
    assert counting.calls == n_gens**2 + free_ball_count(3, r) - 1 + 3 * (n_gens - 1)
