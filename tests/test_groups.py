"""Normal forms and the word machinery behind them."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.balls import enumerate_ball
from genlab.cli import run
from genlab.groups import (
    _SL2_CENTER,
    _SL2_SYLLABLE,
    Braid3,
    FiniteSample,
    FreeGroup,
    FreeProductZ2Z3,
    GeneratingSet,
    _sl2_mul,
    make_model,
)
from genlab.words import cyclic_reduce, free_reduce, invert, parse_word

from conftest import random_reduced_word, random_word

letters2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30).map(tuple)
letters_braid = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20).map(tuple)


@given(letters2)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(letters2)
def test_invert_is_involution(w):
    assert invert(invert(w)) == tuple(w)
    assert free_reduce(tuple(w) + invert(w)) == ()


@given(letters2)
def test_cyclic_reduce_length_conjugation_invariant(w):
    # conjugates share the cyclic-reduction length (it is the translation
    # length), though the words themselves agree only up to rotation
    core = cyclic_reduce(w)
    for a in (1, -2):
        assert len(cyclic_reduce((a,) + tuple(w) + (-a,))) == len(core)
    assert cyclic_reduce(core) == core


def test_parse_format_roundtrip(f2):
    w = f2.alphabet.parse("abAB")
    assert w == (1, 2, -1, -2)
    assert f2.alphabet.format(w) == "abAB"
    with pytest.raises(ValueError):
        f2.alphabet.parse("abc")


@given(letters_braid, letters_braid)
@settings(max_examples=300)
def test_braid_normalize_is_homomorphism(u, v):
    b = Braid3()
    assert b.mul_keys(b.normalize(u), b.normalize(v)) == b.normalize(u + v)


@given(letters_braid)
@settings(max_examples=300)
def test_braid_key_word_roundtrip(w):
    b = Braid3()
    k = b.normalize(w)
    assert b.normalize(b.key_word(k)) == k


def test_braid_relation_and_center(braid):
    assert braid.normalize((1, 2, 1)) == braid.normalize((2, 1, 2))
    d2 = braid.normalize((1, 2) * 3)
    assert d2 == (1, b"")
    assert braid.center_membership(d2)
    assert not braid.center_membership(braid.normalize((1,)))
    # the center commutes with everything
    rng = random.Random(1)
    for _ in range(200):
        w = random_word(rng, 2, rng.randrange(0, 10))
        k = braid.normalize(w)
        assert braid.mul_keys(d2, k) == braid.mul_keys(k, d2)


def _alternates(sylls):
    # no two adjacent syllables of the same kind (x = 0, y^e = 1 or 2)
    return set(sylls) <= {0, 1, 2} and all((s == 0) != (t == 0) for s, t in zip(sylls, sylls[1:]))


def _syllable_matrix(sylls):
    m = (1, 0, 0, 1)
    for s in sylls:
        m = _sl2_mul(m, _SL2_SYLLABLE[s])
    return m


letters_long = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40).map(tuple)


@given(w=letters_long)
@settings(max_examples=300)
def test_braid_exponent_sum_matches_key(braid, w):
    # an oracle for the normal form that is not mul_keys: the SL(2, Z) image
    # (c maps to -I) and the exponent sum are faithful together on B_3, as
    # the kernel of B_3 -> SL(2, Z) is <c^2> and c^2 has exponent sum 12
    z, sylls = braid.normalize(w)
    assert _alternates(sylls)
    m = _syllable_matrix(sylls)
    assert (m if z % 2 == 0 else tuple(-e for e in m)) == braid.sl2_image(w)
    assert braid.exponent_sum(w) == braid.exponent_sum_key((z, sylls))


_ZZ23_LETTER_MATRIX = {  # x -> X, x^-1 -> -X, y -> Y, y^-1 -> -Y^2, into SL(2, Z)
    1: _SL2_SYLLABLE[0],
    -1: tuple(-e for e in _SL2_SYLLABLE[0]),
    2: _SL2_SYLLABLE[1],
    -2: tuple(-e for e in _SL2_SYLLABLE[2]),
}


@given(w=letters_long)
@settings(max_examples=300)
def test_zz23_key_is_the_psl2_image(zz23, w):
    # Z/2 * Z/3 -> PSL(2, Z) is faithful, so the syllables must multiply to
    # the letters' product up to sign
    sylls = zz23.normalize(w)
    assert _alternates(sylls)
    m = (1, 0, 0, 1)
    for a in w:
        m = _sl2_mul(m, _ZZ23_LETTER_MATRIX[a])
    assert _syllable_matrix(sylls) in (m, tuple(-e for e in m))


def test_zz23_torsion(zz23):
    assert zz23.normalize((1, 1)) == b""
    assert zz23.normalize((2, 2, 2)) == b""
    assert zz23.normalize((2, 2)) == zz23.normalize((-2,))


def test_key_level_associativity():
    rng = random.Random(3)
    models = [FreeGroup(2), FreeGroup(3), FreeProductZ2Z3(), Braid3()]
    for model in models:
        k = model.alphabet.size
        for _ in range(10000):
            u, v, w = (model.normalize(random_word(rng, k, rng.randrange(0, 9))) for _ in range(3))
            assert model.mul_keys(model.mul_keys(u, v), w) == model.mul_keys(u, model.mul_keys(v, w))


def test_identity_multiplication_preserves_key():
    rng = random.Random(4)
    for model in [FreeGroup(2), FreeProductZ2Z3(), Braid3()]:
        for _ in range(100):
            g = model.element(random_word(rng, model.alphabet.size, rng.randrange(0, 8)))
            assert (g * model.identity()).key == g.key
            assert (g * g.inverse()).key == model.identity_key()


def test_generating_set_closure_and_validation(f2):
    gens = GeneratingSet(f2, ["a", "b"])
    assert len(gens) == 4  # inverses appended
    keys = {g.key for g in gens}
    assert f2.normalize((-1,)) in keys
    with pytest.raises(ValueError):
        GeneratingSet(f2, ["aA"])  # normalizes to the identity
    spelled = gens.spell((1, -1, 2))
    assert f2.normalize(spelled) == f2.normalize((2,))


def test_finite_sample_model():
    c6 = FiniteSample.cyclic(6)
    assert c6.normalize((1,) * 6) == 0
    assert c6.normalize((1, 1, -1)) == c6.normalize((1,))
    gens = c6.standard_gens()
    assert len(gens) == 2


def test_make_model():
    assert make_model("free:4").rank == 4
    assert make_model("braid3").name == "braid3"
    assert make_model("zz23").name == "zz23"
    with pytest.raises(ValueError):
        make_model("nope")
    with pytest.raises(ValueError, match="rank must be <= 26"):
        make_model("free:27")  # F_27 has a letter past z, which no config word names


@pytest.mark.parametrize("model_id", [f"free:{k}" for k in range(1, 27)] + ["zz23", "braid3"])
def test_radius_one_holds_the_generators_and_their_inverses(model_id):
    # a model id counts what it names: its sphere of radius 1 is exactly
    # the distinct non-identity keys of its letters and their inverses
    model = make_model(model_id)
    gens = model.standard_gens()
    sphere = enumerate_ball(model, gens, 1, keep_elements=True).elements[1]
    letters = set(model.letter_keys.values()) - {model.identity_key()}
    assert sorted(sphere) == sorted(letters)
    assert letters == {k for g in gens.elements for k in (g.key, model.inverse_key(g.key))} - {model.identity_key()}


_PRODUCT_MODELS = (FreeGroup(2), FreeProductZ2Z3(), Braid3(), FiniteSample.cyclic(5))


@given(st.data())
@settings(max_examples=400)
def test_product_and_power_keys_are_normal_forms(data):
    # products multiply keys and powers square them; each key must still be
    # the normal form of the concatenated input words
    model = data.draw(st.sampled_from(_PRODUCT_MODELS), label="model")
    words = st.lists(st.sampled_from(model.alphabet.signed_letters()), max_size=12).map(tuple)
    u, v = data.draw(words, label="u"), data.draw(words, label="v")
    n = data.draw(st.integers(-7, 7), label="n")
    g, h = model.element(u), model.element(v)
    prod = g * h
    assert prod.key == model.normalize(u + v)
    power = g**n
    spelled = (u if n >= 0 else invert(u)) * abs(n)
    assert power.key == model.normalize(spelled)
    chained = g * h * g.inverse()
    assert chained.key == model.normalize(u + v + invert(u))


def test_normalize_rejects_letters_outside_the_alphabet():
    for model in _PRODUCT_MODELS:
        k = model.alphabet.size
        for a in (0, k + 1, -(k + 1)):
            for w in ((a,), (1, a)):
                with pytest.raises(ValueError, match="invalid"):
                    model.normalize(w)


@given(st.data())
@settings(max_examples=300)
def test_inverse_key_inverts(data):
    model = data.draw(st.sampled_from(_PRODUCT_MODELS), label="model")
    w = data.draw(st.lists(st.sampled_from(model.alphabet.signed_letters()), max_size=12).map(tuple), label="w")
    k = model.normalize(w)
    assert model.mul_keys(model.inverse_key(k), k) == model.identity_key()
    assert model.inverse_key(k) == model.normalize(invert(w))


_SEAM_MODELS = (FreeGroup(2), FreeProductZ2Z3(), Braid3())


@given(st.data())
@settings(max_examples=400)
def test_seam_products_and_inverses_are_normal_forms(data):
    # v first undoes a suffix of u, so the product cancels deep across the
    # seam (x x -> 1 or c, then a y-merge, ...); the oracle re-normalizes
    # the concatenated words
    model = data.draw(st.sampled_from(_SEAM_MODELS), label="model")
    letters = st.sampled_from(model.alphabet.signed_letters())
    u = data.draw(st.lists(letters, max_size=16).map(tuple), label="u")
    cut = data.draw(st.integers(0, len(u)), label="cut")
    v = invert(u[cut:]) + data.draw(st.lists(letters, max_size=6).map(tuple), label="w")
    keys = [model.normalize(u), model.normalize(v)]
    assert model.mul_keys(*keys) == model.normalize(u + v)
    if isinstance(model, Braid3):  # shift by powers of the center, so z takes either sign
        keys = [(z + data.draw(st.integers(-4, 4), label="dz"), sylls) for z, sylls in keys]
    a, b = keys
    assert model.mul_keys(a, b) == model.normalize(model.key_word(a) + model.key_word(b))
    for k in keys:
        assert model.inverse_key(k) == model.normalize(invert(model.key_word(k)))


def test_syllable_sl2_images_are_their_letter_words(braid):
    # x = aba, y = ab, y^2 = abab
    for s, word in ((0, "aba"), (1, "ab"), (2, "abab")):
        letters = braid.alphabet.parse(word)
        assert braid.key_word((0, (s,))) == letters
        assert _SL2_SYLLABLE[s] == braid.sl2_image(letters)


@given(letters_braid, st.integers(-3, 3))
@settings(max_examples=300)
def test_braid_verdict_is_the_letter_word_computation(w, dz):
    # the SL(2, Z) image of the whole key word, center power included
    # (c = (ab)^3 maps to -I), for keys with odd and even z
    b = Braid3()
    z, sylls = b.normalize(w)
    key = (z + dz, sylls)
    m = b.sl2_image(b.key_word(key))
    tr = m[0] + m[3]
    if abs(tr) > 2:
        expected = "pseudoAnosov"
    elif abs(tr) == 2 and m not in _SL2_CENTER:
        expected = "reducible"
    else:
        expected = "periodic"
    power, order = m, None  # the least n <= 12 with m^n = +-I
    for n in range(1, 13):
        if power in _SL2_CENTER:
            order = n
            break
        power = _sl2_mul(power, m)
    evidence = {"trace": tr, "projective_order": order, "central_exponent": key[0]}
    assert b.verdict(key) == (expected, evidence)


@pytest.mark.parametrize("gens_words", [None, ["a", "b", "aba"]], ids=["standard", "ab-aba"])
def test_braid_coset_verdicts_match_verdict(gens_words):
    # every key of B(10), in BFS order and then longest first (so a memo
    # made fresh must fill each prefix from the identity), has the verdict
    # of its center coset, odd and even central exponents alike
    b = Braid3()
    gens = b.standard_gens() if gens_words is None else GeneratingSet(b, gens_words)
    keys = [key for sphere in enumerate_ball(b, gens, 10, keep_elements=True).elements for key in sphere]
    assert len({b.quotient_key(key) for key in keys}) > 5000
    for order in (keys, keys[::-1]):
        coset_verdict = b.coset_verdicts()
        for key in order:
            assert coset_verdict(b.quotient_key(key)) == b.verdict(key)[0], key


# -- free-group keys: reduced words stored as the bytes 128 + x ------------

_FREE_GROUPS = tuple(FreeGroup(k) for k in range(1, 5))


@st.composite
def _free_group_and_words(draw, count):
    model = draw(st.sampled_from(_FREE_GROUPS), label="model")
    words = st.lists(st.sampled_from(model.alphabet.signed_letters()), max_size=16).map(tuple)
    return (model,) + tuple(draw(words, label=f"w{j}") for j in range(count))


@given(_free_group_and_words(1))
@settings(max_examples=300)
def test_free_key_decodes_to_the_reduced_word(args):
    model, w = args
    assert model.key_word(model.normalize(w)) == free_reduce(w)


@given(_free_group_and_words(2))
@settings(max_examples=300)
def test_free_key_product_is_normal_form_of_concatenation(args):
    model, u, v = args
    assert model.mul_keys(model.normalize(u), model.normalize(v)) == model.normalize(u + v)


@given(_free_group_and_words(1))
@settings(max_examples=300)
def test_free_key_translation_length_is_cyclic_reduction(args):
    model, w = args
    assert model.translation_length_exact(model.normalize(w)) == len(cyclic_reduce(w))


@given(_free_group_and_words(2))
@settings(max_examples=300)
def test_free_key_order_is_word_order(args):
    # the byte map 128 + x is monotone, so keys sort as their words do
    model, u, v = args
    ku, kv = model.normalize(u), model.normalize(v)
    assert (ku < kv) == (free_reduce(u) < free_reduce(v))
    assert (ku == kv) == (free_reduce(u) == free_reduce(v))


def test_free_ball_keys_have_distinct_hashes(f2):
    # tuples of small ints collide (hash(-1) == hash(-2)); byte keys must not
    gens = GeneratingSet(f2, ["a", "b", "ab"])
    census = enumerate_ball(f2, gens, 6, keep_elements=True)
    keys = [k for sphere in census.elements for k in sphere]
    assert len(keys) == census.ball_count() == 1 + 6 * (4**6 - 1) // 3
    assert len({hash(k) for k in keys}) == len(keys)


def test_free_ball_elements_written_as_words(tmp_path):
    # the element strings of a kept free-group ball are the reprs of the
    # signed-letter tuples, not of the byte keys
    doc = {"experiments": [{"kind": "enumerate", "name": "e", "model": "free:2", "radius": 1,
                            "keep_elements": True}]}
    assert run(doc, tmp_path, 0, "scaled", None) == 0
    elements = json.loads((tmp_path / "e.json").read_text())["elements"]
    assert elements == [["()"], ["(-2,)", "(-1,)", "(1,)", "(2,)"]]


def test_syllable_key_repr_is_the_tuple_text(zz23, braid):
    # ball censuses write the text the tuple keys had before keys were bytes
    assert [zz23.key_repr(zz23.element(w).key) for w in ("", "x", "Y", "xyx")] == ["()", "(0,)", "(2,)", "(0, 1, 0)"]
    assert [braid.key_repr(braid.element(w).key) for w in ("", "a", "B", "ababab")] == [
        "(0, ())", "(-1, (2, 0))", "(-1, (1, 0))", "(1, ())"]


def _tuple_key(key):
    """A zz23 or braid3 key as the tuple it was before keys were bytes."""
    return (key[0], tuple(key[1])) if isinstance(key, tuple) else tuple(key)


@pytest.mark.parametrize("model_id, gens_words, radius", [
    ("braid3", None, 8), ("braid3", ["a", "b", "aba"], 8), ("zz23", None, 12),
], ids=["braid3", "braid3-aba", "zz23"])
def test_syllable_byte_keys_sort_as_tuple_keys(model_id, gens_words, radius):
    model = make_model(model_id)
    gens = model.standard_gens() if gens_words is None else GeneratingSet(model, gens_words)
    census = enumerate_ball(model, gens, radius, keep_elements=True)
    for sphere in census.elements:
        old = [_tuple_key(k) for k in sphere]
        assert old == sorted(old)
        assert [model.key_repr(k) for k in sphere] == [repr(k) for k in old]
    assert len({_tuple_key(k) for sphere in census.elements for k in sphere}) == census.ball_count()


_HAND_CHECKED = [
    (["aa", "b"], "a", False), (["aa", "b"], "aabA", False), (["aa", "b"], "Baab", True),
    (["ab"], "a", False), (["ab"], "BABA", True),
    (["ab", "b"], "a", True), (["aba", "ab"], "a", True), (["aab", "ab"], "a", True),
    (["abA", "b"], "a", False), (["abA", "b"], "abAb", True), (["ab", "ba"], "b", False),
]


@pytest.mark.parametrize("gens_words, word, member", _HAND_CHECKED,
                         ids=[f"{word}-in-{'-'.join(gens)}" for gens, word, _ in _HAND_CHECKED])
def test_free_subgroup_membership_hand_checked(f2, gens_words, word, member):
    # each non-member fails an exponent-sum count that every generator passes
    gen_keys = [g.key for g in GeneratingSet(f2, gens_words)]
    assert f2.subgroup_contains(gen_keys, f2.element(word).key) is member


def test_free_subgroup_membership_matches_the_ball(f2):
    """On seeded random subgroups of F2 whose generators have an even
    exponent sum in a, every key of a ball of the subgroup is a member, and
    a, and a times each generator, which have an odd sum, are not."""
    rng = random.Random(24)
    for _ in range(12):
        words, count = [], rng.randint(2, 3)
        while len(words) < count:
            w = random_reduced_word(rng, 2, rng.randint(1, 5))
            if sum(abs(x) == 1 for x in w) % 2 == 0:
                words.append(w)
        gens = GeneratingSet(f2, words)
        gen_keys = [g.key for g in gens]
        for sphere in enumerate_ball(f2, gens, 4, keep_elements=True).elements:
            assert all(f2.subgroup_contains(gen_keys, key) for key in sphere), words
        a = f2.element("a")
        for x in (a, *(a * g for g in gens)):
            assert f2.subgroup_contains(gen_keys, x.key) is False, (words, x)


_ABELIAN_CHECKED = [
    ("zz23", ["xyxy"], "xy", False), ("zz23", ["x", "yxY"], "xy", False), ("zz23", ["xyxy"], "xyxyxyxy", None),
    ("zz23", ["x", "y"], "xy", None), ("zz23", ["xyxy", "xy"], "xy", None),
    ("braid3", ["aa", "bb"], "a", False), ("braid3", ["aa"], "aaa", False), ("braid3", ["a", "bb"], "a", None),
    # s1 is not in <s1^2, s2>, whose image in S_3 lacks s1's transposition,
    # but the exponent sums cannot tell
    ("braid3", ["aa", "b"], "a", None),
]


@pytest.mark.parametrize("model_id, gens_words, word, answer", _ABELIAN_CHECKED,
                         ids=[f"{m}-{word}-in-{'-'.join(gens)}" for m, gens, word, _ in _ABELIAN_CHECKED])
def test_abelian_image_subgroup_membership_hand_checked(model_id, gens_words, word, answer):
    # zz23 maps x -> 3, y -> 2 in Z/6 (xy -> 5, xyxy -> 4, yxY -> 3);
    # braid3 maps each letter to its sign in Z
    model = make_model(model_id)
    gen_keys = [g.key for g in GeneratingSet(model, gens_words)]
    assert model.subgroup_contains(gen_keys, model.element(word).key) is answer


def _abelian_image(model, key) -> int:
    """From the key's word: zz23 x -> 3, y -> 2 (so Y -> -2) in Z/6;
    braid3 the exponent sum in Z."""
    word = model.key_word(key)
    if isinstance(model, Braid3):
        return Braid3.exponent_sum(word)
    return sum(3 if abs(a) == 1 else a for a in word) % 6


def test_abelian_image_never_rules_out_a_member(zz23, braid):
    """On seeded random subgroups of zz23 and braid3, every key of a ball
    of the subgroup answers None, and each letter answers False exactly
    when no small combination of the generators' images reaches its image
    (generators of length at most 4 need coefficients of at most 4)."""
    rng = random.Random(25)
    ruled_out = Counter()
    for model in (zz23, braid) * 6:
        words = [random_word(rng, 2, rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        gens = GeneratingSet(model, [w for w in words if not model.element(w).is_identity()] or [(1,)])
        gen_keys = [g.key for g in gens]
        for sphere in enumerate_ball(model, gens, 4, keep_elements=True).elements:
            assert all(model.subgroup_contains(gen_keys, key) is None for key in sphere), words
        generated = {sum(c * _abelian_image(model, k) for c, k in zip(cs, gen_keys))
                     for cs in itertools.product(range(-6, 7), repeat=len(gen_keys))}
        if model is zz23:
            generated = {v % 6 for v in generated}
        for letter in (1, -1, 2, -2):
            key = model.element((letter,)).key
            outside = _abelian_image(model, key) not in generated
            assert model.subgroup_contains(gen_keys, key) is (False if outside else None), (words, letter)
            ruled_out[model.name] += outside
    assert ruled_out["zz23"] and ruled_out["braid3"]


def test_subgroup_membership_is_unknown_off_the_free_groups(zz23, braid):
    for model in (zz23, braid):
        gen_keys = [g.key for g in model.standard_gens()]
        assert model.subgroup_contains(gen_keys, model.identity_key()) is None
