import random
from fractions import Fraction

import pytest

ACCEPTANCE_LINES = []


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    """Collect one pass/fail line per acceptance criterion; assert it."""
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status}: {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

from genlab.contraction import measure_scaled_ledger
from genlab.groups import Braid3, FreeGroup, FreeProductZ2Z3, GeneratingSet, GroupElement, GroupModel
from genlab.spaces import build_bass_serre_tree, build_cayley_tree


@pytest.fixture(scope="session")
def f2():
    return FreeGroup(2)


@pytest.fixture(scope="session")
def f3():
    return FreeGroup(3)


@pytest.fixture(scope="session")
def braid():
    return Braid3()


@pytest.fixture(scope="session")
def zz23():
    return FreeProductZ2Z3()


@pytest.fixture(scope="session")
def tree2():
    tree, action = build_cayley_tree(2)
    return tree, action


@pytest.fixture(scope="session")
def tree3():
    tree, action = build_cayley_tree(3)
    return tree, action


@pytest.fixture(scope="session")
def bass_serre():
    tree, quot_action, braid_action = build_bass_serre_tree()
    return tree, quot_action, braid_action


@pytest.fixture(scope="session")
def f2_ledger(f2, tree2):
    _, action = tree2
    return measure_scaled_ledger(
        f2, f2.standard_gens(), action, f2.element("a"), random.Random(0), segment_length=4
    )


@pytest.fixture(scope="session")
def zz23_ledger(zz23, bass_serre):
    _, quot_action, _ = bass_serre
    return measure_scaled_ledger(
        zz23, zz23.standard_gens(), quot_action, zz23.element("xy"), random.Random(0),
        segment_length=2, sample_radius=5, dominating=Fraction(1),
        window=(Fraction(1, 4), Fraction(2, 5)), cut_window=(Fraction(1, 4), Fraction(2, 5)),
    )


@pytest.fixture(scope="session")
def braid_ledger(braid, bass_serre):
    _, _, braid_action = bass_serre
    return measure_scaled_ledger(
        braid, braid.standard_gens(), braid_action, braid.element("aB"),
        random.Random(0), segment_length=4, sample_radius=4,
    )


def random_reduced_word(rng: random.Random, rank: int, length: int) -> tuple:
    out = []
    letters = [a for s in range(1, rank + 1) for a in (s, -s)]
    for _ in range(length):
        pool = [c for c in letters if not out or c != -out[-1]]
        out.append(rng.choice(pool))
    return tuple(out)


def random_word(rng: random.Random, size: int, length: int) -> tuple:
    letters = [a for s in range(1, size + 1) for a in (s, -s)]
    return tuple(rng.choice(letters) for _ in range(length))


def unpruned_bfs(model, gens, radius):
    """Independent reference: the plain shortlex BFS, which multiplies every
    node by every signed S-letter in ascending order and prunes nothing.
    Returns the sorted spheres and each key's first-visit S-letter path."""
    letters = [(s, gens.letter_element(s).key) for s in sorted(gens.signed_letters())]
    ident = model.identity_key()
    paths = {ident: ()}
    frontier, spheres = [ident], [[ident]]
    for _ in range(radius):
        nxt = []
        for k in frontier:
            for s, gk in letters:
                nk = model.mul_keys(k, gk)
                if nk not in paths:
                    paths[nk] = paths[k] + (s,)
                    nxt.append(nk)
        frontier = nxt
        spheres.append(sorted(nxt))
    return spheres, paths


class CountingModel:
    """A model that counts the ``mul_keys`` calls made through it.  The
    elements it makes (``element``, ``identity``, ``standard_gens``) are
    its own, so their products are counted too."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def mul_keys(self, a, b):
        self.calls += 1
        return self.inner.mul_keys(a, b)

    def element(self, word):
        return GroupElement(self, self.inner.element(word).key)

    def identity(self):
        return GroupElement(self, self.inner.identity_key())

    standard_gens = GroupModel.standard_gens

    def __getattr__(self, name):
        return getattr(self.inner, name)


# (model, ball radius) of each random generating set, by model id
RANDOM_GENS_MODELS = {"free:2": (FreeGroup(2), 4), "zz23": (FreeProductZ2Z3(), 9), "braid3": (Braid3(), 5)}


def random_generating_sets(seed: int = 1, count: int = 5) -> list:
    """(model id, generating set, ball radius) for ``count`` symmetric
    generating sets drawn by a seeded generator, the models in turn: the
    standard letters and two to four random words of length at most 3, in
    a shuffled order, repeats allowed (a word may name a listed element).
    None is flagged standard, so no closed form answers for them."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        model_id = list(RANDOM_GENS_MODELS)[i % len(RANDOM_GENS_MODELS)]
        model, radius = RANDOM_GENS_MODELS[model_id]
        letters = model.alphabet.signed_letters()
        words = [(a,) for a in range(1, model.alphabet.size + 1)]
        extra = rng.randint(2, 4)
        while len(words) < model.alphabet.size + extra:
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            if not model.element(w).is_identity():
                words.append(w)
        rng.shuffle(words)
        out.append((model_id, GeneratingSet(model, words), radius))
    return out
