"""Finitely generated groups as normal-form oracles.

Every model maps words over its alphabet to canonical hashable keys, so
element equality is exact key equality and no generic word problem has to
be solved: a :class:`GroupElement` is the pair (model, key), and words live
only where they are input (configs, generating sets).  Keys compare, hash
and sort; ``key_word`` turns a key back into a word, ``mul_keys`` and
``inverse_key`` multiply and invert keys, and ``key_repr`` is the text a
ball census writes for one.  Each model carries one group law,
``mul_keys``: a product walks only the seam where ``a`` meets ``b`` and
joins the rest as slices, and an inverse maps each letter or syllable.  A
model declares only the data ``identity_key`` and ``letter_keys``, and
``normalize`` is defined once, as the product of a word's letter keys.
A model answers for its own closed forms and geometry through optional
oracles that return None when it lacks them (``exact_length``,
``translation_length_exact``, ``quotient_key``, ``tree_action``, ...), and
classifies its elements with ``verdict``.  Supported models:

* :class:`FreeGroup` -- free reduction, exact geodesic lengths; keys are
  the reduced words stored as bytes (letter x as the byte 128 + x);
* :class:`FreeProductZ2Z3` -- syllable normal form for Z/2 * Z/3
  (isomorphic to PSL(2,Z)); keys are the syllables stored as bytes;
* :class:`Braid3` -- the 3-strand braid group as a central extension of
  Z/2 * Z/3 by the squared half-twist; keys are (central exponent,
  syllable bytes);
* :class:`FiniteSample` -- explicit multiplication table, for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence, Tuple

from .words import Word, invert, parse_word, format_word


@dataclass(frozen=True)
class GeneratorAlphabet:
    """Ordered generator labels; signed letter -i is the formal inverse of +i."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def signed_letters(self) -> Tuple[int, ...]:
        k = self.size
        return tuple(range(1, k + 1)) + tuple(range(-1, -k - 1, -1))

    def parse(self, text: str) -> Word:
        return parse_word(text, self.labels)

    def format(self, word: Sequence[int]) -> str:
        return format_word(word, self.labels)


class GroupModel:
    """Base class: a group presented through a normal-form oracle."""

    name: str
    alphabet: GeneratorAlphabet

    letter_keys: dict  # signed alphabet letter -> its key

    def normalize(self, word: Sequence[int]):
        """Canonical key of the element represented by ``word``: the product,
        through ``mul_keys``, of the keys of its letters.  A letter outside
        the alphabet raises ValueError.  Each product copies the running
        key, so the cost is linear in the word times the key length."""
        try:
            keys = [self.letter_keys[a] for a in word]
        except KeyError as missing:
            raise ValueError(f"letter {missing.args[0]} invalid for alphabet of {self.name}") from None
        return reduce(self.mul_keys, keys) if keys else self.identity_key()

    def mul_keys(self, a, b):
        """Key of the product."""
        raise NotImplementedError

    def key_word(self, key) -> Word:
        """Some word over the alphabet representing ``key``."""
        raise NotImplementedError

    def key_repr(self, key) -> str:
        """The text a ball census writes for ``key``."""
        return repr(key)

    def inverse_key(self, key):
        """Key of the inverse."""
        raise NotImplementedError

    def identity_key(self):
        raise NotImplementedError

    # Optional oracles: each answers None when the model lacks it ------

    default_phi: Optional[str] = None  # the distinguished element a config's phi defaults to

    def exact_length(self, key) -> Optional[int]:
        """Geodesic length w.r.t. the standard generators, when closed-form;
        then ``key_word(key)`` has this length and is a geodesic."""
        return None

    def center_membership(self, key) -> Optional[bool]:
        return None

    def translation_length_exact(self, key) -> Optional[int]:
        """Translation length on the model's tree, which is also the stable
        norm under the standard generators, when closed-form."""
        return None

    def subgroup_contains(self, gen_keys, key) -> Optional[bool]:
        """Whether ``key`` lies in the subgroup that ``gen_keys`` generate."""
        return None

    def quotient_key(self, key):
        """Key of the image modulo the center, for a central extension,
        which then also has ``coset_verdicts``."""
        return None

    def tree_action(self):
        """The :class:`~genlab.spaces.GroupAction` on the model's tree."""
        return None

    def verdict(self, key) -> Tuple[str, dict]:
        """(verdict, evidence) of the element: loxodromic on the tree iff its
        translation length is positive.  Raises ValueError when the model
        has no translation length."""
        tau = self.translation_length_exact(key)
        if tau is None:
            raise ValueError(f"classification unsupported for model {self.name}")
        return ("contracting-loxodromic" if tau > 0 else "non-loxodromic"), {"tree_translation_length": tau}

    # Convenience ------------------------------------------------------

    def element(self, word: Sequence[int] | str) -> "GroupElement":
        if isinstance(word, str):
            word = self.alphabet.parse(word)
        return GroupElement(self, self.normalize(word))

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_key())

    def standard_gens(self) -> "GeneratingSet":
        words = [(i,) for i in range(1, self.alphabet.size + 1)]
        return GeneratingSet(self, words, standard=True)


@dataclass(frozen=True)
class GroupElement:
    """An element of a model: its canonical key, which is the element."""

    model: GroupModel = field(compare=False)
    key: object = None

    @property
    def word(self) -> Word:
        """A word representing the element: ``model.key_word(key)``."""
        return self.model.key_word(self.key)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """The product, whose key is the product of the keys."""
        if other.model is not self.model:
            raise ValueError("elements of different models")
        return GroupElement(self.model, self.model.mul_keys(self.key, other.key))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.model, self.model.inverse_key(self.key))

    def __pow__(self, n: int) -> "GroupElement":
        """The n-th power, with its key by repeated squaring of keys."""
        base = self if n >= 0 else self.inverse()
        e = abs(n)
        if e == 0:
            return self.model.identity()
        mul = self.model.mul_keys
        key, square = None, base.key
        while True:
            if e & 1:
                key = square if key is None else mul(key, square)
            e >>= 1
            if not e:
                break
            square = mul(square, square)
        return GroupElement(self.model, key)

    def is_identity(self) -> bool:
        return self.key == self.model.identity_key()

    def __hash__(self):
        return hash((id(self.model), self.key))

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.model is self.model
            and other.key == self.key
        )

    def __repr__(self):
        try:
            return f"<{self.model.name}:{self.model.alphabet.format(self.word)}>"
        except NotImplementedError:  # a model without key words (a finite sample)
            return f"<{self.model.name}:{self.model.key_repr(self.key)}>"


class GeneratingSet:
    """A finite generating set, closed under inversion, identity removed.

    ``element_words`` are the words it was given, then the inverted word of
    each inverse it appends.  Signed S-letters index into ``self.elements``
    1-based; ``-j`` means the inverse of generator j.
    """

    def __init__(self, model: GroupModel, words: Sequence[Sequence[int] | str], standard: bool = False):
        self.model = model
        spelled: dict = {}  # element key -> its word, in the order listed
        for w in words:
            w = model.alphabet.parse(w) if isinstance(w, str) else tuple(w)
            g = model.element(w)
            if g.is_identity():
                raise ValueError(f"generating word {model.alphabet.format(w)!r} normalizes to the identity")
            spelled.setdefault(g.key, w)
        for key, w in list(spelled.items()):
            spelled.setdefault(model.inverse_key(key), invert(w))
        if not spelled:
            raise ValueError("empty generating set")
        self.elements = tuple(GroupElement(model, k) for k in spelled)
        self.element_words = tuple(spelled.values())
        self.standard = standard and all(len(w) == 1 for w in self.element_words)
        # signed S-letter -> group element and alphabet word; with the
        # standard generators, also alphabet letter -> the S-letter naming it
        self._by_letter, self._spelling, self.s_letter = {}, {}, {}
        for j, (g, w) in enumerate(zip(self.elements, self.element_words), start=1):
            self._by_letter[j], self._by_letter[-j] = g, g.inverse()
            self._spelling[j], self._spelling[-j] = w, invert(w)
            if len(w) == 1:
                self.s_letter.setdefault(w[0], j)
                self.s_letter.setdefault(-w[0], -j)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def letter_element(self, s_letter: int) -> GroupElement:
        return self._by_letter[s_letter]

    def signed_letters(self) -> Tuple[int, ...]:
        n = len(self.elements)
        return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))

    def spell(self, s_letters: Sequence[int]) -> Word:
        """Flatten a sequence of signed S-letters to an alphabet word."""
        out: list[int] = []
        for s in s_letters:
            out.extend(self._spelling[s])
        return tuple(out)

    def words(self) -> list[str]:
        return [self.model.alphabet.format(w) for w in self.element_words]

    def describe(self) -> str:
        return "{" + ",".join(self.words()) + "}"


# ---------------------------------------------------------------------------
# Free groups


class FreeGroup(GroupModel):
    """Free group of rank k; keys are freely reduced words stored as bytes.

    Letter x is the byte ``128 + x``, so the inverse of byte c is
    ``256 - c``.  The map is monotone: keys sort exactly as the signed-letter
    tuples they encode, so sorted spheres and shortlex order are those of
    the words.  Byte strings cache a SipHash, where the hashes of small-int
    tuples collide (``hash(-1) == hash(-2)``), and products are C slices.
    """

    max_rank = 127  # letters 1..127 and their inverses fill the bytes 1..255

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > self.max_rank:
            raise ValueError(f"rank must be <= {self.max_rank} (byte keys hold {self.max_rank} generators), got {rank}")
        self.rank = rank
        self.name = f"free:{rank}"
        self.alphabet = GeneratorAlphabet(tuple("abcdefghijklmnopqrstuvwxyz"[:rank]))
        # in the order a, A, b, B, ... (a Cayley tree's neighbours)
        self.letter_keys = {a: bytes((128 + a,)) for s in range(1, rank + 1) for a in (s, -s)}

    default_phi = "a"

    def identity_key(self):
        return b""

    def mul_keys(self, a, b):
        if not a or not b or a[-1] + b[0] != 256:
            return a + b
        la, m = len(a), min(len(a), len(b))
        n = 1
        while n < m and a[la - 1 - n] + b[n] == 256:
            n += 1
        return a[: la - n] + b[n:]

    def inverse_key(self, key):
        return key[::-1].translate(_BYTE_INVERSE)

    def key_word(self, key):
        return tuple(map(_BYTE_LETTER.__getitem__, key))

    def key_repr(self, key) -> str:
        return repr(self.key_word(key))

    def exact_length(self, key):
        return len(key)

    def translation_length_exact(self, key) -> int:
        """Standard-gens translation length: length of the cyclic reduction."""
        lo, hi = 0, len(key)
        while hi - lo >= 2 and key[lo] + key[hi - 1] == 256:
            lo += 1
            hi -= 1
        return hi - lo

    def subgroup_contains(self, gen_keys, key) -> bool:
        """Membership by Stallings folding (J. R. Stallings, "Topology of
        finite graphs", Invent. Math. 71 (1983); Kapovich and Myasnikov,
        "Stallings foldings and subgroups of free groups", J. Algebra 248
        (2002)).  Each generator's reduced word is a loop at a base vertex;
        while two edges with one label leave one vertex, their ends are
        identified.  The folded graph reads a reduced word as a closed path
        at the base exactly when the word lies in the subgroup."""
        parent = [0]  # union-find over the vertices
        out = [{}]  # vertex -> {letter byte: neighbour}; an edge is stored both ways
        pending = []  # directed edges still to add
        for g in gen_keys:
            u = 0
            for i, c in enumerate(g, 1):
                v = 0 if i == len(g) else len(parent)
                if v:
                    parent.append(v)
                    out.append({})
                pending += [(u, c, v), (v, 256 - c, u)]
                u = v

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        while pending:
            u, c, v = pending.pop()
            u, v = find(u), find(v)
            t = find(out[u].setdefault(c, v))
            if t != v:  # fold: v absorbs t, whose edges are added again from v
                parent[t] = v
                pending += [(v, x, y) for x, y in out[t].items()]
        v = base = find(0)
        for c in key:
            v = out[v].get(c)
            if v is None:
                return False
            v = find(v)
        return v == base

    def tree_action(self):
        """Left multiplication on the Cayley tree; None for rank 1."""
        if self.rank < 2:
            return None
        from .spaces import build_cayley_tree  # spaces imports groups

        return build_cayley_tree(self.rank)[1]


_BYTE_LETTER = tuple(c - 128 for c in range(256))  # key byte -> signed letter
_BYTE_INVERSE = bytes(-c % 256 for c in range(256))  # key byte -> byte of the inverse letter


# ---------------------------------------------------------------------------
# The free product Z/2 * Z/3

X_SYL = 0  # order-2 generator
# y-syllables are stored as 1 or 2 (the exponent)

_SYLL_KEY = (b"\x00", b"\x01", b"\x02")  # syllable -> the key of that one syllable
_SYLL_INVERSE = bytes((X_SYL, 2, 1, *range(3, 256)))  # translation table: x -> x, y^e -> y^(3-e)


def _is_y(s: int) -> bool:
    return s in (1, 2)


def _syllable_exponent(sylls: bytes) -> int:
    """x -> 3, y^e -> 2e: modulo 6 the abelianization Z/2 x Z/3 = Z/6 of
    Z/2 * Z/3, and the braid exponent sum of a syllable word's lift."""
    return sum(3 if s == X_SYL else 2 * s for s in sylls)


class FreeProductZ2Z3(GroupModel):
    """Z/2 * Z/3 = <x, y | x^2, y^3>, keys are alternating syllable bytes.

    A key is a byte string of syllables: ``0`` for x, ``1``/``2`` for
    y/y^2, with no two adjacent syllables of the same kind.  Byte keys sort
    exactly as the tuples of those syllables, which ``key_repr`` prints,
    and cache their hash.  With generators {x, y} the
    geodesic length of an element is its syllable count (y^2 = y^-1 costs
    one letter).  A product touches only the seam: x x cancels, and y^e y^f
    cancels when e + f = 3 and otherwise merges into one syllable, which
    ends the walk.  This product is the model's one group law: a word's key
    is the product of its letters' keys, x^+-1 -> x, y -> y and
    y^-1 -> y^2.  The inverse reverses the syllables and maps y^e to
    y^(3-e).
    """

    def __init__(self):
        self.name = "zz23"
        self.alphabet = GeneratorAlphabet(("x", "y"))

    default_phi = "xy"
    letter_keys = {1: _SYLL_KEY[X_SYL], -1: _SYLL_KEY[X_SYL], 2: _SYLL_KEY[1], -2: _SYLL_KEY[2]}

    def identity_key(self):
        return b""

    def mul_keys(self, a, b):
        # only the seam can cancel: a[:i] and b[j:] stay as they are
        i, j, lb = len(a), 0, len(b)
        while i and j < lb:
            s, t = a[i - 1], b[j]
            if s and t:  # y^s y^t
                e = (s + t) % 3
                if e:
                    return a[: i - 1] + _SYLL_KEY[e] + b[j + 1 :]
            elif s or t:  # syllables of different kinds
                break
            i -= 1  # x x = 1, or y^s y^t = 1
            j += 1
        return a[:i] + b[j:]

    def inverse_key(self, key):
        return key[::-1].translate(_SYLL_INVERSE)

    def key_repr(self, key) -> str:
        return repr(tuple(key))

    def key_word(self, key):
        out = []
        for s in key:
            if s == X_SYL:
                out.append(1)
            elif s == 1:
                out.append(2)
            else:
                out.append(-2)  # y^2 = y^-1, one letter
        return tuple(out)

    def exact_length(self, key):
        return len(key)

    @staticmethod
    def cyclic_syllable_reduction(key) -> bytes:
        """Cyclically reduce: conjugate until first/last syllables differ in kind.

        The result is empty or a single syllable for elliptic elements and an
        alternating word with distinct boundary kinds for hyperbolic ones.
        """
        sylls = list(key)
        while len(sylls) >= 2:
            a, b = sylls[0], sylls[-1]
            if a == X_SYL and b == X_SYL:
                sylls = sylls[1:-1]  # x w x  ->  w
            elif _is_y(a) and _is_y(b):
                e = (a + b) % 3
                sylls = sylls[1:-1]
                if e:
                    sylls = [e] + sylls  # rotate the merged syllable to the front
            else:
                break
        return bytes(sylls)

    def translation_length_exact(self, key) -> int:
        """Translation length on the Bass-Serre tree (0 iff elliptic)."""
        core = self.cyclic_syllable_reduction(key)
        return len(core) if len(core) >= 2 else 0

    def subgroup_contains(self, gen_keys, key) -> Optional[bool]:
        """False when the image of ``key`` in the abelianization Z/6 lies
        outside the subgroup that those of ``gen_keys`` generate, which holds
        the image of every member (an image inside proves nothing: None)."""
        return False if _syllable_exponent(key) % math.gcd(6, *map(_syllable_exponent, gen_keys)) else None

    def tree_action(self):
        from .spaces import build_bass_serre_tree  # spaces imports groups

        return build_bass_serre_tree()[1]


# ---------------------------------------------------------------------------
# The braid group on three strands

_SL2_GENS = {
    1: (1, 1, 0, 1),  # sigma_1
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),  # sigma_2
    -2: (1, 0, 1, 1),
}


def _sl2_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


_SL2_CENTER = ((1, 0, 0, 1), (-1, 0, 0, -1))

_SL2_SYLLABLE = (
    (0, 1, -1, 0),  # x = s1 s2 s1
    (0, 1, -1, 1),  # y = s1 s2
    (-1, 1, -1, 0),  # y^2 = s1 s2 s1 s2
)


def _sl2_type(m) -> str:
    """Nielsen-Thurston type of a 3-braid from its SL(2, Z) image m; the
    same for -m, so for every element of a center coset."""
    tr = abs(m[0] + m[3])
    if tr > 2:
        return "pseudoAnosov"
    if tr == 2 and m not in _SL2_CENTER:
        return "reducible"
    return "periodic"


def _projective_order(m) -> Optional[int]:
    """The least n with m^n = +-I, or None when m has infinite order in
    PSL(2, Z); the trace decides it (its torsion has order 2 or 3)."""
    if m in _SL2_CENTER:
        return 1
    return {0: 2, 1: 3, -1: 3}.get(m[0] + m[3])


class Braid3(GroupModel):
    """B_3 = <s1, s2 | s1 s2 s1 = s2 s1 s2> via the trefoil-group normal form.

    With x = s1 s2 s1 and y = s1 s2 one has x^2 = y^3 =: c, the generator of
    the center.  Every element is uniquely c^z * (lift of a syllable word in
    Z/2 * Z/3), so keys are pairs ``(z, syllables)``, the syllables a
    Z/2 * Z/3 key; ``key_repr`` prints them as a tuple.  Alphabet letters are
    a = s1, b = s2.  Products touch only the seam, as in Z/2 * Z/3, and add
    1 to z for each x^2 or y^3 there; this product is the model's one group
    law, and a word's key is the product of its letters' keys (each letter
    is c^-1 times two syllables).  The inverse works per syllable, each
    syllable's inverse costing one c^-1, and ``verdict`` multiplies one
    SL(2, Z) matrix per syllable and reads the projective order from the
    trace.
    """

    def __init__(self):
        self.name = "braid3"
        self.alphabet = GeneratorAlphabet(("a", "b"))

    default_phi = "aB"
    # s1 = y^-1 x = c^-1 y^2 x,  s1^-1 = x^-1 y = c^-1 x y,
    # s2 = x y^-1 = c^-1 x y^2,  s2^-1 = y x^-1 = c^-1 y x
    letter_keys = {1: (-1, bytes((2, X_SYL))), -1: (-1, bytes((X_SYL, 1))), 2: (-1, bytes((X_SYL, 2))),
                   -2: (-1, bytes((1, X_SYL)))}

    def identity_key(self):
        return (0, b"")

    def mul_keys(self, a, b):
        # only the seam can cancel, and each cancellation adds c to z
        z, a, b = a[0] + b[0], a[1], b[1]
        i, j, lb = len(a), 0, len(b)
        while i and j < lb:
            s, t = a[i - 1], b[j]
            if s and t:  # y^s y^t
                e = s + t
                if e >= 3:
                    z += 1  # y^3 = c
                    e -= 3
                if e:
                    return (z, a[: i - 1] + _SYLL_KEY[e] + b[j + 1 :])
            elif s or t:  # syllables of different kinds
                break
            else:
                z += 1  # x^2 = c
            i -= 1
            j += 1
        return (z, a[:i] + b[j:])

    def inverse_key(self, key):
        # x^-1 = c^-1 x, y^-1 = c^-1 y^2, y^-2 = c^-1 y
        z, sylls = key
        return (-z - len(sylls), sylls[::-1].translate(_SYLL_INVERSE))

    def key_repr(self, key) -> str:
        return repr((key[0], tuple(key[1])))

    def key_word(self, key):
        z, sylls = key
        # c = (s1 s2)^3, x = s1 s2 s1, y = s1 s2, y^2 = (s1 s2)^2
        out: list[int] = []
        if z > 0:
            out.extend((1, 2) * (3 * z))
        elif z < 0:
            out.extend((-2, -1) * (3 * -z))
        for s in sylls:
            if s == X_SYL:
                out.extend((1, 2, 1))
            else:
                out.extend((1, 2) * s)
        return tuple(out)

    def center_membership(self, key):
        return len(key[1]) == 0

    def quotient_key(self, key) -> bytes:
        """Image in Z/2 * Z/3 (= B_3 modulo its center)."""
        return key[1]

    def tree_action(self):
        """The action on the Bass-Serre tree through the central quotient."""
        from .spaces import build_bass_serre_tree  # spaces imports groups

        return build_bass_serre_tree()[2]

    def verdict(self, key) -> Tuple[str, dict]:
        """Nielsen-Thurston type from the trace of the SL(2, Z) image; the
        type is constant on a center coset."""
        z, sylls = key
        m = (1, 0, 0, 1)
        for s in sylls:
            m = _sl2_mul(m, _SL2_SYLLABLE[s])
        if z % 2:  # the center's generator c maps to -I
            m = tuple(-e for e in m)
        return _sl2_type(m), {
            "trace": m[0] + m[3],
            "projective_order": _projective_order(m),
            "central_exponent": z,
        }

    def coset_verdicts(self):
        """A function from a center coset's ``quotient_key`` to the verdict
        (``verdict(key)[0]``) of every key in it.  It keeps the SL(2, Z)
        image of each syllable prefix it meets, so a coset extending a known
        prefix costs one product per further syllable; the memo lives in
        the function, so each experiment makes its own."""
        images = {b"": (1, 0, 0, 1)}

        def verdict(sylls: bytes) -> str:
            n = len(sylls)
            while sylls[:n] not in images:
                n -= 1
            m = images[sylls[:n]]
            for i in range(n, len(sylls)):
                m = images[sylls[: i + 1]] = _sl2_mul(m, _SL2_SYLLABLE[sylls[i]])
            return _sl2_type(m)

        return verdict

    @staticmethod
    def exponent_sum(word: Sequence[int]) -> int:
        """The homomorphism to Z sending each standard generator to 1."""
        return sum(1 if a > 0 else -1 for a in word)

    def exponent_sum_key(self, key) -> int:
        # rho(c) = 6, rho(x) = 3, rho(y) = 2, rho(y^2) = 4
        z, sylls = key
        return 6 * z + _syllable_exponent(sylls)

    def subgroup_contains(self, gen_keys, key) -> Optional[bool]:
        """As for Z/2 * Z/3, in the abelianization B_3 -> Z, the exponent
        sum (the quotient's image in Z/6 is that sum modulo 6)."""
        e, d = self.exponent_sum_key(key), math.gcd(*map(self.exponent_sum_key, gen_keys))
        return False if (e % d if d else e) else None

    def sl2_image(self, word: Sequence[int]) -> Tuple[int, int, int, int]:
        m = (1, 0, 0, 1)
        for a in word:
            m = _sl2_mul(m, _SL2_GENS[a])
        return m


# ---------------------------------------------------------------------------
# Finite sample groups (explicit multiplication table)


class FiniteSample(GroupModel):
    """A finite group given by a multiplication table, for tests.

    ``table[i][j]`` is the product of elements i and j; 0 is the identity.
    ``generator_elements`` lists the table indices of the alphabet letters.
    """

    def __init__(self, name: str, table: Sequence[Sequence[int]], generator_elements: Sequence[int], labels: Sequence[str]):
        self.name = name
        self.table = [tuple(row) for row in table]
        n = len(self.table)
        if any(len(r) != n for r in self.table):
            raise ValueError("multiplication table must be square")
        self.alphabet = GeneratorAlphabet(tuple(labels))
        self.gen_idx = tuple(generator_elements)
        if len(self.gen_idx) != self.alphabet.size:
            raise ValueError("one table index per alphabet label required")
        self._inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    self._inv[i] = j
        if any(v is None for v in self._inv):
            raise ValueError("table has non-invertible rows; not a group")
        self.letter_keys = {}
        for x, g in enumerate(self.gen_idx, start=1):
            self.letter_keys[x], self.letter_keys[-x] = g, self._inv[g]

    def identity_key(self):
        return 0

    def mul_keys(self, a, b):
        return self.table[a][b]

    def key_word(self, key):
        raise NotImplementedError("finite samples carry no canonical words")

    def inverse_key(self, key):
        return self._inv[key]

    @classmethod
    def cyclic(cls, n: int) -> "FiniteSample":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(f"cyclic:{n}", table, [1 % n], ("t",))


def make_model(model_id: str) -> GroupModel:
    """Model factory used by configs: ``free:k``, ``zz23``, ``braid3``.

    A rank has one spelling, ASCII digits without a sign, space or leading
    zero, and is at most the 26 letters a config word can name; anything
    else raises ValueError.
    """
    rank = model_id[len("free:"):] if model_id.startswith("free:") else ""
    if rank.isascii() and rank.isdigit() and rank[0] != "0":
        group = FreeGroup(int(rank))  # beyond byte keys: ValueError
        if group.rank > group.alphabet.size:
            raise ValueError(f"rank must be <= {group.alphabet.size}, the letters a config word names, "
                             f"got {group.rank}")
        return group
    if model_id == "zz23":
        return FreeProductZ2Z3()
    if model_id == "braid3":
        return Braid3()
    raise ValueError(f"unknown model {model_id!r}")
