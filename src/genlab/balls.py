"""Word-metric balls: enumeration, distances, geodesics, translation lengths.

All computations run over canonical keys, so deduplication and equality are
exact.  Ball enumeration is a single-threaded breadth-first search.

The BFS loops that know each node's last letter multiply it only by that
letter's followers (:func:`_followers`, the first step of Cannon's cone
types): if x = p·s was found from p, then x·t = p·(s·t) already lies in
the ball whenever s·t is a generator or the identity, so x·t is not formed.
A generating set is closed under inversion, so the rule holds for every
model and generating set, and it skips only products that are already
visited.  :func:`word_distance`'s bidirectional frontiers carry no
letters, so it multiplies by every generator.  The enumeration forms a
pass's products in one ``map`` and filters them against the visited set
only when ``isdisjoint`` finds one already there: a pass of only new keys
(most passes, under the follower rule) is tested in one C call, not one
Python test per key.  The enumeration and the index check their node
budget within a sphere (after each pass, after each frontier key), so
they stop one pass or one key after outgrowing it; the geodesic search
checks after whole spheres, since its target may lie in the sphere that
overruns the budget.

:class:`BallIndex` keeps one shortlex BFS tree of a ball (the last S-letter
and the parent of each key) and answers geodesic and norm queries inside
it by walking back through the parents, forming no product;
:func:`geodesic_representative` grows such a tree until it meets its
target, and :func:`word_distance` runs a new search per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Optional

from .groups import GeneratingSet, GroupElement, GroupModel
from .words import Word


class BudgetExceeded(RuntimeError):
    """Raised when an operation would outgrow its node budget."""


@dataclass
class BallCensus:
    """Sphere/ball counts of a word metric, optionally with the elements."""

    model_name: str
    gens_words: list[str]
    radius: int
    sphere_counts: list[int]
    elements: Optional[list[list]] = None  # per-radius sorted key lists
    truncated: bool = False
    key_repr: Callable = field(default=repr, repr=False, compare=False)  # the model's key text

    @property
    def ball_counts(self) -> list[int]:
        out, total = [], 0
        for c in self.sphere_counts:
            total += c
            out.append(total)
        return out

    def ball_count(self, r: Optional[int] = None) -> int:
        if r is None:
            r = self.radius
        return sum(self.sphere_counts[: r + 1])

    def growth_sequence(self) -> list[float]:
        """ln(#B(n))/n for n = 1..radius (Fekete-subadditive for groups)."""
        balls = self.ball_counts
        return [math.log(balls[n]) / n for n in range(1, len(balls))]

    def to_csv(self) -> str:
        lines = ["radius,sphere_count,ball_count,ln_ball_over_n"]
        balls = self.ball_counts
        for r, s in enumerate(self.sphere_counts):
            ln_over = "" if r == 0 else repr(math.log(balls[r]) / r)
            lines.append(f"{r},{s},{balls[r]},{ln_over}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        doc = {
            "model": self.model_name,
            "gens": self.gens_words,
            "radius": self.radius,
            "sphere_counts": self.sphere_counts,
            "ball_counts": self.ball_counts,
            "truncated": self.truncated,
        }
        if self.elements is not None:
            doc["elements"] = [[self.key_repr(k) for k in sphere] for sphere in self.elements]
        return doc


def enumerate_ball(
    model: GroupModel,
    gens: GeneratingSet,
    radius: int,
    keep_elements: bool = False,
    node_budget: Optional[int] = None,
) -> BallCensus:
    """BFS the ball of the given radius, deduplicating by canonical key.

    Each sphere is kept in buckets, one per discovering generator, and a
    bucket is multiplied only by that generator's followers (see
    :func:`_followers`); the identity is multiplied by every generator.
    Spheres are sorted.  The table costs |S|² products; where the follower
    rule leaves no redundant product (free groups, zz23 and free:2 over
    {a, b, ab}) the BFS then forms exactly |B(R)| - 1 more.
    ``node_budget`` is checked after each bucket × letter pass: once the
    visited nodes outgrow it the census is returned truncated (sphere
    counts up to the last complete radius are kept).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ident = model.identity_key()
    visited = {ident}
    sphere_counts = [1]
    spheres = [[ident]] if keep_elements else None
    gen_keys = [g.key for g in gens.elements]
    follow = _followers(model, gen_keys)
    mul = model.mul_keys
    limit = math.inf if node_budget is None else node_budget
    truncated = False
    # (bucket, generator position, generator key): products of one pass are
    # distinct, since x·t = y·t only when x = y
    passes = [([ident], j, t) for j, t in enumerate(gen_keys)]
    for _r in range(radius):
        buckets = [[] for _ in gen_keys]
        for bucket, j, t in passes:
            new = list(map(mul, bucket, repeat(t)))
            if not visited.isdisjoint(new):
                new = [k for k in new if k not in visited]
            visited.update(new)
            buckets[j] += new
            if len(visited) > limit:
                truncated = True
                break
        if truncated:
            break
        sphere_counts.append(sum(map(len, buckets)))
        if spheres is not None:
            # sorted buckets feed the next passes sorted runs, and the
            # sphere sorts as a merge of them
            for bucket in buckets:
                bucket.sort()
            spheres.append(sorted(chain.from_iterable(buckets)))
        passes = [(bucket, j, gen_keys[j]) for bucket, row in zip(buckets, follow) if bucket for j in row]

    return BallCensus(
        model_name=model.name,
        gens_words=gens.words(),
        radius=len(sphere_counts) - 1,
        sphere_counts=sphere_counts,
        elements=spheres,
        truncated=truncated,
        key_repr=model.key_repr,
    )


def _followers(model: GroupModel, gen_keys: list) -> list[list[int]]:
    """For each generator s (by position in ``gen_keys``), the positions of
    the generators t with s·t outside S ∪ {1}.

    If x = p·s was found from p, then x·t = p·(s·t) lies within one step of
    p, so a BFS need not form it; only the followers of its last letter can
    leave the ball.  ``gen_keys`` must be closed under inversion.
    """
    near = set(gen_keys)
    near.add(model.identity_key())
    mul = model.mul_keys
    return [[j for j, t in enumerate(gen_keys) if mul(s, t) not in near] for s in gen_keys]


def _shortlex_steps(model: GroupModel, gens: GeneratingSet) -> dict:
    """For each last S-letter of a shortlex BFS (0 at the identity), the
    (letter, key) pairs it multiplies by, in ascending letter order.

    Of several letters naming one element only the least can discover
    anything, so the others are never multiplied; the identity takes every
    remaining letter, and each letter only its followers.
    """
    step, seen = [], set()
    for s in sorted(gens.signed_letters()):
        key = gens.letter_element(s).key
        if key not in seen:
            seen.add(key)
            step.append((s, key))
    follow = {0: step}
    for (s, _), row in zip(step, _followers(model, [key for _, key in step])):
        follow[s] = [step[j] for j in row]
    return follow


def free_ball_count(rank: int, radius: int) -> int:
    """#B(radius) in the free group of the given rank, standard generators."""
    if radius < 0:
        return 0
    k2 = 2 * rank
    if rank == 1:
        return 2 * radius + 1
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


def free_sphere_count(rank: int, radius: int) -> int:
    if radius == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (radius - 1)


def word_distance(
    model: GroupModel,
    gens: GeneratingSet,
    g: GroupElement,
    h: GroupElement,
    r_max: int,
    node_budget: Optional[int] = None,
) -> Optional[int]:
    """Exact d_S(g, h) when it is at most ``r_max`` (``math.inf``: no cap), else None.

    Bidirectional BFS over canonical keys.  Under the standard generators
    the model's closed-form length is used when it has one.  Raises
    :class:`BudgetExceeded` if the search outgrows ``node_budget`` nodes.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if g.key == h.key:
        return 0
    target = model.mul_keys(model.inverse_key(g.key), h.key)
    if gens.standard:
        n = model.exact_length(target)
        if n is not None:
            return n if n <= r_max else None

    ident = model.identity_key()
    gen_keys = [x.key for x in gens.elements]
    fwd = {ident: 0}
    bwd = {target: 0}
    f_frontier, b_frontier = [ident], [target]
    dist_f = dist_b = 0
    while dist_f + dist_b < r_max and (f_frontier or b_frontier):
        # expand the smaller frontier
        if f_frontier and (len(f_frontier) <= len(b_frontier) or not b_frontier):
            dist_f += 1
            nxt = []
            for k in f_frontier:
                for gk in gen_keys:
                    nk = model.mul_keys(k, gk)
                    if nk not in fwd:
                        fwd[nk] = dist_f
                        if nk in bwd:
                            return dist_f + bwd[nk]
                        nxt.append(nk)
            f_frontier = nxt
        else:
            dist_b += 1
            nxt = []
            for k in b_frontier:
                for gk in gen_keys:
                    nk = model.mul_keys(k, gk)  # gens closed under inversion
                    if nk not in bwd:
                        bwd[nk] = dist_b
                        if nk in fwd:
                            return fwd[nk] + dist_b
                        nxt.append(nk)
            b_frontier = nxt
        if node_budget is not None and len(fwd) + len(bwd) > node_budget:
            raise BudgetExceeded(f"a distance search outgrew the node budget {node_budget}")
    return None


@dataclass
class GeodesicWord:
    """A geodesic spelling of an element over a generating set.

    ``s_letters`` are signed 1-based indices into the generating set; the
    flattened alphabet word is in ``word``.  A search gives the shortlex
    least spelling (length first, then lexicographic on signed S-indices);
    a closed form may give another (see :func:`geodesic_representative`).
    """

    s_letters: tuple
    word: Word

    def __len__(self):
        return len(self.s_letters)


def _closed_form_geodesic(model: GroupModel, gens: GeneratingSet, key) -> Optional[GeodesicWord]:
    """The identity's empty spelling, and under the standard generators (in
    any order) the word ``key_word(key)`` of a model with a closed-form
    length (a geodesic by the ``exact_length`` contract), spelled in the
    set's S-letters; None when a search is needed."""
    if key == model.identity_key():
        return GeodesicWord((), ())
    if gens.standard and model.exact_length(key) is not None:
        word = model.key_word(key)
        return GeodesicWord(tuple(map(gens.s_letter.__getitem__, word)), word)
    return None


def geodesic_representative(
    model: GroupModel,
    gens: GeneratingSet,
    g: GroupElement,
    node_budget: Optional[int] = None,
) -> Optional[GeodesicWord]:
    """A geodesic word for g, or None if the budget runs out: the shortlex
    least one of a BFS, or the closed form's normal-form word, which need
    not be shortlex-least (a generating set lists each inverse as a
    generator of its own, so in F_2 A is both S-letter -1 and 3).

    The BFS is a :class:`BallIndex` grown a sphere at a time until it meets
    g.  The budget is checked after each whole sphere, not within one: the
    target may lie in the sphere that overruns the budget, and it is still
    returned."""
    closed = _closed_form_geodesic(model, gens, g.key)
    if closed is not None:
        return closed
    tree = BallIndex(model, gens, 0)
    frontier = tree.spheres[0]
    while frontier:
        frontier, met = tree._grow(frontier, target=g.key)
        if met:
            return tree.geodesic(g)
        if node_budget is not None and len(tree._last) > node_budget:
            return None
    return None


class BallIndex:
    """The ball of a given radius from one shortlex BFS, answering geodesic
    and norm queries without a new search.

    Each element is first visited from its parent, the prefix of its
    shortlex-least geodesic one letter shorter (shortlex-least geodesics
    are prefix-closed), by the least letter.  The index stores each key's
    last S-letter and parent, and ``walk`` follows the parents back to the
    identity, so ``geodesic``, ``norm`` and a geodesic's prefixes are read
    without forming a product.  Each key is multiplied only by the
    followers of its last letter (see :func:`_followers`); every product
    skipped is already in the ball, so each first visit, sphere, geodesic
    and norm is the one of the full BFS.  ``spheres[r]`` lists the keys at
    distance r in sorted order, as ``enumerate_ball(..., keep_elements=True)``
    does.  Queries about keys outside the ball fall back to the searches
    they replace; a complete index also answers the norm of a key outside it
    by a search that stops at the ball (:meth:`norm_beyond`).
    ``node_budget`` bounds the nodes held at once and is
    checked after each frontier key: once the ball outgrows it, the index
    drops the partial sphere, stops at the last complete radius and is
    ``truncated``; a fallback search may hold what the ball leaves of it
    and raises :class:`BudgetExceeded` if it outgrows that.
    """

    def __init__(
        self,
        model: GroupModel,
        gens: GeneratingSet,
        radius: int,
        node_budget: Optional[int] = None,
    ):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.model, self.gens, self.node_budget = model, gens, node_budget
        ident = model.identity_key()
        self._follow = _shortlex_steps(model, gens)
        self._last = {ident: 0}  # key -> last S-letter of its geodesic; 0 at the identity
        self._parent = {}  # key -> the key one letter back; none at the identity
        self.spheres = [[ident]]
        self.truncated = False
        limit = math.inf if node_budget is None else node_budget
        frontier = self.spheres[0]
        for _r in range(radius):
            frontier, self.truncated = self._grow(frontier, limit)
            if self.truncated:
                for k in frontier:
                    del self._last[k], self._parent[k]
                break
            self.spheres.append(sorted(frontier))
        self.radius = len(self.spheres) - 1

    def _grow(self, frontier: list, limit=math.inf, target=None) -> tuple:
        """The keys one letter past ``frontier``, stored with their last letter
        and parent, in discovery (= shortlex) order when ``frontier`` is; and
        whether it stopped early, after the frontier key whose products
        outgrow ``limit`` nodes or reach ``target``."""
        last, parent, follow, mul = self._last, self._parent, self._follow, self.model.mul_keys
        nxt = []
        for k in frontier:
            for s, gk in follow[last[k]]:
                nk = mul(k, gk)
                if nk not in last:
                    last[nk] = s
                    parent[nk] = k
                    nxt.append(nk)
            if len(last) > limit or target in last:
                return nxt, True
        return nxt, False

    def __contains__(self, key) -> bool:
        return key in self._last

    def walk(self, key) -> tuple:
        """(keys, letters) along the shortlex-least geodesic s_1...s_n of a
        key in the ball, walked back through the parents: ``keys`` are the
        prefixes s_1...s_i for i = n down to 0 (the key first, the identity
        last) and ``letters`` are s_n, ..., s_1.  Forms no product."""
        keys, letters = [key], []
        last, parent = self._last, self._parent
        s = last[key]
        while s:
            letters.append(s)
            key = parent[key]
            keys.append(key)
            s = last[key]
        return keys, letters

    def geodesic(self, g: GroupElement) -> Optional[GeodesicWord]:
        """``geodesic_representative(model, gens, g)``, by a walk back
        through the ball when g lies in it."""
        closed = _closed_form_geodesic(self.model, self.gens, g.key)
        if closed is not None:
            return closed
        if g.key not in self._last:
            geo = geodesic_representative(self.model, self.gens, g, self._search_budget())
            if geo is None:
                raise BudgetExceeded(f"a geodesic search outgrew the node budget {self.node_budget}")
            return geo
        s_letters = tuple(reversed(self.walk(g.key)[1]))
        return GeodesicWord(s_letters, self.gens.spell(s_letters))

    def norm(self, key) -> Optional[int]:
        """d_S(id, h) for the key of an h in the ball; None outside it."""
        return len(self.walk(key)[1]) if key in self._last else None

    def norm_beyond(self, key, cap, node_budget: Optional[int] = None) -> Optional[int]:
        """d_S(id, x) for the key x of an element outside a complete ball
        B(R) when it is at most ``cap``, else None, by a search that stops
        at the ball.

        Here |x|_S = R + d(x, B(R)): a geodesic from the identity to x
        passes a point of norm R, which bounds |x|_S above, and the
        triangle inequality bounds it below.  So a BFS from x by right
        multiplication by the generators answers R + k at the first layer
        k that meets the ball, and None once R + k passes ``cap``.  The
        search may hold ``node_budget`` nodes of its own, next to the ball,
        and raises :class:`BudgetExceeded` if it outgrows them.  A truncated
        index raises ValueError: the equation holds there too, but from the
        smaller ball the budget left, the one-way search runs deeper and may
        outgrow a budget that a bidirectional search respects."""
        if self.truncated:
            raise ValueError("a truncated index is searched both ways, within the budget, by word_distance")
        ball, mul = self._last, self.model.mul_keys
        gen_keys = [gk for _, gk in self._follow[0]]  # the distinct generator keys
        seen, frontier, n = {key}, [key], self.radius
        while n < cap and frontier:
            n += 1
            nxt = []
            for k in frontier:
                for gk in gen_keys:
                    nk = mul(k, gk)
                    if nk in ball:
                        return n
                    if nk not in seen:
                        seen.add(nk)
                        nxt.append(nk)
            frontier = nxt
            if node_budget is not None and len(seen) > node_budget:
                raise BudgetExceeded(f"a distance search outgrew the node budget {node_budget}")
        return None

    def distance_from_identity(self, h: GroupElement, cap: int) -> Optional[int]:
        """``word_distance(model, gens, identity, h, cap)``: exact d_S(id, h)
        when it is at most ``cap``, else None."""
        if self.gens.standard:
            n = self.model.exact_length(h.key)
            if n is not None:
                return n if n <= cap else None
        d = self.norm(h.key)
        if d is not None:
            return d if d <= cap else None
        if cap <= self.radius:
            return None
        return word_distance(self.model, self.gens, self.model.identity(), h, cap, self._search_budget())

    def _search_budget(self) -> Optional[int]:
        """The nodes a fallback search may hold next to the ball."""
        return None if self.node_budget is None else self.node_budget - len(self._last)


@dataclass
class TranslationBounds:
    lower: Fraction
    upper: Fraction
    exact: bool
    samples: list = field(default_factory=list)  # (n, d_S(id, g^n))


def translation_length(
    model: GroupModel,
    gens: GeneratingSet,
    g: GroupElement,
    n_max: int,
) -> TranslationBounds:
    """Bounds on the stable word norm lim d_S(id, g^n)/n.

    The upper bound min_n d(id, g^n)/n is valid by subadditivity.  Under
    the standard generators the model's exact translation length is
    reported when it has one.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exact_val = model.translation_length_exact(g.key) if gens.standard else None

    samples = []
    upper = None
    power = model.identity()
    for n in range(1, n_max + 1):
        power = power * g
        # uncapped: the search ends at g^n, or with None in a finite subgroup that lacks g^n
        d = word_distance(model, gens, model.identity(), power, math.inf)
        if d is None:
            break
        samples.append((n, d))
        q = Fraction(d, n)
        upper = q if upper is None or q < upper else upper

    if exact_val is not None:
        return TranslationBounds(Fraction(exact_val), Fraction(exact_val), True, samples)
    if not samples:
        return TranslationBounds(Fraction(0), Fraction(10**9), False, samples)
    n_last, d_last = samples[-1]
    max_offset = max(abs(Fraction(d) - n * upper) for n, d in samples)
    lower = max(Fraction(0), (Fraction(d_last) - 2 * max_offset) / n_last)
    return TranslationBounds(lower, upper, False, samples)


@dataclass
class CenterCosetCensus:
    radius: int
    center_counts: list[int]  # #(C(G) cap B(r)) for r = 0..radius
    least_linear_slope: Fraction  # least M with count(r) <= M*r + 1
    max_coset_intersection: int  # max over cosets gC(G) of #(coset cap B(R))
    witnesses: list  # central keys found


def center_coset_census(model: GroupModel, gens: GeneratingSet, radius: int) -> CenterCosetCensus:
    """Count center elements per radius and the largest coset intersection.

    Only models exposing a center predicate are supported; the census also
    reports the least M certifying the linear bound count(r) <= M*r + 1.
    """
    if model.center_membership(model.identity_key()) is None:
        raise ValueError(f"model {model.name} exposes no center predicate")
    census = enumerate_ball(model, gens, radius, keep_elements=True)
    center_counts = []
    running = 0
    witnesses = []
    coset_sizes: dict = {}
    for r, sphere in enumerate(census.elements):
        for key in sphere:
            if model.center_membership(key):
                running += 1
                witnesses.append(key)
            q = model.quotient_key(key)
            if q is not None:
                coset_sizes[q] = coset_sizes.get(q, 0) + 1
        center_counts.append(running)
    slope = Fraction(0)
    for r in range(1, len(center_counts)):
        if center_counts[r] > 1:
            slope = max(slope, Fraction(center_counts[r] - 1, r))
    max_coset = max(coset_sizes.values()) if coset_sizes else 1
    return CenterCosetCensus(census.radius, center_counts, slope, max_coset, witnesses)

