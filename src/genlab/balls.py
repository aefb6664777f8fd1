"""Word-metric balls: enumeration, distances, geodesics, translation lengths.

All computations run over canonical keys, so deduplication and equality are
exact.  Ball enumeration is a single-threaded breadth-first search; its
``workers`` argument is accepted and ignored (a GIL-bound thread pool gave
no speedup), so outputs are the same for every worker setting.

:class:`BallIndex` keeps one shortlex BFS of a ball (the last S-letter of
each element's shortlex-least geodesic) and answers geodesic and norm
queries inside it by walking back, where :func:`geodesic_representative`
and :func:`word_distance` each run a new search per query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    workers: int = 1,
    node_budget: Optional[int] = None,
) -> BallCensus:
    """BFS the ball of the given radius, deduplicating by canonical key.

    ``workers`` is a no-op kept for callers that pass it.  If
    ``node_budget`` is hit the census is returned truncated (sphere counts
    up to the last complete radius are kept).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ident = model.identity_key()
    visited = {ident}
    frontier = [ident]
    sphere_counts = [1]
    spheres = [[ident]] if keep_elements else None
    gen_keys = [g.key for g in gens.elements]
    mul = model.mul_keys
    truncated = False
    for _r in range(radius):
        new_frontier = []
        for key in frontier:
            for gk in gen_keys:
                k = mul(key, gk)
                if k not in visited:
                    visited.add(k)
                    new_frontier.append(k)
        if node_budget is not None and len(visited) > node_budget:
            truncated = True
            break
        frontier = new_frontier
        sphere_counts.append(len(frontier))
        if spheres is not None:
            spheres.append(sorted(frontier))

    return BallCensus(
        model_name=model.name,
        gens_words=gens.words(),
        radius=len(sphere_counts) - 1,
        sphere_counts=sphere_counts,
        elements=spheres,
        truncated=truncated,
        key_repr=model.key_repr,
    )


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
    generator of its own, so in F_2 A is both S-letter -1 and 3)."""
    closed = _closed_form_geodesic(model, gens, g.key)
    if closed is not None:
        return closed
    target = g.key
    ident = model.identity_key()
    # BFS in shortlex order: letters sorted ascending by signed index, and
    # within a radius the frontier is scanned in discovery (= shortlex) order.
    letters = sorted(gens.signed_letters())
    letter_keys = [(s, gens.letter_element(s).key) for s in letters]
    paths = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for k in frontier:
            base = paths[k]
            for s, gk in letter_keys:
                nk = model.mul_keys(k, gk)
                if nk not in paths:
                    paths[nk] = base + (s,)
                    if nk == target:
                        sl = paths[nk]
                        return GeodesicWord(sl, gens.spell(sl))
                    nxt.append(nk)
        if node_budget is not None and len(paths) > node_budget:
            return None
        frontier = nxt
    return None


class BallIndex:
    """The ball of a given radius from one shortlex BFS, answering geodesic
    and norm queries without a new search.

    The BFS runs as in :func:`geodesic_representative`, so the first visit
    of each element comes from the shortlex-least geodesic of its parent
    followed by the least letter; only that last S-letter is stored, and
    ``geodesic`` walks back along it.  ``spheres[r]`` lists the keys at
    distance r in sorted order, as ``enumerate_ball(..., keep_elements=True)``
    does.  Queries about keys outside the ball fall back to the searches
    they replace.  ``node_budget`` bounds the nodes held at once: if the
    ball outgrows it, the index stops at the last complete radius and is
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
        self._letter_keys = {s: gens.letter_element(s).key for s in gens.signed_letters()}
        # of several letters naming one element only the least can discover
        # anything, so the others are not multiplied at all
        step, seen = [], set()
        for s in sorted(self._letter_keys):
            if self._letter_keys[s] not in seen:
                seen.add(self._letter_keys[s])
                step.append((s, self._letter_keys[s]))
        last = {ident: 0}  # key -> last S-letter of its geodesic; 0 at the identity
        self.spheres = [[ident]]
        self.truncated = False
        frontier = [ident]
        mul = model.mul_keys
        for _r in range(radius):
            nxt = []
            for k in frontier:
                for s, gk in step:
                    nk = mul(k, gk)
                    if nk not in last:
                        last[nk] = s
                        nxt.append(nk)
            if node_budget is not None and len(last) > node_budget:
                for k in nxt:
                    del last[k]
                self.truncated = True
                break
            frontier = nxt
            self.spheres.append(sorted(nxt))
        self._last = last
        self.radius = len(self.spheres) - 1

    def __contains__(self, key) -> bool:
        return key in self._last

    def _walk(self, key) -> list:
        """The S-letters of the shortlex-least geodesic of a key in the
        ball, last letter first."""
        out = []
        last, inverse, mul = self._last, self._letter_keys, self.model.mul_keys
        s = last[key]
        while s:
            out.append(s)
            key = mul(key, inverse[-s])
            s = last[key]
        return out

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
        s_letters = tuple(reversed(self._walk(g.key)))
        return GeodesicWord(s_letters, self.gens.spell(s_letters))

    def distance_from_identity(self, h: GroupElement, cap: int) -> Optional[int]:
        """``word_distance(model, gens, identity, h, cap)``: exact d_S(id, h)
        when it is at most ``cap``, else None."""
        if self.gens.standard:
            n = self.model.exact_length(h.key)
            if n is not None:
                return n if n <= cap else None
        if h.key in self._last:
            d = len(self._walk(h.key))
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
    r_budget: Optional[int] = None,
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
    # without r_budget the search runs until it meets g^n, which it does
    cap = r_budget if r_budget is not None else math.inf
    for n in range(1, n_max + 1):
        power = power * g
        d = word_distance(model, gens, model.identity(), power, cap)
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


def census_to_files(census: BallCensus, csv_path, json_path) -> None:
    with open(csv_path, "w", newline="") as fh:
        fh.write(census.to_csv())
    with open(json_path, "w") as fh:
        json.dump(census.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
