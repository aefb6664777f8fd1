"""Counting experiments: classification tallies, thick-set membership,
letter-block replacement maps with fiber censuses, and genericity curves.

Free-group threshold counts use Rivin's closed form for cyclically reduced
words (cross-checked against brute enumeration on small balls); everything
else is exhaustive over enumerated balls.  The thick search and the
replacement maps read one context, a :class:`SegmentTable` over a
:class:`~genlab.balls.BallIndex` and a tree action: the index answers every
geodesic and norm query (a radius-0 index answers them by a new search
each), and the table builds each orbit segment once, with its basepoint
alignment pair and the least norm of its points.  They run on keys and
integers.  The table cuts the keys of every prefix and suffix of an
element's geodesic once: the prefixes of an element of the ball are its
ancestors in the index's BFS tree, so only suffixes are products.  The action
is an isometry, so the pair (segment based at b, g x0) has the diameters
of (phi's identity-based segment, b^-1 g x0): the table reads them per
translated key b^-1 g, from two tree distances computed once per key.
Every verdict of the thick search depends on a prefix key or on a suffix
key of the element alone, and a replacement on the pair of its cut keys,
so the table memoizes them per key, not per element: the thick search ANDs
a head bitmask of its candidates (by prefix key and window) with a tail
bitmask (by suffix key), and the linkage of a replacement, with its output
key, is decided once per (prefix key, suffix key) pair, from segments read
per prefix key and spliced keys with their tails per suffix key.  A fiber
census works on keys alone: per shell key, one walk back through the
index's parents to the shallowest cut index its windows read, the thick
verdict of the loop that the thick search runs too, and the output keys
of the linkages; it builds no element, search result or certificate.  An
:class:`~genlab.alignment.AlignmentReport` is built only for a
certificate, a replacement or a failure that is returned.  The censuses of
an experiment share one table, its index trimmed or grown to each n; with
a thick window below 1 a census asks for no norm outside B(n).
The negligibility probe decides core norms by membership in the spheres
of its enumerated ball, and builds the set of conjugates h^-1 C h of the
short cores C by the short h once per n, so it tests each shell element
by one set lookup.  ``genericity`` and the probe stop at the last radius
their ball completes within a node budget.
All ratios are exact rationals; only fitted decay exponents are floating
point, each an exact least-squares slope over the float logs, rounded
once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .alignment import AlignmentReport, as_geodesic, assemble_report, pair_diameters, tree_projection
from .balls import BallIndex, BudgetExceeded, enumerate_ball, free_ball_count
# not called here: perfbench's tracer test reads census.geodesic_representative,
# and reads genlab.contraction from sys.modules once it has imported census
from . import contraction  # noqa: F401
from .balls import geodesic_representative  # noqa: F401
from .groups import FreeGroup, GeneratingSet, GroupElement, GroupModel
from .ledger import ConstantLedger
from .spaces import GroupAction, OrbitSegment


# ---------------------------------------------------------------------------
# Classification


@dataclass
class Classification:
    element_word: str
    verdict: str  # pseudoAnosov | reducible | periodic | contracting-loxodromic | non-loxodromic
    evidence: dict


def classify(model: GroupModel, g: GroupElement) -> Classification:
    """The model's verdict on g (``GroupModel.verdict``): the Nielsen-Thurston
    type for 3-braids, loxodromy by exact tree translation length for the
    tree models."""
    verdict, evidence = model.verdict(g.key)
    return Classification(model.alphabet.format(g.word), verdict, evidence)


# ---------------------------------------------------------------------------
# Free-group threshold counts (exact closed form + the counting inequality)


def count_cyclically_reduced(rank: int, length: int) -> int:
    """Exact count of cyclically reduced words of the given length n:
    (2k-1)^n + (k-1)(-1)^n + k for n >= 1 (Rivin, Growth in free groups
    (and other stories), 1999)."""
    if length == 0:
        return 1
    return (2 * rank - 1) ** length + (rank - 1) * (-1) ** length + rank


def count_translation_below(rank: int, n: int, threshold: int) -> int:
    """#{g in B(n) : translation length <= threshold}, standard generators.

    Every such g factors uniquely as w c w^-1 with c its cyclic reduction
    (|c| <= threshold) and w a reduced conjugator avoiding two letters at
    its end, giving an exact closed form.
    """
    if threshold < 0 or n < 0:
        return 0
    total = 1  # the identity
    k2 = 2 * rank
    for t in range(1, min(threshold, n) + 1):
        conjugators = 1  # w = id
        for m in range(1, (n - t) // 2 + 1):
            conjugators += (k2 - 2) * (k2 - 1) ** (m - 1)
        total += count_cyclically_reduced(rank, t) * conjugators
    return total


@dataclass
class ThresholdCount:
    rank: int
    n: int
    threshold: int
    count_below: int
    ball: int
    linear_factor: Fraction  # 1 + (n - T)/12
    linear_lhs: Fraction
    linear_holds: bool
    binomial_factor: Fraction
    binomial_lhs: Fraction
    binomial_holds: bool


def free_group_threshold_count(rank: int, n: int, threshold: int) -> ThresholdCount:
    """Evaluate the replacement-counting inequalities exactly.

    The linear factor is 1 + (n - T)/12 as stated; the binomial refinement
    sums C(J, j)/6^j over j <= J with J = floor((n - T)/2).
    """
    count = count_translation_below(rank, n, threshold)
    ball = free_ball_count(rank, n)
    lin_factor = 1 + Fraction(n - threshold, 12)
    lin_lhs = lin_factor * count
    J = max(0, (n - threshold) // 2)
    bin_factor = Fraction(1)
    for j in range(1, J + 1):
        bin_factor += Fraction(math.comb(J, j), 6**j)
    bin_lhs = bin_factor * count
    return ThresholdCount(
        rank, n, threshold, count, ball,
        lin_factor, lin_lhs, lin_lhs <= ball,
        bin_factor, bin_lhs, bin_lhs <= ball,
    )


def single_letter_replacement(model: FreeGroup, word, i: int):
    """The basic loxodromic-making move: swap the i-th letter (1-based) of a
    reduced word for the least letter keeping the word reduced and pushing
    the translation length to at least len - 2i.  Takes and returns words
    (signed-letter tuples), not keys."""
    word = tuple(word)
    n = len(word)
    if not (1 <= i <= n):
        raise ValueError("replacement index out of range")
    target = n - 2 * i
    for cand in model.alphabet.signed_letters():
        if cand == word[i - 1]:
            continue
        if i >= 2 and cand == -word[i - 2]:
            continue
        if i < n and cand == -word[i]:
            continue
        new = word[: i - 1] + (cand,) + word[i:]
        if model.translation_length_exact(model.normalize(new)) >= target:
            return new
    return None


@dataclass
class SingleReplacementCensus:
    rank: int
    n: int
    threshold: int
    domain: int
    max_fiber: int
    fibers: dict


def single_replacement_fibers(rank: int, n: int, threshold: int) -> SingleReplacementCensus:
    """Exhaustive fiber census of the single-letter replacement over the
    short-translation elements of the sphere of radius n."""
    model = FreeGroup(rank)
    gens = model.standard_gens()
    census = enumerate_ball(model, gens, n, keep_elements=True)
    fibers: dict = {}
    domain = 0
    for key in census.elements[n]:
        if model.translation_length_exact(key) > threshold:
            continue
        word = model.key_word(key)
        half = (n - threshold) // 2
        for i in range(1, max(half, 1)):
            new = single_letter_replacement(model, word, i)
            if new is None:
                continue
            domain += 1
            fibers[new] = fibers.get(new, 0) + 1
    max_fiber = max(fibers.values(), default=0)
    return SingleReplacementCensus(rank, n, threshold, domain, max_fiber, fibers)


# ---------------------------------------------------------------------------
# Thick-set certification and search


@dataclass
class ThickCertificate:
    certified: bool
    reason: str
    distance: Optional[int] = None
    report: Optional[AlignmentReport] = None


@dataclass
class SegmentEntry:
    """One orbit segment of a :class:`SegmentTable`: the segment, the
    alignment pair (basepoint, segment) and its larger diameter, and the
    least word norm of its points under each cap asked for so far."""

    segment: OrbitSegment
    head: tuple  # pair_diameters(basepoint, segment.projected)
    worst: int  # max(head)
    norms: dict = field(default_factory=dict)  # cap -> least norm at most cap, or None


class SegmentTable:
    """The query context of the thick search and the replacement maps: a
    :class:`~genlab.balls.BallIndex` for every geodesic and norm, the cut
    keys of the element last asked about, and the orbit segments
    g * (id, phi, ..., phi^L) of its censuses by the key of their base g,
    each built and measured once (L is the ledger's segment length).
    ``model`` and ``gens`` are the ball's; ``action`` must be on a tree.

    A radius-0 ball is the plain search path: every query but the
    identity's falls back to ``geodesic_representative`` or
    ``word_distance``.  ``cuts(g)`` gives the keys of every prefix and
    suffix of the ball's geodesic of g, kept in one memo slot for the thick
    search and the replacement maps of one g.  For a g in the ball they
    are ``cut_keys`` taken to depth 0: the prefixes are read off the ball's
    parents, g's ancestors in its BFS tree, and the suffixes are running
    products of the letter keys read along them; a fiber census stops that
    walk at the shallowest index its windows read.  For a g outside the
    ball both are running products of the searched geodesic's letter
    keys.  Every alignment sequence of the thick search and the replacement
    maps is (basepoint, segment, h x0).  Its first pair depends on the
    segment alone, so it is stored, and ``tail`` gives the pair (segment,
    h x0): the integers (n - i, 0), from the two tree distances that place
    h x0's projection at index i of the length-n segment.  For a segment
    based at b those distances are d(b^-1 h x0, x0) and
    d(b^-1 h x0, phi^L x0), since the action is an isometry, so ``tail_at``
    reads the pair by the key of b^-1 h alone, off phi's identity-based
    segment, and computes it once per key.

    The maps decide on those integers, and each verdict depends on one cut
    key or on a pair of them, so the table memoizes the verdicts per key.
    Each memo holds one value per cut key (per cut key and window for
    ``thick_heads``, per prefix and suffix key for ``linkage``), and the cut
    keys of a census lie in its ball:
    - ``segments_at(w)``: each candidate s with the key w s and its entry,
      read by both maps;
    - ``thick_heads(w, lo, hi)``: a bitmask over the candidates s of the
      segments based at w s whose basepoint pair is below the dominating
      bound and whose least norm is in [lo, hi];
    - ``thick_tails(v)``: a bitmask over the candidates s whose tail
      ``tail_at(s^-1 v)`` is below it;
    - ``splices(v)``: each candidate t with the key phi^L t v and its tail;
    - ``linkage(w, v)``: the first linkage pair (s, t) that certifies, with
      the output key of w s phi^L t v, or the first least-worst pair when
      none does (then each read raises :class:`LinkageFailure`).

    ``first_thick`` is the one loop of the thick search over cut keys, for
    ``a_thick_search`` and the census alike: it reads ``thick_heads`` and
    ``thick_tails`` from their memos and calls them only on a miss.  The
    maps build an :class:`~genlab.alignment.AlignmentReport` only for
    what they return.  The ledger constants the maps use are computed here
    once: the alignment ``level``, the excised ``block`` length, the spliced
    ``power`` phi^L, the linkage ``candidates`` (the identity, then S) with
    the keys of each candidate c's inverse (``inverse_keys``) and of
    phi^L c (``spliced_keys``), and the ceilings of ``level`` and
    ``ledger.dominating``, which diameters are compared with.
    """

    def __init__(self, ball: BallIndex, action: GroupAction, phi: GroupElement, ledger: ConstantLedger):
        if not action.space.is_tree:
            raise ValueError(f"a segment table needs an action on a tree, not on {action.space.name}")
        self.ball, self.action, self.phi, self.ledger = ball, action, phi, ledger
        self.model, self.gens = ball.model, ball.gens
        self.level = ledger.alignment_level()
        self.dominating_bound, self.level_bound = math.ceil(ledger.dominating), math.ceil(self.level)
        self.block = ledger.block_length()
        self.power = phi**ledger.segment_length
        self.candidates = [self.model.identity()] + list(self.gens.elements)
        self.inverse_keys = [self.model.inverse_key(c.key) for c in self.candidates]
        self.spliced_keys = [self.model.mul_keys(self.power.key, c.key) for c in self.candidates]
        self._letter_keys = {s: self.gens.letter_element(s).key for s in self.gens.signed_letters()}
        self._identity_key = self.model.identity_key()
        self._basepoint = as_geodesic(action.space.basepoint)
        self._entries: dict = {}
        self._last_cut = None  # (key, prefix keys, suffix keys) of the last element cut
        self._origin = self.entry(self.model.identity())  # phi's identity-based segment
        self._tails: dict = {}  # key of b^-1 h -> tail of (b's segment, h x0)
        self._thick_heads: dict = {}  # (prefix key, lo, hi) -> candidate bitmask
        self._thick_tails: dict = {}  # suffix key -> candidate bitmask
        self._segments: dict = {}  # prefix key w -> [(s, key of w s, entry)]
        self._splices: dict = {}  # suffix key v -> [(t, key of phi^L t v, tail)]
        self._linkages: dict = {}  # (prefix key w, suffix key v) -> (s, t, key of w s phi^L t v, entry, tail)

    def cuts(self, g: GroupElement) -> tuple:
        """(prefix, suffix): the keys of s_1...s_i at ``prefix[i]`` and of
        s_(j+1)...s_n at ``suffix[j]``, for the ball's geodesic s_1...s_n
        of g; kept for the last g asked about."""
        memo = self._last_cut
        if memo is None or memo[0] != g.key:
            if g.key in self.ball:
                prefix, suffix = self.cut_keys(g.key, self.ball.norm(g.key))
            else:  # running products of the searched geodesic's letter keys
                mul, ident, letter_keys = self.model.mul_keys, self._identity_key, self._letter_keys
                s_letters = self.ball.geodesic(g).s_letters
                prefix, suffix = [ident], [ident]
                for s in s_letters:
                    prefix.append(mul(prefix[-1], letter_keys[s]))
                for s in reversed(s_letters):
                    suffix.append(mul(letter_keys[s], suffix[-1]))
                suffix.reverse()
            memo = self._last_cut = (g.key, prefix, suffix)
        return memo[1], memo[2]

    def cut_keys(self, key, n: int, depth: int = 0) -> tuple:
        """``cuts`` of the element of norm n with this key in the ball, from
        index ``depth`` up; the entries below it are None.  One walk back
        through the ball's parents, the key first, reads prefix[n], ...,
        prefix[depth] and forms suffix[j] = s_(j+1) suffix[j+1] on the way:
        n - depth products.  It reads the index's last-letter and parent
        maps in place, as ``BallIndex.walk`` does, without building its
        lists."""
        last, parent, letter_keys, mul = self.ball._last, self.ball._parent, self._letter_keys, self.model.mul_keys
        prefix, suffix = [None] * (n + 1), [None] * (n + 1)
        v = suffix[n] = self._identity_key
        prefix[n] = key
        for j in range(n - 1, depth - 1, -1):
            v = suffix[j] = mul(letter_keys[last[key]], v)
            key = prefix[j] = parent[key]
        return prefix, suffix

    def entry(self, base: GroupElement) -> SegmentEntry:
        """The entry of the segment based at ``base``."""
        found = self._entries.get(base.key)
        if found is None:
            segment = OrbitSegment(self.action, base, self.phi, self.ledger.segment_length)
            head = pair_diameters(self.action.space, self._basepoint, segment.projected)
            found = self._entries[base.key] = SegmentEntry(segment, head, max(head))
        return found

    def entry_at(self, key) -> SegmentEntry:
        """``entry`` of the element with this key."""
        found = self._entries.get(key)
        return found if found is not None else self.entry(GroupElement(self.model, key))

    def thick_window(self, norm: int) -> tuple:
        """The integers in the ledger's distance window times ``norm``, as
        (least, greatest); norms are integers, so this is the window."""
        return _scaled_window(self.ledger.window, norm)

    def cut_window(self, norm: int) -> tuple:
        """The integers in the ledger's cut window times ``norm``, as
        (least, greatest)."""
        return _scaled_window(self.ledger.cut_window, norm)

    def least_norm(self, entry: SegmentEntry, cap: int) -> Optional[int]:
        """The least d_S(id, h) over the segment's points h, among those at
        most ``cap``; None if there are none."""
        if cap not in entry.norms:
            best = None
            for h in entry.segment.points:
                d = self.ball.distance_from_identity(h, cap)
                if d is not None and (best is None or d < best):
                    best = d
            entry.norms[cap] = best
        return entry.norms[cap]

    def tail(self, entry: SegmentEntry, point) -> tuple:
        """``pair_diameters`` of (segment, point): (n - i, 0), where i is
        the index of the point's projection on the length-n segment, read
        from :func:`~genlab.alignment.tree_projection` (which raises where
        no vertex is that projection)."""
        geo = entry.segment.projected
        return len(geo) - tree_projection(self.action.space, point, geo)[0], 0

    def tail_at(self, key) -> tuple:
        """``tail`` of (the segment based at b, h x0) for the key of b^-1 h:
        the tail of (phi's identity-based segment, b^-1 h x0)."""
        found = self._tails.get(key)
        if found is None:
            found = self._tails[key] = self.tail(self._origin, self.action.proj(GroupElement(self.model, key)))
        return found

    def thick_heads(self, key, lo: int, hi: int) -> int:
        """The head verdicts of the thick search at a prefix key w in the
        window [lo, hi]: bit c is set iff the segment based at w s, for
        s = ``candidates[c]``, has its basepoint pair below the dominating
        bound and its least norm (capped at hi + 1) in [lo, hi].  Memoized
        per (key, lo, hi)."""
        memo = (key, lo, hi)
        mask = self._thick_heads.get(memo)
        if mask is None:
            mask, bound = 0, self.dominating_bound
            for c, (_, _, entry) in enumerate(self.segments_at(key)):
                if entry.worst < bound:
                    best = self.least_norm(entry, hi + 1)
                    if best is not None and lo <= best <= hi:
                        mask |= 1 << c
            self._thick_heads[memo] = mask
        return mask

    def thick_tails(self, key) -> int:
        """The tail verdicts of the thick search at a suffix key v: bit c is
        set iff the tail of (the segment based at w s, w v x0), for
        s = ``candidates[c]`` and any w, is below the dominating bound.  That
        tail is ``tail_at`` of s^-1 v, so it is memoized per key."""
        mask = self._thick_tails.get(key)
        if mask is None:
            mask, mul, bound = 0, self.model.mul_keys, self.dominating_bound
            for c, s_inverse in enumerate(self.inverse_keys):
                if max(self.tail_at(mul(s_inverse, key))) < bound:
                    mask |= 1 << c
            self._thick_tails[key] = mask
        return mask

    def first_thick(self, prefix, suffix, lo: int, hi: int, top: int) -> Optional[tuple]:
        """The thick search's verdict on cut keys in the window [lo, hi]:
        (i, c) for the least index i in [lo, top] and then the least
        candidate c whose head verdict at prefix[i] (``thick_heads``) and
        tail verdict at suffix[i] (``thick_tails``) both hold; None if no
        pair does.  Each verdict is a memo read, and its method runs only
        on a miss; a tail is read only where some head verdict holds."""
        heads, tails = self._thick_heads, self._thick_tails
        for i in range(lo, top + 1):
            w, v = prefix[i], suffix[i]
            head = heads.get((w, lo, hi))
            if head is None:
                head = self.thick_heads(w, lo, hi)
            if not head:  # no candidate to test a tail for
                continue
            tail = tails.get(v)
            if tail is None:
                tail = self.thick_tails(v)
            passing = head & tail
            if passing:
                return i, (passing & -passing).bit_length() - 1  # the first candidate that passes
        return None

    def segments_at(self, key) -> list:
        """(s, key of w s, entry of the segment based at w s) for each
        candidate s, at a prefix key w; memoized per key."""
        found = self._segments.get(key)
        if found is None:
            found = self._segments[key] = []
            for s in self.candidates:
                ws = self.model.mul_keys(key, s.key)
                found.append((s, ws, self.entry_at(ws)))
        return found

    def splices(self, key) -> list:
        """(t, key of phi^L t v, tail) for each candidate t, at a suffix key
        v: phi^L t v is the spliced output w s phi^L t v translated back by
        its segment's base w s, so the tail is that of every w and s.
        Memoized per key."""
        found = self._splices.get(key)
        if found is None:
            found = self._splices[key] = []
            for t, spliced in zip(self.candidates, self.spliced_keys):
                out = self.model.mul_keys(spliced, key)
                found.append((t, out, self.tail_at(out)))
        return found

    def linkage(self, w, v) -> tuple:
        """The replacement at the cut keys w and v: (s, t, key of
        w s phi^L t v, entry of the segment based at w s, tail) for the first
        linkage pair (s, t), in the order of ``segments_at(w)`` and
        ``splices(v)``, whose worst diameter is below the level bound.
        Memoized per (w, v), a failure too: when no pair passes, the memo
        holds (None, None, None, entry, tail) of the first least-worst pair,
        and each call raises :class:`LinkageFailure` with its report."""
        found = self._linkages.get((w, v))
        if found is None:
            found = self._linkages[w, v] = self._first_linkage(w, v)
        if found[0] is None:
            raise LinkageFailure(f"no linkage certified at level {self.level}",
                                 assemble_report(self.level, self.level_bound, [found[3].head, found[4]]))
        return found

    def _first_linkage(self, w, v) -> tuple:
        bound, splices = self.level_bound, self.splices(v)
        best = None  # (worst, entry, tail) of the first least-worst pair
        for s, ws, entry in self.segments_at(w):
            for t, key, tail in splices:
                worst = max(entry.worst, *tail)
                if worst < bound:
                    return s, t, self.model.mul_keys(ws, key), entry, tail
                if best is None or worst < best[0]:
                    best = (worst, entry, tail)
        return None, None, None, best[1], best[2]


def _scaled_window(window: tuple, norm: int) -> tuple:
    lo, hi = window
    return math.ceil(lo * norm), math.floor(hi * norm)


def _norm(ball: BallIndex, g: GroupElement) -> int:
    """d_S(id, g), read from ``ball`` or found by its fallback search, which
    stays within the ball's node budget or raises :class:`BudgetExceeded`;
    it needs no radius cap, since it stops when it meets g."""
    return ball.distance_from_identity(g, math.inf)


def a_thick_certify(
    table: SegmentTable,
    g: GroupElement,
    segment: OrbitSegment,
    norm: Optional[int] = None,
) -> ThickCertificate:
    """Exact check of the two thick-set conditions for a candidate segment
    of the table's φ and ledger length: the word distance window and the
    basepoint alignment at ``ledger.dominating``, whose tail is computed
    from the distances of g x0 to this segment (not read per key, so every
    thick witness of the search is certified independently).  ``norm`` is
    d_S(id, g), read from the table's ball when it is not given."""
    ledger = table.ledger
    if segment.length != ledger.segment_length:
        raise ValueError(
            f"segment length {segment.length} differs from ledger length {ledger.segment_length}"
        )
    if segment.phi != table.phi:
        raise ValueError("the segment is not of the table's distinguished element")
    entry = table.entry(segment.base)
    if norm is None:
        norm = _norm(table.ball, g)
    lo, hi = table.thick_window(norm)
    best = table.least_norm(entry, hi + 1)
    if best is None or not (lo <= best <= hi):
        return ThickCertificate(False, "distance-window", best)
    tail = table.tail(entry, table.action.proj(g))
    report = assemble_report(ledger.dominating, table.dominating_bound, [entry.head, tail])
    return ThickCertificate(report.aligned, "ok" if report.aligned else "alignment", best, report)


@dataclass
class ThickSearchResult:
    found: bool
    degenerate: bool = False
    witness: Optional[OrbitSegment] = None
    certificate: Optional[ThickCertificate] = None


def a_thick_search(table: SegmentTable, g: GroupElement) -> ThickSearchResult:
    """Window scan along the table ball's geodesic of g, with the left
    perturbations of ``table.candidates``.  Candidate (i, s) passes iff its
    head verdict at prefix[i] and its tail verdict at suffix[i] both hold;
    ``table.first_thick`` finds the first that passes, the verdict a fiber
    census reads, and here it is certified by :func:`a_thick_certify`.
    Sound when it answers yes; a no is heuristic."""
    prefix, suffix = table.cuts(g)
    n = len(prefix) - 1
    lo, hi = table.thick_window(n)
    if lo < 1 or lo > hi:
        return ThickSearchResult(False, degenerate=True)
    first = table.first_thick(prefix, suffix, lo, hi, min(hi, n))  # a window may end beyond the geodesic
    if first is None:
        return ThickSearchResult(False)
    i, c = first
    _, _, entry = table.segments_at(prefix[i])[c]
    cert = a_thick_certify(table, g, entry.segment, norm=n)
    return ThickSearchResult(True, witness=entry.segment, certificate=cert)


# ---------------------------------------------------------------------------
# The replacement maps


class LinkageFailure(RuntimeError):
    """No linkage pair certified the splice alignment (a hard failure on
    tree models); ``best_report`` is the first of the least worst
    diameter."""

    def __init__(self, message, best_report=None):
        super().__init__(message)
        self.best_report = best_report


@dataclass
class Replacement:
    element: GroupElement
    cut: int
    s: GroupElement
    t: GroupElement
    report: AlignmentReport


def replacement_map(table: SegmentTable, g: GroupElement, i: int) -> Replacement:
    """Cut the table ball's geodesic of g at i, excise a block, splice in a
    linked power of the distinguished element: g = w l v  ->  w s phi^L t v.

    The linkage pair (s, t) is the first one in deterministic order whose
    splice alignment certifies at the ledger level.  It depends on g only
    through the table's cut keys w and v, so it is read from the table's
    memo (``linkage``), which raises :class:`LinkageFailure` when no pair
    certifies; one report is built for the result.
    """
    prefix, suffix = table.cuts(g)
    n = len(prefix) - 1
    lo, hi = table.cut_window(n)
    if not (lo <= i <= hi):
        raise ValueError(f"cut index {i} outside window [{lo}, {hi}]")
    if i + table.block > n:
        raise ValueError(f"excised block [{i + 1}, {i + table.block}] does not fit in length {n}")
    s, t, out, entry, tail = table.linkage(prefix[i], suffix[i + table.block])
    report = assemble_report(table.level, table.level_bound, [entry.head, tail])
    return Replacement(GroupElement(table.model, out), i, s, t, report)


# ---------------------------------------------------------------------------
# Fiber census


@dataclass
class FiberReport:
    model_name: str
    n: int
    domain_size: int
    image_size: int
    max_fiber: int
    histogram: dict  # fiber size -> multiplicity
    sqrt_ratio: float  # max_fiber / sqrt(n)
    thick_skipped: int
    degenerate_skipped: int
    windows: dict

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "n": self.n,
            "domain": self.domain_size,
            "image": self.image_size,
            "max_fiber": self.max_fiber,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "sqrt_ratio": self.sqrt_ratio,
            "thick_skipped": self.thick_skipped,
            "degenerate_skipped": self.degenerate_skipped,
            "windows": self.windows,
        }


def fiber_census(table: SegmentTable, n: int, shell: Fraction = Fraction(99, 100)) -> FiberReport:
    """Exact fibers of the replacement map over its domain: the outer shell
    of the radius-n ball, minus certified thick elements, crossed with the
    cut window.

    The table's index, trimmed or grown to radius n, supplies the shell and
    answers every query of the maps as an index built at n would, its
    searches held to what B(n) leaves of the budget.  Each shell key is
    decided on its cut keys alone, by the searches ``a_thick_search`` and
    ``replacement_map`` would make, in their order: ``cut_keys`` walks back
    only to the shallowest index that the thick and cut windows read,
    ``first_thick`` gives the thick verdict, and a cut's image is the
    output key of the table's ``linkage`` at its cut keys.  No element,
    search result or certificate is built.  The memos are keyed by keys and
    windows, not by n, so one table serves every n.  Raises
    :class:`BudgetExceeded` if the index cannot grow to n.
    """
    ball, model, ledger = table.ball, table.model, table.ledger
    ball.trim(n)
    if not ball.grow(n):
        raise BudgetExceeded(f"the radius-{n} ball outgrew the node budget {ball.node_budget}")
    inner = math.floor(shell * n)
    block, linkage = table.block, table.linkage
    fibers: dict = {}
    domain = 0
    thick_skipped = 0
    degenerate = 0
    for r in range(inner + 1, n + 1):
        lo, hi = table.thick_window(r)
        top = min(hi, r) if 1 <= lo <= hi else lo - 1  # a degenerate window has no thick index
        clo, chi = table.cut_window(r)
        indices = [i for i in range(max(clo, 1), chi + 1) if i + block <= r]
        depth = min(([lo] if lo <= top else []) + indices[:1], default=r)  # the shallowest cut index read
        for key in ball.spheres[r]:
            prefix, suffix = table.cut_keys(key, r, depth)
            if table.first_thick(prefix, suffix, lo, hi, top) is not None:
                thick_skipped += 1
                continue
            if not indices:
                degenerate += 1
                continue
            for i in indices:
                out = linkage(prefix[i], suffix[i + block])[2]
                fibers[out] = fibers.get(out, 0) + 1
            domain += len(indices)
    histogram: dict = {}
    for size in fibers.values():
        histogram[size] = histogram.get(size, 0) + 1
    max_fiber = max(fibers.values(), default=0)
    return FiberReport(
        model_name=model.name,
        n=n,
        domain_size=domain,
        image_size=len(fibers),
        max_fiber=max_fiber,
        histogram=histogram,
        sqrt_ratio=max_fiber / math.sqrt(n) if n else 0.0,
        thick_skipped=thick_skipped,
        degenerate_skipped=degenerate,
        windows={
            "shell": str(shell),
            "cut_window": [str(w) for w in ledger.cut_window],
            "thick_window": [str(w) for w in ledger.window],
        },
    )


# ---------------------------------------------------------------------------
# Genericity curves


@dataclass
class GenericityCurve:
    model_name: str
    gens_words: list
    mode: str  # "tree" or "braid-cosets"
    radii: list
    special_counts: list  # non-loxodromic / non-pA-coset counts
    totals: list  # ball sizes / coset counts
    ratios: list  # exact Fractions
    fitted_exponent: Optional[float]
    tail_monotone: bool
    thresholds: dict
    truncated: bool = False  # the ball outgrew the node budget; radii stop short

    def to_csv(self) -> str:
        lines = ["radius,special_count,total,ratio"]
        for r, s, t, q in zip(self.radii, self.special_counts, self.totals, self.ratios):
            lines.append(f"{r},{s},{t},{float(q)!r}")
        return "\n".join(lines) + "\n"

    def plot_data(self) -> str:
        return "".join(f"{r} {float(q)!r}\n" for r, q in zip(self.radii, self.ratios))

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "gens": self.gens_words,
            "mode": self.mode,
            "radii": self.radii,
            "special_counts": self.special_counts,
            "totals": self.totals,
            "ratios": [str(q) for q in self.ratios],
            "fitted_exponent": self.fitted_exponent,
            "tail_monotone": self.tail_monotone,
            "thresholds": {k: str(v) for k, v in self.thresholds.items()},
        }


def _least_squares_slope(points) -> Optional[float]:
    """Slope of the least-squares line through float points (x, y), exact
    over their rationals and rounded once; None without two distinct x."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n, sx, sy = len(pts), sum(x for x, _ in pts), sum(y for _, y in pts)
    den = n * sum(x * x for x, _ in pts) - sx * sx
    return float((n * sum(x * y for x, y in pts) - sx * sy) / den) if den else None


def _fit_decay_exponent(radii, ratios) -> Optional[float]:
    pts = [(r, q) for r, q in zip(radii, ratios) if r >= 1 and q > 0]
    tail = pts[-math.ceil(len(pts) / 2) :]
    return _least_squares_slope((math.log(r), math.log(float(q))) for r, q in tail)


def genericity_experiment(
    model: GroupModel,
    action: Optional[GroupAction],
    gens: GeneratingSet,
    r_max: int,
    tree_threshold: int = 0,
    word_threshold: Fraction = Fraction(35, 100),
    node_budget: Optional[int] = None,
) -> GenericityCurve:
    """Per-radius ratios of the slow-elements set, exact over enumerated
    balls.  For a model with a center quotient (3-braids) the count is of
    center cosets whose elements are not pseudo-Anosov, following the
    coset-counting reduction; for a model with a tree translation length
    it is of elements with small translation length or small stable word
    norm.  ``action`` is not read.  If the ball outgrows ``node_budget``
    the curve stops at its last complete radius and is ``truncated``."""
    ident = model.identity_key()
    coset_mode = model.quotient_key(ident) is not None
    if not coset_mode and model.translation_length_exact(ident) is None:
        raise ValueError(f"genericity unsupported for model {model.name}")
    census = enumerate_ball(model, gens, r_max, keep_elements=True, node_budget=node_budget)
    r_max = census.radius
    radii = list(range(r_max + 1))
    special, totals, ratios = [], [], []
    if coset_mode:
        seen = set()
        running_special = 0
        coset_verdict = model.coset_verdicts()
        for r in range(r_max + 1):
            for key in census.elements[r]:
                q = model.quotient_key(key)
                if q not in seen:
                    seen.add(q)
                    running_special += coset_verdict(q) != "pseudoAnosov"
            special.append(running_special)
            totals.append(len(seen))
            ratios.append(Fraction(running_special, len(seen)))
        mode = "braid-cosets"
    else:
        taus = [sorted(map(model.translation_length_exact, sphere)) for sphere in census.elements]
        for r in range(r_max + 1):
            count = total = 0
            # the stable-norm threshold moves with the radius, so recount
            # per radius, but over precomputed sorted translation lengths
            cut = max(Fraction(tree_threshold), word_threshold * r)
            for rr in range(r + 1):
                total += len(taus[rr])
                count += bisect.bisect_right(taus[rr], cut)
            special.append(count)
            totals.append(total)
            ratios.append(Fraction(count, total))
        mode = "tree"
    tail = [q for r, q in zip(radii, ratios) if r >= max(2, r_max // 2)]
    tail_monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    return GenericityCurve(
        model_name=model.name,
        gens_words=gens.words(),
        mode=mode,
        radii=radii,
        special_counts=special,
        totals=totals,
        ratios=ratios,
        fitted_exponent=_fit_decay_exponent(radii, ratios),
        tail_monotone=tail_monotone,
        thresholds={"tree_threshold": tree_threshold, "word_threshold": word_threshold},
        truncated=census.truncated,
    )


# ---------------------------------------------------------------------------
# Conjugation-decomposability probe


@dataclass
class NegligibilityPoint:
    n: int
    shell_size: int
    decomposable: int
    ratio: Fraction


@dataclass
class NegligibilityProbe:
    points: list
    fitted_rate: Optional[float]
    windows: dict
    truncated: bool = False  # the ball outgrew the node budget; larger n left out

    def to_json(self) -> dict:
        return {
            "points": [
                {"n": p.n, "shell": p.shell_size, "decomposable": p.decomposable, "ratio": str(p.ratio)}
                for p in self.points
            ],
            "fitted_rate": self.fitted_rate,
            "windows": {k: str(v) for k, v in self.windows.items()},
        }


def exponential_negligibility_probe(
    model: GroupModel,
    gens: GeneratingSet,
    n_values: Sequence[int],
    node_budget: Optional[int] = None,
) -> NegligibilityProbe:
    """Fraction of the outer shell, norms above 0.99 n, admitting a
    conjugation decomposition g = h^-1 g' h with |h|_S <= 0.31 n and
    |g'|_S <= 0.57 n.

    One enumerated ball supplies the shell, the conjugators h and the
    cores: d_S(core) <= 0.57 n is decided exactly, for every generating
    set, by membership in its spheres up to radius floor(0.57 n).  Such a
    g lies in the union of h^-1 C h over the short h, for C the short
    cores, so each n builds that conjugate set once, with two key products
    per (h, core) pair, and counts the shell elements in it.  It holds at
    most |B(floor(0.31 n))| * |B(floor(0.57 n))| keys, fewer than the ball
    B(n) at every n the workloads run.  If the ball outgrows
    ``node_budget``, every n it does not reach is left out and the probe
    is ``truncated``."""
    conj_window, core_window, shell = Fraction(31, 100), Fraction(57, 100), Fraction(99, 100)
    points = []
    mul = model.mul_keys
    census = enumerate_ball(model, gens, max(n_values), keep_elements=True, node_budget=node_budget)
    for n in n_values:
        if n > census.radius:
            continue
        cores = list(itertools.chain.from_iterable(census.elements[: math.floor(core_window * n) + 1]))
        conjugates = set()
        for hk in itertools.chain.from_iterable(census.elements[: math.floor(conj_window * n) + 1]):
            hinv = model.inverse_key(hk)
            conjugates.update([mul(mul(hinv, c), hk) for c in cores])
        shell_keys = list(itertools.chain.from_iterable(census.elements[math.floor(shell * n) + 1 : n + 1]))
        shell_size = len(shell_keys)
        decomposable = sum(key in conjugates for key in shell_keys)
        points.append(NegligibilityPoint(n, shell_size, decomposable,
                                         Fraction(decomposable, shell_size) if shell_size else Fraction(0)))
    fitted = _least_squares_slope((p.n, math.log(float(p.ratio))) for p in points if p.ratio > 0)
    return NegligibilityProbe(points, fitted, {
        "conj_window": conj_window, "core_window": core_window, "shell": shell,
    }, truncated=census.truncated)
