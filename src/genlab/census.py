"""Counting experiments: classification tallies, thick-set membership,
letter-block replacement maps with fiber censuses, and genericity curves.

Free-group threshold counts use Rivin's closed form for cyclically reduced
words (cross-checked against brute enumeration on small balls); everything
else is exhaustive over enumerated balls.  The thick search and the
replacement maps read one context, a :class:`SegmentTable` over a
:class:`~genlab.balls.BallIndex`: the index answers every geodesic and
norm query (a radius-0 index answers them by a new search each), and the
table builds each orbit segment once, with its basepoint alignment pair
and the least norm of its points, so that an alignment check per element
costs only the pair (segment, g x0).  A fiber census builds one index and
one table per radius.  The negligibility probe decides core norms by
membership in the spheres of its enumerated ball.  ``genericity`` and the
probe stop at the last radius their ball completes within a node budget.
All ratios are exact rationals; only fitted decay exponents are floating
point, each an exact least-squares slope over the float logs, rounded once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .alignment import AlignmentReport, as_geodesic, assemble_report, check_alignment, pair_diameters
from .balls import BallIndex, BudgetExceeded, enumerate_ball, free_ball_count
# not called here: perfbench's tracer test reads census.geodesic_representative
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


def classify(model: GroupModel, action: Optional[GroupAction], g: GroupElement) -> Classification:
    """The model's verdict on g (``GroupModel.verdict``): the Nielsen-Thurston
    type for 3-braids, loxodromy by exact tree translation length for the
    tree models.  ``action`` is not read."""
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
    alignment pair (basepoint, segment), and the least word norm of its
    points under each cap asked for so far."""

    segment: OrbitSegment
    head: tuple  # pair_diameters(basepoint, segment.projected)
    norms: dict = field(default_factory=dict)  # cap -> least norm at most cap, or None


class SegmentTable:
    """The query context of the thick search and the replacement maps: a
    :class:`~genlab.balls.BallIndex` for every geodesic and norm, and the
    orbit segments g * (id, phi, ..., phi^L) of one census by the key of
    their base g, each built and measured once (L is the ledger's segment
    length).  ``model`` and ``gens`` are the ball's.

    A radius-0 ball is the plain search path: every query but the
    identity's falls back to ``geodesic_representative`` or
    ``word_distance``.  Every alignment sequence of the thick search and
    the replacement maps is (basepoint, segment, h x0).  Its first pair
    depends on the segment alone, so it is stored; a report costs only the
    pair (segment, h x0).  The ledger constants the replacement maps use
    are computed here once: the alignment ``level``, the excised ``block``
    length, the spliced ``power`` phi^L, and the linkage ``candidates``
    (the identity, then S), and the ceilings of ``level`` and
    ``ledger.dominating``, which reports compare integer diameters with.
    """

    def __init__(self, ball: BallIndex, action: GroupAction, phi: GroupElement, ledger: ConstantLedger):
        self.ball, self.action, self.phi, self.ledger = ball, action, phi, ledger
        self.model, self.gens = ball.model, ball.gens
        self.level = ledger.alignment_level()
        self.dominating_bound, self.level_bound = math.ceil(ledger.dominating), math.ceil(self.level)
        self.block = ledger.block_length()
        self.power = phi**ledger.segment_length
        self.candidates = [self.model.identity()] + list(self.gens.elements)
        self._basepoint = as_geodesic(action.space.basepoint)
        self._entries: dict = {}
        self._windows: dict = {}
        self._cuts: dict = {}

    def entry(self, base: GroupElement, segment: Optional[OrbitSegment] = None) -> SegmentEntry:
        """The entry of the segment based at ``base``; a new entry takes
        ``segment`` when one is given."""
        found = self._entries.get(base.key)
        if found is None:
            if segment is None:
                segment = OrbitSegment(self.action, base, self.phi, self.ledger.segment_length)
            head = pair_diameters(self.action.space, self._basepoint, segment.projected)
            found = self._entries[base.key] = SegmentEntry(segment, head)
        return found

    def thick_window(self, norm: int) -> tuple:
        """The integers in the ledger's distance window times ``norm``, as
        (least, greatest); norms are integers, so this is the window."""
        return _scaled_window(self._windows, self.ledger.window, norm)

    def cut_window(self, norm: int) -> tuple:
        """The integers in the ledger's cut window times ``norm``, as
        (least, greatest)."""
        return _scaled_window(self._cuts, self.ledger.cut_window, norm)

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

    def report(self, entry: SegmentEntry, point, level: Fraction, bound: int) -> AlignmentReport:
        """``check_alignment`` of (basepoint, segment, point) at ``level``,
        a Fraction (as every ledger constant is) of ceiling ``bound``."""
        tail = pair_diameters(self.action.space, entry.segment.projected, as_geodesic(point))
        return assemble_report(level, bound, [entry.head, tail])

    def spell(self, s_letters) -> GroupElement:
        """The element spelled by signed S-letters."""
        return self.model.element(self.gens.spell(s_letters))


def _scaled_window(memo: dict, window: tuple, norm: int) -> tuple:
    bounds = memo.get(norm)
    if bounds is None:
        lo, hi = window
        bounds = memo[norm] = (math.ceil(lo * norm), math.floor(hi * norm))
    return bounds


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
    basepoint alignment.  ``norm`` is d_S(id, g), read from the table's
    ball when it is not given."""
    ledger = table.ledger
    if segment.length != ledger.segment_length:
        raise ValueError(
            f"segment length {segment.length} differs from ledger length {ledger.segment_length}"
        )
    if segment.phi != table.phi:
        raise ValueError("the segment is not of the table's distinguished element")
    entry = table.entry(segment.base, segment)
    if norm is None:
        norm = _norm(table.ball, g)
    lo, hi = table.thick_window(norm)
    best = table.least_norm(entry, hi + 1)
    if best is None or not (lo <= best <= hi):
        return ThickCertificate(False, "distance-window", best)
    report = table.report(entry, table.action.proj(g), ledger.dominating, table.dominating_bound)
    if not report.aligned:
        return ThickCertificate(False, "alignment", best, report)
    return ThickCertificate(True, "ok", best, report)


@dataclass
class ThickSearchResult:
    found: bool
    degenerate: bool = False
    witness: Optional[OrbitSegment] = None
    certificate: Optional[ThickCertificate] = None


def a_thick_search(table: SegmentTable, g: GroupElement) -> ThickSearchResult:
    """Window scan along the table ball's geodesic of g, with the left
    perturbations of ``table.candidates``.  Sound when it answers yes; a no
    is heuristic."""
    geo = table.ball.geodesic(g)
    n = len(geo.s_letters)
    lo, hi = table.thick_window(n)
    if lo < 1 or lo > hi:
        return ThickSearchResult(False, degenerate=True)
    for i in range(lo, hi + 1):
        prefix = table.spell(geo.s_letters[:i])
        for s in table.candidates:
            seg = table.entry(prefix * s).segment
            cert = a_thick_certify(table, g, seg, norm=n)
            if cert.certified:
                return ThickSearchResult(True, witness=seg, certificate=cert)
    return ThickSearchResult(False)


# ---------------------------------------------------------------------------
# The replacement maps


class LinkageFailure(RuntimeError):
    """No linkage pair certified the splice alignment (a hard failure on
    tree models)."""

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
    norm_in: int
    norm_out: int


def replacement_map(table: SegmentTable, g: GroupElement, i: int) -> Replacement:
    """Cut the table ball's geodesic of g at i, excise a block, splice in a
    linked power of the distinguished element: g = w l v  ->  w s phi^L t v.

    The linkage pair (s, t) is the first one in deterministic order whose
    splice alignment certifies at the ledger level; the segments
    w s (phi^0, ..., phi^L) come from the table, and the output norm from
    its ball.
    """
    geo = table.ball.geodesic(g)
    n = len(geo.s_letters)
    lo, hi = table.cut_window(n)
    if not (lo <= i <= hi):
        raise ValueError(f"cut index {i} outside window [{lo}, {hi}]")
    block = table.block
    if i + block > n:
        raise ValueError(f"excised block [{i + 1}, {i + block}] does not fit in length {n}")
    w = table.spell(geo.s_letters[:i])
    v = table.spell(geo.s_letters[i + block :])
    best = None
    for s in table.candidates:
        ws = w * s
        entry = table.entry(ws)
        head = ws * table.power
        for t in table.candidates:
            out = head * t * v
            report = table.report(entry, table.action.proj(out), table.level, table.level_bound)
            if report.aligned:
                return Replacement(out, i, s, t, report, norm_in=n, norm_out=_norm(table.ball, out))
            if best is None or report.worst() < best.worst():
                best = report
    raise LinkageFailure(f"no linkage certified at level {table.level}", best)


@dataclass
class DoubleReplacement:
    first: GroupElement  # w s phi^L t w'
    second: GroupElement  # w s phi^L t w' s' phi^(2L) t' v
    cuts: tuple
    linkages: tuple  # (s, t, s2, t2)
    report: AlignmentReport


def double_replacement(table: SegmentTable, g: GroupElement, i: int, j: int) -> DoubleReplacement:
    """Two-cut version: splice linked powers at both cut indices.

    Requires j - i > 2 * ceil(dominating * segment_length) + 3, mirroring
    the two-index set of the superpolynomial argument.
    """
    geo = table.ball.geodesic(g)
    n = len(geo.s_letters)
    block = table.block
    gap = 2 * (block - 2) + 3
    if not i < j - gap:
        raise ValueError(f"cut indices ({i}, {j}) violate the gap {gap}")
    lo, hi = table.cut_window(n)
    if not (lo <= i <= hi and lo <= j <= hi):
        raise ValueError(f"cut indices ({i}, {j}) outside window [{lo}, {hi}]")
    if j + block > n:
        raise ValueError("second excised block does not fit")
    w = table.spell(geo.s_letters[:i])
    w2 = table.spell(geo.s_letters[i + block : j])
    v = table.spell(geo.s_letters[j + block :])
    action, length = table.action, 2 * table.ledger.segment_length
    power2 = table.power * table.power
    best = None
    for s in table.candidates:
        seg1 = table.entry(w * s).segment
        for t in table.candidates:
            head = w * s * table.power * t * w2
            for s2 in table.candidates:
                seg2 = OrbitSegment(action, head * s2, table.phi, length)
                for t2 in table.candidates:
                    out = head * s2 * power2 * t2 * v
                    seq = [action.space.basepoint, seg1.projected, seg2.projected, action.proj(out)]
                    report = check_alignment(action.space, seq, table.level)
                    if report.aligned:
                        return DoubleReplacement(head, out, (i, j), (s, t, s2, t2), report)
                    if best is None or report.worst() < best.worst():
                        best = report
    raise LinkageFailure(f"no double linkage certified at level {table.level}", best)


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


def fiber_census(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    ledger: ConstantLedger,
    n: int,
    shell: Fraction = Fraction(99, 100),
    node_budget: Optional[int] = None,
) -> FiberReport:
    """Exact fibers of the replacement map over its domain: the outer shell
    of the radius-n ball, minus certified thick elements, crossed with the
    cut window.

    One :class:`BallIndex` of radius n supplies the shell and answers every
    geodesic and norm query of the thick search and the replacement map.
    Raises :class:`BudgetExceeded` if that ball outgrows ``node_budget``.
    """
    ball = BallIndex(model, gens, n, node_budget=node_budget)
    if ball.truncated:
        raise BudgetExceeded(f"the radius-{n} ball outgrew the node budget {node_budget}")
    table = SegmentTable(ball, action, phi, ledger)
    inner = math.floor(shell * n)
    fibers: dict = {}
    domain = 0
    thick_skipped = 0
    degenerate = 0
    for r in range(inner + 1, n + 1):
        for key in ball.spheres[r]:
            g = GroupElement(model, key)
            found = a_thick_search(table, g)
            if found.found:
                thick_skipped += 1
                continue
            lo, hi = table.cut_window(r)
            indices = [i for i in range(max(lo, 1), hi + 1) if i + table.block <= r]
            if not indices:
                degenerate += 1
                continue
            for i in indices:
                rep = replacement_map(table, g, i)
                domain += 1
                fibers[rep.element.key] = fibers.get(rep.element.key, 0) + 1
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


def _count_leq(sorted_vals, cut) -> int:
    return bisect.bisect_right(sorted_vals, cut)


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
        for r in range(r_max + 1):
            for key in census.elements[r]:
                q = model.quotient_key(key)
                if q not in seen:
                    seen.add(q)
                    # the verdict is constant on a coset
                    running_special += model.verdict(key)[0] != "pseudoAnosov"
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
                count += _count_leq(taus[rr], cut)
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
    conj_window: Fraction = Fraction(31, 100),
    core_window: Fraction = Fraction(57, 100),
    shell: Fraction = Fraction(99, 100),
    node_budget: Optional[int] = None,
) -> NegligibilityProbe:
    """Fraction of the outer shell admitting a conjugation decomposition
    h^-1 g' h with the stated norm windows, exhaustive over short h.

    One enumerated ball supplies the shell, the conjugators h and the
    cores: d_S(core) <= core_window * n is decided exactly, for every
    generating set, by membership in its spheres up to radius
    floor(core_window * n).  If the ball outgrows ``node_budget``, every n
    it does not reach is left out and the probe is ``truncated``."""
    def reach(n: int) -> int:  # the radius the shell, the cores and the conjugators of n need
        return max(n, math.floor(core_window * n), math.floor(conj_window * n))

    points = []
    mul = model.mul_keys
    census = enumerate_ball(model, gens, reach(max(n_values)), keep_elements=True, node_budget=node_budget)
    for n in n_values:
        if reach(n) > census.radius:
            continue
        inner = math.floor(shell * n)
        h_cap = math.floor(conj_window * n)
        short_core = set(itertools.chain.from_iterable(census.elements[:math.floor(core_window * n) + 1]))
        # each conjugator h with its inverse, to test h g h^-1 on keys
        h_pairs = [(hk, model.inverse_key(hk)) for r in range(h_cap + 1) for hk in census.elements[r]]
        shell_size = 0
        decomposable = 0
        for r in range(inner + 1, n + 1):
            for key in census.elements[r]:
                shell_size += 1
                for hk, hinv in h_pairs:
                    if mul(mul(hk, key), hinv) in short_core:
                        decomposable += 1
                        break
        points.append(NegligibilityPoint(n, shell_size, decomposable,
                                         Fraction(decomposable, shell_size) if shell_size else Fraction(0)))
    fitted = _least_squares_slope((p.n, math.log(float(p.ratio))) for p in points if p.ratio > 0)
    return NegligibilityProbe(points, fitted, {
        "conj_window": conj_window, "core_window": core_window, "shell": shell,
    }, truncated=census.truncated)
