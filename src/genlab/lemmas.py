"""The concatenation inequalities as executable checks on exact models.

Instances are generated constructively so that their alignment hypotheses
certify at high rate, then every inequality is evaluated in exact rational
arithmetic.  A hypothesis-certified instance whose conclusion fails is a
hard suite failure: the statements are theorems, so a failure can only
mean an implementation bug.

Chain instances (single-segment capture, chain capture, distance sum) live
on free-group Cayley trees, where the word metric and the tree metric
agree.  The quadratic-length corollary needs the two metrics to differ --
its hypotheses are unsatisfiable when they coincide -- so its instances
are built in the 3-strand braid group acting on the Bass-Serre tree of its
central quotient, with all word norms certified exactly through the
exponent-sum homomorphism.  The chain checks walk [g, h]_S as keys and
place each point on a segment by its median index, from two distances.

The appendix suite checks the hyperbolic-space facts (projection near the
median, synchronized projections, projection diameter, subsegment capture,
the projection dichotomy).  On small graphs it runs the generic ``check_*``
functions exhaustively; on random points of free-group Cayley trees the
``_tree_*`` checks decide the same facts on the integer indices and
distances of ``alignment.tree_projection``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .alignment import (
    AlignmentReport,
    as_geodesic,
    assemble_report,
    behrstock_dichotomy,
    check_alignment,
    fellow_traveling,
    gromov_product,
    pair_diameters,
    project,
    set_diameter,
    tree_projection,
)
from .contraction import measure_scaled_ledger
from .groups import Braid3, FreeGroup, GroupElement
from .ledger import ConstantLedger
from .spaces import (
    Geodesic,
    GroupAction,
    OrbitSegment,
    build_bass_serre_tree,
    build_cayley_tree,
)
from .words import signed_letters


@dataclass
class InequalityVerdict:
    instance_id: str
    lemma_id: str
    lhs: Fraction
    rhs: Fraction
    passed: bool

    @classmethod
    def decide(cls, instance_id, lemma_id, lhs, rhs):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return cls(instance_id, lemma_id, lhs, rhs, lhs <= rhs)

    def to_json(self) -> dict:
        return {
            "instance": self.instance_id,
            "lemma": self.lemma_id,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "passed": self.passed,
        }


@dataclass
class SkippedInstance:
    instance_id: str
    lemma_id: str
    reason: str
    report: Optional[AlignmentReport] = None


# ---------------------------------------------------------------------------
# Chain instances on free-group Cayley trees


@dataclass
class ChainInstance:
    """An aligned configuration (g, segments..., h) over a free group.

    Its hypothesis report and the vertices of [g, h]_S are built on first
    use and kept, so the lemmas verified on one instance share them.
    """

    instance_id: str
    group: FreeGroup
    action: GroupAction
    ledger: ConstantLedger
    level: Fraction  # the alignment level K of the hypothesis
    g: GroupElement
    h: GroupElement
    segments: list  # OrbitSegments, each of even length M
    _report: Optional[AlignmentReport] = field(default=None, init=False, repr=False, compare=False)
    _path: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    _gaps: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @property
    def space(self):
        return self.action.space

    def midpoints(self) -> list:
        return [seg.midpoint_element() for seg in self.segments]

    def hypothesis_report(self) -> AlignmentReport:
        if self._report is None:
            seq = [self.action.proj(self.g)]
            seq.extend(seg.projected for seg in self.segments)
            seq.append(self.action.proj(self.h))
            self._report = check_alignment(self.space, seq, self.level)
        return self._report

    def word_geodesic_elements(self) -> list:
        """The vertices of [g, h]_S, which on the standard-basis Cayley tree
        are the tree geodesic's between the two keys (one list, shared by
        every call)."""
        if self._path is None:
            self._path = [GroupElement(self.group, k) for k in self.space.geodesic(self.g.key, self.h.key).points]
        return self._path

    def d(self, u: GroupElement, v: GroupElement) -> int:
        """d_S(u, v), which on the standard-basis Cayley tree is the tree
        distance between the two keys."""
        return self.space.distance(u.key, v.key)

    def gaps(self) -> list:
        """d_S between consecutive points of (g, the segment midpoints, h)
        (one list, shared by every call)."""
        if self._gaps is None:
            keys = [self.g.key, *(p.key for p in self.midpoints()), self.h.key]
            self._gaps = list(map(self.space.distance, keys, keys[1:]))
        return self._gaps


@functools.cache
def _letter_pools(letters: tuple) -> dict:
    """For each banned letter, and for None, the other letters in order."""
    return {b: tuple(c for c in letters if c != b) for b in (None, *letters)}


def random_reduced_word(rng: random.Random, letters, n: int, avoid_first=None) -> tuple:
    """A freely reduced word of length n, one ``rng.choice`` per letter from
    ``letters`` in their order, whose first letter is not ``avoid_first``."""
    pools = _letter_pools(letters)
    choice = rng.choice
    out: list = []
    banned = avoid_first
    for _ in range(n):
        c = choice(pools.get(banned, pools[None]))
        out.append(c)
        banned = -c
    return tuple(out)


def random_chain_instance(
    rng: random.Random,
    n_segments: int,
    phi_word: str = "a",
    level: int = 2,
    *,
    ledger: ConstantLedger,
    segment_length: Optional[int] = None,
) -> ChainInstance:
    """Segments marching along a line in the rank-2 Cayley tree, with bounded
    perturbations between consecutive segments and free tails at both ends.

    The construction keeps every adjacent projection diameter below the
    level, so hypothesis certification succeeds for (nearly) every draw.
    ``ledger`` is measured once by the caller and shared by its instances
    (its chain threshold sets the default ``segment_length``).
    """
    tree, action = build_cayley_tree(2)
    group = tree.group
    phi_letters = group.alphabet.parse(phi_word)
    phi = group.element(phi_letters)
    if segment_length is None:
        m = int(ledger.chain_threshold(level)) + 1
        segment_length = m + (m % 2)  # even, above the chain threshold
    letters = signed_letters(tree.rank)
    first, last = phi_letters[0], phi_letters[-1]

    base = group.element(random_reduced_word(rng, letters, rng.randrange(0, 5)))
    segments = []
    cur = base
    for i in range(n_segments):
        segments.append(OrbitSegment(action, cur, phi, segment_length))
        if i + 1 < n_segments:
            hop = phi**segment_length
            # perturbation shorter than the level, avoiding axis backtrack
            perturb = random_reduced_word(rng, letters, rng.randrange(0, max(1, level - 1)), avoid_first=-last)
            cur = cur * hop * group.element(perturb)
    tail_g = group.element(random_reduced_word(rng, letters, rng.randrange(0, 3), avoid_first=first))
    g = base * phi ** (-rng.randrange(1, 4)) * tail_g
    tip = segments[-1].points[-1]
    tail_h = group.element(random_reduced_word(rng, letters, rng.randrange(0, 3), avoid_first=-last))
    h = tip * phi ** rng.randrange(1, 4) * tail_h
    return ChainInstance(
        instance_id=f"chain-{rng.randrange(10**9)}",
        group=group,
        action=action,
        ledger=ledger,
        level=Fraction(level),
        g=g,
        h=h,
        segments=segments,
    )


def _middle_third_ok(space, segment: OrbitSegment, p_point) -> bool:
    """Every projection index i of the point onto the segment's length-n
    geodesic has n/3 <= i <= 2n/3, decided as n <= 3i <= 2n.  On a tree the
    one index is the median, from two distances (``tree_projection``)."""
    proj = segment.projected
    n = len(proj)
    if space.is_tree:
        i = tree_projection(space, p_point, proj)[0]
        return n <= 3 * i <= 2 * n
    return all(n <= 3 * i <= 2 * n for i in project(space, p_point, proj).indices)


def _short_segment(instance, lemma: str, threshold) -> Optional[SkippedInstance]:
    """The skip of an instance with a segment not above ``threshold``, the
    length each lemma's bound needs; None when every segment is above it."""
    for seg in instance.segments:
        if not seg.length > threshold:
            return SkippedInstance(instance.instance_id, lemma,
                                   f"segment length {seg.length} not above threshold {threshold}")
    return None


def _skip(instance: ChainInstance, lemma: str, threshold) -> Optional[SkippedInstance]:
    """Why the lemma skips the chain instance: a segment not above
    ``threshold``, or a failed alignment hypothesis; None when neither."""
    short = _short_segment(instance, lemma, threshold)
    if short is not None:
        return short
    report = instance.hypothesis_report()
    if not report.aligned:
        return SkippedInstance(instance.instance_id, lemma, "alignment hypothesis failed", report)
    return None


def _nearest_capture(instance: ChainInstance, seg: OrbitSegment, start: int = 0):
    """(d_S(p, q), position) of the first point p of [g, h]_S from ``start``
    on nearest the segment's midpoint q, among the points (walked as keys)
    projecting into the segment's middle third; None when none does."""
    path = instance.word_geodesic_elements()
    space = instance.space
    q = seg.midpoint_element().key
    return min(((space.distance(path[pos].key, q), pos) for pos in range(start, len(path))
                if _middle_third_ok(space, seg, path[pos].key)), default=None)


def verify_midpoint_capture(instance: ChainInstance):
    """Single segment: some point of [g, h]_S lands mid-segment, word-close
    to the segment midpoint (within one percent of the flanking distances)."""
    if len(instance.segments) != 1:
        raise ValueError("midpoint capture takes a single-segment instance")
    skip = _skip(instance, "midpoint-capture", instance.ledger.capture_threshold(instance.level))
    if skip is not None:
        return skip
    seg = instance.segments[0]
    nearest = _nearest_capture(instance, seg)
    if nearest is None:
        return InequalityVerdict(instance.instance_id, "midpoint-capture",
                                 Fraction(10**9), Fraction(0), False)
    q = seg.midpoint_element()
    rhs = Fraction(instance.d(instance.g, q) + instance.d(q, instance.h), 100)
    return InequalityVerdict.decide(instance.instance_id, "midpoint-capture", nearest[0], rhs)


def chain_weight_bound(instance: ChainInstance, i: int) -> Fraction:
    """The exponentially weighted gap sum bounding d_S(p_i, q_i), over the
    instance's gaps (computed once per instance)."""
    gaps = instance.gaps()
    n = len(instance.segments)
    total = Fraction(0)
    for l in range(1, i + 1):
        total += Fraction(1, 30**l) * gaps[i - l]
    for l in range(1, n - i + 2):
        total += Fraction(1, 30**l) * gaps[i + l - 1]
    return total


def verify_chain_capture(instance: ChainInstance):
    """Chain version: ordered points p_1 <= ... <= p_n of [g, h]_S, each
    word-close to its segment midpoint with exponentially decaying weights."""
    skip = _skip(instance, "chain-capture", instance.ledger.chain_threshold(instance.level))
    if skip is not None:
        return skip
    verdicts = []
    cursor = 0
    for i, seg in enumerate(instance.segments, start=1):
        nearest = _nearest_capture(instance, seg, cursor)
        if nearest is None:
            verdicts.append(InequalityVerdict(instance.instance_id, f"chain-capture[{i}]",
                                              Fraction(10**9), Fraction(0), False))
            continue
        best, cursor = nearest
        rhs = chain_weight_bound(instance, i)
        verdicts.append(InequalityVerdict.decide(instance.instance_id, f"chain-capture[{i}]", best, rhs))
    return verdicts


def verify_distance_sum(instance: ChainInstance):
    """Sum of distances from [g, h]_S to the segment midpoints is at most
    half of d_S(g, h)."""
    skip = _skip(instance, "distance-sum", instance.ledger.chain_threshold(instance.level))
    if skip is not None:
        return skip
    dist = instance.space.distance
    keys = [p.key for p in instance.word_geodesic_elements()]
    total = sum(min(dist(k, seg.midpoint_element().key) for k in keys) for seg in instance.segments)
    rhs = Fraction(instance.d(instance.g, instance.h), 2)
    return InequalityVerdict.decide(instance.instance_id, "distance-sum", total, rhs)


# ---------------------------------------------------------------------------
# Quadratic-length instances in the braid group

_POS_D2_PHI_INV = (1, 2, 1, 1, 1, 2)  # Delta sigma1^2 sigma2 = Delta^2 (s1 s2^-1)^-1
_POS_D2_PHI = (1, 2, 1, 2, 2, 1)  # Delta sigma2^2 sigma1 = Delta^2 (s1 s2^-1)


def certified_braid_norm(model: Braid3, key, witness_word) -> int:
    """Exact word norm from a witness of length |exponent sum|.

    Every standard generator changes the exponent sum by one, so the norm
    is at least |rho|; a witness word of exactly that length realizing the
    key proves equality.
    """
    if model.normalize(witness_word) != key:
        raise ValueError("witness word does not represent the element")
    rho = model.exponent_sum_key(key)
    if len(witness_word) != abs(rho):
        raise ValueError("witness word does not meet the exponent-sum bound")
    return len(witness_word)


def central_mix_norm(model: Braid3, m: int, t: int) -> int:
    """Certified norm of Delta^(2m) phi^t for |t| <= m, phi = s1 s2^-1.

    Uses the identities Delta^2 phi = Delta s2^2 s1 and
    Delta^2 phi^-1 = Delta s1^2 s2, both positive of length six.
    """
    if m < abs(t):
        raise ValueError("need m >= |t| for the positive-word certificate")
    block = _POS_D2_PHI if t >= 0 else _POS_D2_PHI_INV
    witness = block * abs(t) + (1, 2) * (3 * (m - abs(t)))
    phi = model.element("aB")
    key = model.mul_keys((m, b""), (phi**t).key)  # Delta^(2m) = c^m
    return certified_braid_norm(model, key, witness)


@dataclass
class QuadraticInstance:
    """g on a word geodesic [h1, h2]_S with an aligned segment chain that
    both endpoints see from beyond its far end -- realizable because the
    center collapses in the quotient tree."""

    instance_id: str
    group: Braid3
    action: GroupAction
    ledger: ConstantLedger
    level: Fraction
    g: GroupElement
    h1: GroupElement
    h2: GroupElement
    segments: list
    d_h1_g: int
    d_g_h2: int
    d_h1_h2: int


def random_quadratic_instance(
    rng: random.Random,
    n_segments: int,
    segment_length: int,
    ledger: ConstantLedger,
    level: int = 2,
) -> QuadraticInstance:
    """Chain along the axis of s1 s2^-1; endpoints differ from g by central
    twists conjugated across the chain, so g separates them in the word
    metric while all three project to the chain's near end or beyond."""
    tree, _, action = build_bass_serre_tree()
    group: Braid3 = action.group
    phi = group.element("aB")

    gaps = [rng.randrange(1, 3) for _ in range(n_segments - 1)]
    starts = []
    pos = rng.randrange(0, 2)
    for i in range(n_segments):
        starts.append(pos)
        pos += segment_length + (gaps[i] if i < len(gaps) else 0)
    chain_end = starts[-1] + segment_length
    t1 = chain_end + rng.randrange(1, 3)
    t2 = chain_end + rng.randrange(1, 3)
    m1 = t1 + rng.randrange(0, 4) + max(0, (level**2) // 6)
    m2 = t2 + rng.randrange(0, 4)

    # ensure the quadratic right-hand side is comfortably positive territory
    d2 = group.element("ababab")
    g = d2**m1
    h1 = phi**t1
    h2 = d2 ** (m1 + m2) * phi**t2

    d_h1_g = central_mix_norm(group, m1, -t1)  # |phi^-t1 Delta^(2 m1)|
    d_g_h2 = central_mix_norm(group, m2, t2)  # |Delta^(2 m2) phi^t2|
    dt = t2 - t1
    d_h1_h2 = central_mix_norm(group, m1 + m2, dt)
    assert d_h1_g + d_g_h2 == d_h1_h2, "g must lie on a word geodesic [h1, h2]"

    segments = [OrbitSegment(action, phi**s, phi, segment_length) for s in starts]
    return QuadraticInstance(
        instance_id=f"quad-{rng.randrange(10**9)}",
        group=group,
        action=action,
        ledger=ledger,
        level=Fraction(level),
        g=g,
        h1=h1,
        h2=h2,
        segments=segments,
        d_h1_g=d_h1_g,
        d_g_h2=d_g_h2,
        d_h1_h2=d_h1_h2,
    )


def verify_quadratic_length(instance: QuadraticInstance):
    """Both-ended alignment across N segments forces the endpoints at least
    quadratically far apart: d_S(h1, h2) >= dominating * (N - M - 1)^2."""
    led = instance.ledger
    short = _short_segment(instance, "quadratic-length", led.chain_threshold(instance.level))
    if short is not None:
        return short
    space = instance.action.space
    proj = instance.action.proj
    # the pairs (g, seg_1, ..., seg_N) are shared by both endpoints
    items = [as_geodesic(proj(instance.g)), *(seg.projected for seg in instance.segments)]
    pairs = [pair_diameters(space, a, b) for a, b in zip(items, items[1:])]
    for endpoint in (instance.h1, instance.h2):
        last = pair_diameters(space, items[-1], as_geodesic(proj(endpoint)))
        report = assemble_report(instance.level, math.ceil(instance.level), pairs + [last])
        if not report.aligned:
            return SkippedInstance(instance.instance_id, "quadratic-length",
                                   "alignment hypothesis failed", report)
    if instance.d_h1_g + instance.d_g_h2 != instance.d_h1_h2:
        return SkippedInstance(instance.instance_id, "quadratic-length",
                               "g not on a word geodesic between the endpoints")
    n = len(instance.segments)
    m = instance.segments[0].length
    lhs = led.dominating * (n - m - 1) ** 2 if n - m - 1 > 0 else Fraction(0)
    return InequalityVerdict.decide(instance.instance_id, "quadratic-length",
                                    lhs, Fraction(instance.d_h1_h2))


# ---------------------------------------------------------------------------
# Concatenation suite: every lemma above on random instances


def concatenation_suite(rng: random.Random, trials: int, node_budget: Optional[int]) -> dict:
    """The concatenation lemmas on random instances over measured F2 and B3
    ledgers; raises :class:`~genlab.balls.BudgetExceeded` if a ledger's
    ball or distance search outgrows ``node_budget``."""
    counts = {"midpoint": 0, "chain": 0, "distance-sum": 0, "quadratic": 0}
    failures = skipped = 0

    def tally(lemma: str, verdict) -> None:  # a verdict, a list of them, or a skip
        nonlocal failures, skipped
        if isinstance(verdict, SkippedInstance):
            skipped += 1
        else:
            counts[lemma] += 1
            failures += sum(not v.passed for v in (verdict if isinstance(verdict, list) else [verdict]))

    tree, action = build_cayley_tree(2)
    free = tree.group
    chain_ledger = measure_scaled_ledger(free, free.standard_gens(), action, free.element("a"), random.Random(0),
                                         segment_length=4, node_budget=node_budget)
    for _ in range(trials):
        inst = random_chain_instance(rng, n_segments=1, level=2, ledger=chain_ledger)
        tally("midpoint", verify_midpoint_capture(inst))
        inst = random_chain_instance(rng, n_segments=rng.randrange(2, 5), level=2, ledger=chain_ledger)
        tally("chain", verify_chain_capture(inst))
        tally("distance-sum", verify_distance_sum(inst))
    braid = Braid3()
    ledger = measure_scaled_ledger(braid, braid.standard_gens(), braid.tree_action(), braid.element("aB"),
                                   random.Random(rng.randrange(10**9)), segment_length=4, sample_radius=4,
                                   node_budget=node_budget)
    m = int(ledger.chain_threshold(2)) + 1
    for _ in range(max(5, trials // 4)):
        qi = random_quadratic_instance(rng, n_segments=m + rng.randrange(3, 6), segment_length=m, ledger=ledger,
                                       level=2)
        tally("quadratic", verify_quadratic_length(qi))
    return {"trials": counts, "failures": failures, "skipped": skipped}


def concatenation_summary(concat: Optional[dict]) -> str:
    if concat is None:
        return "concatenation suite: not run, a ledger outgrew the node budget"
    parts = [f"{k}: {v}" for k, v in sorted(concat["trials"].items())]
    return f"concatenation suite: {', '.join(parts)}; failures {concat['failures']}, skipped {concat['skipped']}"


# ---------------------------------------------------------------------------
# Appendix suite: the four hyperbolic-space facts


@dataclass
class SuiteReport:
    name: str
    trials: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def record(self, lemma: str, ok: bool, config=None):
        self.trials[lemma] = self.trials.get(lemma, 0) + 1
        if ok:
            self.passes[lemma] = self.passes.get(lemma, 0) + 1
        else:
            self.failures.setdefault(lemma, []).append(config)

    def all_green(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "passes": self.passes,
            "failures": {k: len(v) for k, v in self.failures.items()},
        }

    def summary(self) -> str:
        lines = [f"suite {self.name}:"]
        for lemma in sorted(self.trials):
            n, p = self.trials[lemma], self.passes.get(lemma, 0)
            lines.append(f"  {lemma}: {p}/{n} {'ok' if p == n else 'FAIL'}")
        return "\n".join(lines)


def check_projection_near_median(space, x, y, z, delta, geo: Geodesic) -> bool:
    """Projections of x onto [y, z] sit within 8 delta of the point whose
    distance from y is the Gromov product (x, z)_y."""
    t = gromov_product(space, x, z, y)
    if t.denominator != 1:
        raise ValueError("half-integer Gromov product; space is not bipartite-compatible")
    p = geo.points[int(t)]
    bound = 8 * Fraction(delta)
    return all(space.distance(q, p) <= bound for q in project(space, x, geo).points)


def check_synchronized_projections(space, x, gamma: Geodesic, eta: Geodesic, delta) -> bool:
    if len(gamma) != len(eta):
        raise ValueError("synchronized geodesics must share a length")
    eps = max(space.distance(p, q) for p, q in zip(gamma.points, eta.points))
    diam = set_diameter(space, list(project(space, x, gamma).points) + list(project(space, x, eta).points))
    if eps == 0:
        # identical geodesics: only the spread of a single projection set
        # remains, which the median approximation caps at 16 delta
        return diam <= 16 * Fraction(delta)
    return diam < 2 * eps + 16 * Fraction(delta)


def check_projection_diameter(space, x, y, geo: Geodesic, delta) -> bool:
    diam = set_diameter(space, list(project(space, x, geo).points) + list(project(space, y, geo).points))
    return diam <= space.distance(x, y) + 20 * Fraction(delta)


def check_subsegment_capture(space, x, y, geo: Geodesic, delta) -> Optional[bool]:
    """When x and y project far apart on a geodesic, [x, y] has a subsegment
    fellow traveling the projection window.  None when the premise is idle."""
    px = project(space, x, geo)
    py = project(space, y, geo)
    bound = 20 * Fraction(delta)
    best_pair = None
    for i in px.indices:
        for j in py.indices:
            if best_pair is None or abs(j - i) > abs(best_pair[1] - best_pair[0]):
                best_pair = (i, j)
    i, j = best_pair
    if abs(j - i) <= bound:
        return None
    lo, hi = min(i, j), max(i, j)
    window = geo.subsegment(lo, hi)
    if i > j:
        window = window.reverse()
    path = space.geodesic(x, y)
    a = min(project(space, window.start, path).indices)
    b = max(project(space, window.end, path).indices)
    if a > b:
        a, b = b, a
    candidate = path.subsegment(a, b)
    if fellow_traveling(space, candidate, window, bound, strict=False):
        return True
    # fall back to the exhaustive scan (small spaces only)
    L = len(path)
    for s in range(L + 1):
        for e in range(s, L + 1):
            if fellow_traveling(space, path.subsegment(s, e), window, bound, strict=False):
                return True
    return False


# The same checks on a tree at delta = 0, each deciding as the generic one on
# the same points: x projects onto a geodesic at the one index that
# ``tree_projection`` reads off two distances, and two points of one
# geodesic lie |i - j| apart.


def _tree_near_median(tree, x, y, z, geo: Geodesic) -> bool:
    """x's index on [y, z] is the Gromov product (x, z)_y."""
    i = tree_projection(tree, x, geo)[0]
    return 2 * i == tree.distance(x, y) + tree.distance(y, z) - tree.distance(x, z)


def _tree_synchronized(tree, x, gamma: Geodesic, eta: Geodesic) -> bool:
    """The one distance between x's medians on gamma and on eta."""
    eps = max(map(tree.distance, gamma.points, eta.points))
    diam = tree.distance(gamma.points[tree_projection(tree, x, gamma)[0]],
                         eta.points[tree_projection(tree, x, eta)[0]])
    return diam == 0 if eps == 0 else diam < 2 * eps


def _tree_projection_diameter(tree, x, y, geo: Geodesic) -> bool:
    return abs(tree_projection(tree, x, geo)[0] - tree_projection(tree, y, geo)[0]) <= tree.distance(x, y)


def _tree_subsegment_capture(tree, x, y, geo: Geodesic) -> Optional[bool]:
    """The window between the medians i and j of x and y on geo against the
    subsegment of [x, y] between the window ends' medians.  At delta 0 a
    fellow traveler of the window has its ends, which are then their own
    medians, so no other subsegment can pass."""
    i = tree_projection(tree, x, geo)[0]
    j = tree_projection(tree, y, geo)[0]
    if i == j:
        return None
    window = geo.subsegment(min(i, j), max(i, j))
    if i > j:
        window = window.reverse()
    path = tree.geodesic(x, y)
    a = tree_projection(tree, geo.points[i], path)[0]
    b = tree_projection(tree, geo.points[j], path)[0]
    return fellow_traveling(tree, path.subsegment(min(a, b), max(a, b)), window, 0, strict=False)


def _tree_dichotomy_sides(tree, x, g1: Geodesic, g2: Geodesic, level: int) -> tuple:
    """The sides of ``behrstock_dichotomy`` for a pair aligned at the integer
    level: (x, g2) is aligned when x's index on g2 is below it, and (g1, x)
    when x's median on g1 is closer than it to g1's end."""
    return tree_projection(tree, x, g2)[0] < level, len(g1) - tree_projection(tree, x, g1)[0] < level


def appendix_suite_tree(rank: int, trials: int, rng: random.Random) -> SuiteReport:
    """Randomized appendix checks on a free-group Cayley tree (delta = 0)."""
    tree, _ = build_cayley_tree(rank)
    group = tree.group
    report = SuiteReport(f"appendix-tree-f{rank}")
    letters = signed_letters(tree.rank)  # also past z, where the group's alphabet of names stops

    def rand_point():
        return group.normalize(random_reduced_word(rng, letters, rng.randrange(0, 12)))

    def rand_geodesic(min_len=1):
        while True:
            p, q = rand_point(), rand_point()
            if tree.distance(p, q) >= min_len:
                return tree.geodesic(p, q)

    for _ in range(trials):
        x, y, z = rand_point(), rand_point(), rand_point()
        if y == z:
            continue
        geo = tree.geodesic(y, z)
        report.record("projection-near-median", _tree_near_median(tree, x, y, z, geo), (x, y, z))

        gamma = rand_geodesic(min_len=2)
        e1 = rng.randrange(0, 3)
        e2 = rng.randrange(0, 3)
        eta = _perturbed_parallel(tree, gamma, e1, e2, rng)
        if eta is not None:
            report.record("synchronized-projections", _tree_synchronized(tree, x, gamma, eta), (x,))

        report.record("projection-diameter", _tree_projection_diameter(tree, x, y, geo), (x, y))

        cap = _tree_subsegment_capture(tree, x, y, geo)
        if cap is not None:
            report.record("subsegment-capture", cap, (x, y))

        g1, g2, level = _aligned_tree_pair(tree, rng)
        report.record("projection-dichotomy", any(_tree_dichotomy_sides(tree, x, g1, g2, level)), (x,))
    return report


def _perturbed_parallel(tree, gamma: Geodesic, e1: int, e2: int, rng) -> Optional[Geodesic]:
    """A geodesic of the same length synchronized with gamma: hang branches
    of equal length off interior trunk points at both ends."""
    L = len(gamma)
    if e1 + e2 + 1 > L or (e1 == 0 and e2 == 0):
        return gamma

    def branch(anchor, steps):
        pts = [anchor]
        for d in range(steps):  # pts[-1] is d steps from the anchor
            options = [v for v in tree.neighbors(pts[-1]) if v not in trunk and tree.distance(v, anchor) > d]
            if not options:
                return None
            pts.append(rng.choice(options))
        return pts

    trunk = set(gamma.points)
    b1 = branch(gamma.points[e1], e1)
    b2 = branch(gamma.points[L - e2], e2)
    if b1 is None or b2 is None:
        return None
    return Geodesic((*b1[:0:-1], *gamma.points[e1 : L - e2 + 1], *b2[1:]))


def _aligned_tree_pair(tree, rng):
    """Two segments in order along a common geodesic of length 24, and the
    least integer level making the pair aligned (strictly): one more than
    its larger pair diameter, read off the endpoints' medians as
    ``pair_diameters`` does on trees."""
    group = tree.group
    word = random_reduced_word(rng, signed_letters(tree.rank), 24)
    line = tree.geodesic(tree.basepoint, group.normalize(word))
    L = len(line)
    a = rng.randrange(0, L - 8)
    b = a + rng.randrange(2, 5)
    c = b + rng.randrange(1, 3)
    d = min(c + rng.randrange(2, 5), L)  # c <= L - 3, so d > c
    g1 = line.subsegment(a, b)
    g2 = line.subsegment(c, d)
    fwd = len(g1) - min(tree_projection(tree, p, g1)[0] for p in (g2.start, g2.end))
    bwd = max(tree_projection(tree, p, g2)[0] for p in (g1.start, g1.end))
    return g1, g2, max(fwd, bwd) + 1


def appendix_suite_graph(graph, delta) -> SuiteReport:
    """Exhaustive appendix checks on a small finite graph at measured delta."""
    report = SuiteReport(f"appendix-{graph.name}")
    verts = list(graph.vertices())
    geodesics = []
    for p in verts:
        for q in verts:
            if p < q:
                geodesics.extend(graph.all_geodesics(p, q))
    for x in verts:
        for y in verts:
            for z in verts:
                if y == z:
                    continue
                for geo in graph.all_geodesics(y, z):
                    report.record("projection-near-median",
                                  check_projection_near_median(graph, x, y, z, delta, geo))
    for x in verts:
        for gamma in geodesics:
            for eta in geodesics:
                if len(gamma) == len(eta) and len(gamma) >= 1:
                    report.record("synchronized-projections",
                                  check_synchronized_projections(graph, x, gamma, eta, delta))
    for x in verts:
        for y in verts:
            for geo in geodesics:
                report.record("projection-diameter",
                              check_projection_diameter(graph, x, y, geo, delta))
                cap = check_subsegment_capture(graph, x, y, geo, delta)
                if cap is not None:
                    report.record("subsegment-capture", cap)
    for g1 in geodesics:
        for g2 in geodesics:
            rep = check_alignment(graph, [g1, g2], 1)
            level = Fraction(rep.worst() + 1)
            for x in verts:
                try:
                    behrstock_dichotomy(graph, x, g1, g2, level, delta)
                    report.record("projection-dichotomy", True)
                except AssertionError:
                    report.record("projection-dichotomy", False, (x,))
    return report
