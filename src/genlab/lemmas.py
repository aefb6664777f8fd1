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
exponent-sum homomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .alignment import (
    AlignmentReport,
    check_alignment,
    behrstock_dichotomy,
    fellow_traveling,
    gromov_product,
    project,
    set_diameter,
)
from .groups import Braid3, FreeGroup, GeneratingSet, GroupElement
from .ledger import ConstantLedger
from .spaces import (
    Geodesic,
    GroupAction,
    OrbitSegment,
    build_bass_serre_tree,
    build_cayley_tree,
)


@dataclass
class InequalityVerdict:
    instance_id: str
    lemma_id: str
    lhs: Fraction
    rhs: Fraction
    passed: bool
    witness: object = None

    @classmethod
    def decide(cls, instance_id, lemma_id, lhs, rhs, witness=None):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return cls(instance_id, lemma_id, lhs, rhs, lhs <= rhs, witness)

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
    """An aligned configuration (g, segments..., h) over a free group."""

    instance_id: str
    group: FreeGroup
    gens: GeneratingSet
    action: GroupAction
    ledger: ConstantLedger
    level: Fraction  # the alignment level K of the hypothesis
    g: GroupElement
    h: GroupElement
    segments: list  # OrbitSegments, each of even length M

    @property
    def space(self):
        return self.action.space

    def midpoints(self) -> list:
        return [seg.midpoint_element() for seg in self.segments]

    def hypothesis_report(self) -> AlignmentReport:
        seq = [self.action.proj(self.g)]
        seq.extend(seg.projected for seg in self.segments)
        seq.append(self.action.proj(self.h))
        return check_alignment(self.space, seq, self.level)

    def word_geodesic_elements(self) -> list:
        """The vertices of [g, h]_S; exact for standard free-group generators."""
        rel = self.g.inverse() * self.h
        word = self.group.key_word(rel.key)  # reduced word = geodesic spelling
        out = [self.g]
        cur = self.g
        for a in word:
            cur = cur * self.group.element((a,))
            out.append(cur)
        return out

    def d(self, u: GroupElement, v: GroupElement) -> int:
        return len((u.inverse() * v).key)


def random_reduced_word(rng: random.Random, letters, n: int, avoid_first=None) -> tuple:
    """A freely reduced word of length n, one ``rng.choice`` per letter from
    ``letters`` in their order, whose first letter is not ``avoid_first``."""
    out: list = []
    for _ in range(n):
        banned = -out[-1] if out else avoid_first
        out.append(rng.choice([c for c in letters if c != banned]))
    return tuple(out)


def random_chain_instance(
    rng: random.Random,
    n_segments: int,
    rank: int = 2,
    phi_word: str = "a",
    level: int = 2,
    *,
    ledger: ConstantLedger,
    segment_length: Optional[int] = None,
    instance_id: str = "",
) -> ChainInstance:
    """Segments marching along a line in the Cayley tree, with bounded
    perturbations between consecutive segments and free tails at both ends.

    The construction keeps every adjacent projection diameter below the
    level, so hypothesis certification succeeds for (nearly) every draw.
    ``ledger`` is measured once by the caller and shared by its instances
    (its chain threshold sets the default ``segment_length``).
    """
    tree, action = build_cayley_tree(rank)
    group = tree.group
    gens = group.standard_gens()
    phi_letters = group.alphabet.parse(phi_word)
    phi = group.element(phi_letters)
    if segment_length is None:
        m = int(ledger.chain_threshold(level)) + 1
        segment_length = m + (m % 2)  # even, above the chain threshold
    letters = group.alphabet.signed_letters()
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
        instance_id=instance_id or f"chain-{rng.randrange(10**9)}",
        group=group,
        gens=gens,
        action=action,
        ledger=ledger,
        level=Fraction(level),
        g=g,
        h=h,
        segments=segments,
    )


def _middle_third_ok(space, segment: OrbitSegment, p_point) -> bool:
    proj = segment.projected
    length = Fraction(len(proj))
    idxs = project(space, p_point, proj).indices
    return all(length / 3 <= i <= 2 * length / 3 for i in idxs)


def verify_midpoint_capture(instance: ChainInstance):
    """Single segment: some point of [g, h]_S lands mid-segment, word-close
    to the segment midpoint (within one percent of the flanking distances)."""
    if len(instance.segments) != 1:
        raise ValueError("midpoint capture takes a single-segment instance")
    seg = instance.segments[0]
    threshold = instance.ledger.capture_threshold(instance.level)
    if not seg.length > threshold:
        return SkippedInstance(instance.instance_id, "midpoint-capture",
                               f"segment length {seg.length} not above threshold {threshold}")
    report = instance.hypothesis_report()
    if not report.aligned:
        return SkippedInstance(instance.instance_id, "midpoint-capture",
                               "alignment hypothesis failed", report)
    q = seg.midpoint_element()
    space = instance.space
    best = None
    witness = None
    for p in instance.word_geodesic_elements():
        if not _middle_third_ok(space, seg, instance.action.proj(p)):
            continue
        d = instance.d(p, q)
        if best is None or d < best:
            best, witness = d, p
    if best is None:
        return InequalityVerdict(instance.instance_id, "midpoint-capture",
                                 Fraction(10**9), Fraction(0), False)
    rhs = Fraction(instance.d(instance.g, q) + instance.d(q, instance.h), 100)
    return InequalityVerdict.decide(instance.instance_id, "midpoint-capture", best, rhs, witness)


def chain_weight_bound(instance: ChainInstance, i: int) -> Fraction:
    """The exponentially weighted gap sum bounding d_S(p_i, q_i)."""
    pts = [instance.g] + instance.midpoints() + [instance.h]
    n = len(instance.segments)
    gaps = [Fraction(instance.d(pts[j], pts[j + 1])) for j in range(n + 1)]
    total = Fraction(0)
    for l in range(1, i + 1):
        total += Fraction(1, 30**l) * gaps[i - l]
    for l in range(1, n - i + 2):
        total += Fraction(1, 30**l) * gaps[i + l - 1]
    return total


def verify_chain_capture(instance: ChainInstance):
    """Chain version: ordered points p_1 <= ... <= p_n of [g, h]_S, each
    word-close to its segment midpoint with exponentially decaying weights."""
    threshold = instance.ledger.chain_threshold(instance.level)
    for seg in instance.segments:
        if not seg.length > threshold:
            return SkippedInstance(instance.instance_id, "chain-capture",
                                   f"segment length {seg.length} not above threshold {threshold}")
    report = instance.hypothesis_report()
    if not report.aligned:
        return SkippedInstance(instance.instance_id, "chain-capture",
                               "alignment hypothesis failed", report)
    space = instance.space
    path = instance.word_geodesic_elements()
    verdicts = []
    cursor = 0
    for i, seg in enumerate(instance.segments, start=1):
        q = seg.midpoint_element()
        best = None
        best_pos = cursor
        for pos in range(cursor, len(path)):
            p = path[pos]
            if not _middle_third_ok(space, seg, instance.action.proj(p)):
                continue
            d = instance.d(p, q)
            if best is None or d < best:
                best, best_pos = d, pos
        if best is None:
            verdicts.append(InequalityVerdict(instance.instance_id, f"chain-capture[{i}]",
                                              Fraction(10**9), Fraction(0), False))
            continue
        cursor = best_pos
        rhs = chain_weight_bound(instance, i)
        verdicts.append(InequalityVerdict.decide(instance.instance_id, f"chain-capture[{i}]", best, rhs))
    return verdicts


def verify_distance_sum(instance: ChainInstance):
    """Sum of distances from [g, h]_S to the segment midpoints is at most
    half of d_S(g, h)."""
    threshold = instance.ledger.chain_threshold(instance.level)
    for seg in instance.segments:
        if not seg.length > threshold:
            return SkippedInstance(instance.instance_id, "distance-sum",
                                   f"segment length {seg.length} not above threshold {threshold}")
    report = instance.hypothesis_report()
    if not report.aligned:
        return SkippedInstance(instance.instance_id, "distance-sum",
                               "alignment hypothesis failed", report)
    path = instance.word_geodesic_elements()
    total = Fraction(0)
    for seg in instance.segments:
        q = seg.midpoint_element()
        total += min(instance.d(p, q) for p in path)
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
    gens: GeneratingSet
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
    instance_id: str = "",
) -> QuadraticInstance:
    """Chain along the axis of s1 s2^-1; endpoints differ from g by central
    twists conjugated across the chain, so g separates them in the word
    metric while all three project to the chain's near end or beyond."""
    tree, _, action = build_bass_serre_tree()
    group: Braid3 = action.group
    gens = group.standard_gens()
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
        instance_id=instance_id or f"quad-{rng.randrange(10**9)}",
        group=group,
        gens=gens,
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
    threshold = led.chain_threshold(instance.level)
    for seg in instance.segments:
        if not seg.length > threshold:
            return SkippedInstance(instance.instance_id, "quadratic-length",
                                   f"segment length {seg.length} not above threshold {threshold}")
    space = instance.action.space
    proj = instance.action.proj
    for endpoint in (instance.h1, instance.h2):
        seq = [proj(instance.g)]
        seq.extend(seg.projected for seg in instance.segments)
        seq.append(proj(endpoint))
        report = check_alignment(space, seq, instance.level)
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


def appendix_suite_tree(rank: int, trials: int, rng: random.Random, max_len: int = 12) -> SuiteReport:
    """Randomized appendix checks on a free-group Cayley tree (delta = 0)."""
    tree, _ = build_cayley_tree(rank)
    group = tree.group
    report = SuiteReport(f"appendix-tree-f{rank}")
    letters = group.alphabet.signed_letters()

    def rand_point():
        return group.normalize(random_reduced_word(rng, letters, rng.randrange(0, max_len)))

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
        report.record("projection-near-median",
                      check_projection_near_median(tree, x, y, z, 0, geo), (x, y, z))

        gamma = rand_geodesic(min_len=2)
        e1 = rng.randrange(0, 3)
        e2 = rng.randrange(0, 3)
        eta = _perturbed_parallel(tree, gamma, e1, e2, rng)
        if eta is not None:
            report.record("synchronized-projections",
                          check_synchronized_projections(tree, x, gamma, eta, 0), (x,))

        report.record("projection-diameter",
                      check_projection_diameter(tree, x, y, geo, 0), (x, y))

        cap = check_subsegment_capture(tree, x, y, geo, 0)
        if cap is not None:
            report.record("subsegment-capture", cap, (x, y))

        pair = _aligned_tree_pair(tree, rng)
        if pair is not None:
            g1, g2, level = pair
            try:
                behrstock_dichotomy(tree, x, g1, g2, level, 0)
                report.record("projection-dichotomy", True)
            except AssertionError:
                report.record("projection-dichotomy", False, (x,))
    return report


def _perturbed_parallel(tree, gamma: Geodesic, e1: int, e2: int, rng) -> Optional[Geodesic]:
    """A geodesic of the same length synchronized with gamma: hang branches
    of equal length off interior trunk points at both ends."""
    L = len(gamma)
    if e1 + e2 + 1 > L or (e1 == 0 and e2 == 0):
        return Geodesic(gamma.points)
    start_anchor = gamma.points[e1]
    end_anchor = gamma.points[L - e2]

    def branch(anchor, forbidden, steps):
        pts = [anchor]
        cur = anchor
        for _ in range(steps):
            options = [v for v in tree.neighbors(cur) if v not in forbidden and tree.distance(v, anchor) > tree.distance(cur, anchor)]
            if not options:
                return None
            cur = rng.choice(options)
            pts.append(cur)
        return pts

    b1 = branch(start_anchor, set(gamma.points), e1)
    b2 = branch(end_anchor, set(gamma.points), e2)
    if b1 is None or b2 is None:
        return None
    mid = list(gamma.points[e1 : L - e2 + 1])
    pts = list(reversed(b1))[:-1] + mid + b2[1:]
    eta = Geodesic(tuple(pts))
    if len(eta) != L:
        return None
    return eta


def _aligned_tree_pair(tree, rng, max_word: int = 10):
    """Two segments in order along a common geodesic; returns the least
    integer level making the pair aligned (strictly)."""
    group = tree.group
    word = random_reduced_word(rng, group.alphabet.signed_letters(), max_word + 14)
    line = tree.geodesic(tree.basepoint, group.normalize(word))
    L = len(line)
    a = rng.randrange(0, L - 8)
    b = a + rng.randrange(2, 5)
    c = b + rng.randrange(1, 3)
    d = min(c + rng.randrange(2, 5), L)
    if d <= c:
        return None
    g1 = line.subsegment(a, b)
    g2 = line.subsegment(c, d)
    rep = check_alignment(tree, [g1, g2], 1)
    level = Fraction(rep.worst() + 1)
    return g1, g2, level


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
