"""Empirical contraction and discreteness profiling of group elements.

Measures, on exact models, the constants the concatenation machinery
consumes: ball-projection diameters (weak and strong contraction),
coarse-Lipschitz constants of segment projections, proper-discontinuity
censuses, and the linkage letters that force alignment of spliced
segments.  Results feed the scaled constant ledger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .alignment import project, set_diameter
from .balls import BallIndex, BudgetExceeded, enumerate_ball, word_distance
from .groups import GeneratingSet, GroupElement, GroupModel
from .ledger import ConstantLedger
from .spaces import Geodesic, GroupAction, MetricSpaceModel, OrbitSegment


_R_MAX = 64  # the word-distance search cap of the contraction, Lipschitz and WPD measurements


class NonLoxodromicError(ValueError):
    """The distinguished element does not translate along the space."""


def require_loxodromic(action: GroupAction, phi: GroupElement) -> None:
    d1 = action.space.distance(action.space.basepoint, action.proj(phi**4))
    d2 = action.space.distance(action.space.basepoint, action.proj(phi**8))
    if d1 == 0 or d2 < 2 * d1:
        raise NonLoxodromicError(
            f"element does not act loxodromically through the basepoint (d_n={d1}, d_2n={d2})"
        )


def segment_projection(action: GroupAction, segment: OrbitSegment, g: GroupElement):
    """Projection of g's orbit point onto the segment's projected geodesic."""
    return project(action.space, action.proj(g), segment.projected).points


@dataclass
class ContractionSample:
    g_key: object
    distance_to_segment: int  # d_S(g, gamma)
    ball_radius: int
    projection_diameter: int


@dataclass
class ContractionProfile:
    phi_word: str
    segment_length: int
    factor: Fraction  # ball radius as a fraction of d_S(g, gamma)
    samples: list = field(default_factory=list)
    bound: int = 0  # least constant passing all samples
    truncated: bool = False
    seed: Optional[int] = None

    def record(self, sample: ContractionSample) -> None:
        self.samples.append(sample)
        self.bound = max(self.bound, sample.projection_diameter)

    def to_json(self) -> dict:
        return {
            "phi": self.phi_word,
            "segment_length": self.segment_length,
            "factor": str(self.factor),
            "bound": self.bound,
            "sample_count": len(self.samples),
            "truncated": self.truncated,
            "seed": self.seed,
        }


def _distance_to_segment(model, gens, g: GroupElement, segment: OrbitSegment, r_max: int,
                         node_budget: Optional[int] = None) -> Optional[int]:
    best = None
    for h in segment.points:
        cap = r_max if best is None else best
        d = word_distance(model, gens, g, h, cap, node_budget)
        if d is not None and (best is None or d < best):
            best = d
            if best == 0:
                break
    return best


def weak_contraction_profile(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    segment_length: int,
    sample_norms: Sequence[int],
    rng: random.Random,
    samples_per_norm: int = 8,
    factor: Fraction = Fraction(1, 2),
    r_max: int = _R_MAX,
    seed: Optional[int] = None,
    ball: Optional[BallIndex] = None,
) -> ContractionProfile:
    """Half-radius ball projections around random elements of given norms.

    For each sampled g, the ball of radius floor(factor * d_S(g, gamma)) is
    read from one shortlex ball index and the projection diameter of its
    g-translate onto the segment's geodesic recorded: the span of the
    projected indices, since points of one geodesic are |i - j| apart.  The
    profile bound is the max observed diameter.  ``ball`` is an index grown
    as needed (a new one when None).  Raises :class:`BudgetExceeded` if it
    or a distance search outgrows its node budget.
    """
    require_loxodromic(action, phi)
    segment = OrbitSegment(action, model.identity(), phi, segment_length)
    geo = segment.projected
    profile = ContractionProfile(
        phi_word=model.alphabet.format(phi.word),
        segment_length=segment_length,
        factor=factor,
        seed=seed,
    )
    # the segment starts at the identity, so d_S(g, gamma) <= |g|_S <= top:
    # every projection ball is a prefix of this one
    top = max(sample_norms)
    ball = ball or BallIndex(model, gens, 0)
    needed = max(top, int(factor * top))
    if not ball.grow(needed):
        raise BudgetExceeded(f"a sample ball of radius {needed} outgrew the node budget {ball.node_budget}")
    for norm in sample_norms:
        sphere = ball.spheres[norm]
        if not sphere:
            continue
        for _ in range(samples_per_norm):
            key = sphere[rng.randrange(len(sphere))]
            g = GroupElement(model, key)
            dist = _distance_to_segment(model, gens, g, segment, r_max, ball.node_budget)
            if dist is None:
                profile.truncated = True
                continue
            radius = int(factor * dist)
            ys = (action.proj(g * GroupElement(model, uk)) for shell in ball.spheres[: radius + 1] for uk in shell)
            profile.record(ContractionSample(key, dist, radius, _projection_span(action.space, ys, geo)))
    return profile


def _projection_span(space: MetricSpaceModel, points, geo: Geodesic) -> int:
    """The diameter of the projection of ``points`` to ``geo``, whose points
    are |i - j| apart: the span of the projections' indices."""
    lo, hi = len(geo), 0
    for y in points:
        idx = project(space, y, geo).indices
        lo, hi = min(lo, idx[0]), max(hi, idx[-1])
    return hi - lo


@dataclass
class StrongContractionResult:
    passes: bool
    level: Fraction  # the level K that was tested
    least_passing: Optional[int]  # least K for which all tested x pass
    worst: int  # max observed projection diameter
    tested: int


def strong_contraction_check(
    space: MetricSpaceModel,
    geo: Geodesic,
    level: int,
    x_points: Sequence,
) -> StrongContractionResult:
    """Full-radius ball projections for every supplied off-geodesic point.

    For each x with d(x, geo) > K the ball of radius d(x, geo) around x is
    enumerated and projected; ``geo`` is a geodesic of ``space``, so its
    points are |i - j| apart and a projection's diameter is the span of
    its indices.  Returns the verdict at the requested level and the least
    level that would pass for the same point family.
    """
    observations = []  # (d(x, geo), projection diameter)
    worst = 0
    geo_pts = set(geo.points)
    for x in x_points:
        if x in geo_pts:
            continue
        dist = min(space.distance(x, p) for p in geo.points)
        diam = _projection_span(space, space.ball(x, dist), geo)
        observations.append((dist, diam))
        worst = max(worst, diam)
    passes = all(diam <= level for dist, diam in observations if dist > level)
    least = None
    for k in sorted({0, worst} | {d for d, _ in observations} | {diam for _, diam in observations}):
        if all(diam <= k for dist, diam in observations if dist > k):
            least = k
            break
    return StrongContractionResult(passes, Fraction(level), least, worst, len(observations))


@dataclass
class LipschitzReport:
    recovery_constant: Fraction  # least K1 passing all samples (Lipschitz recovery)
    proj_constant: Fraction  # least K0 with diam <= K0 d + K0 on samples
    samples: int


def lipschitz_projection_bound(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    segment: OrbitSegment,
    sample_keys: Sequence,
    node_budget: Optional[int] = None,
    ball: Optional[BallIndex] = None,
) -> LipschitzReport:
    """Measure the two coarse-Lipschitz constants of segment projections.

    recovery: d_S(g, h) <= K1 d_S(g, gamma) + K1 diam(pi(g) u h x0) + K1
    over orbit points h of the segment; proj: diam(pi(g) u pi(h)) <=
    K0 d_S(g, h) + K0 over sample pairs.  d_S(g, h) = |g^-1 h|_S is read
    from ``ball`` when g^-1 h lies in it, by a search that stops at the
    ball when it is complete (:meth:`BallIndex.norm_beyond`), and by a
    bidirectional search otherwise; each search is bounded by
    ``node_budget`` nodes (:class:`BudgetExceeded` beyond it).
    """
    space = action.space
    elements = [GroupElement(model, k) for k in sample_keys]

    def word_dist(g: GroupElement, h: GroupElement) -> Optional[int]:
        if ball is not None:
            key = model.mul_keys(model.inverse_key(g.key), h.key)
            d = ball.norm(key)
            if d is not None:
                return d if d <= _R_MAX else None
            if not ball.truncated:
                return ball.norm_beyond(key, _R_MAX, node_budget)
        return word_distance(model, gens, g, h, _R_MAX, node_budget)

    k1 = Fraction(0)
    for g in elements:
        # d_S(g, gamma) is the least d_S(g, h) over the segment's points h
        d_gh = [word_dist(g, h) for h in segment.points]
        d_seg = min((d for d in d_gh if d is not None), default=None)
        if d_seg is None:
            continue
        pg = segment_projection(action, segment, g)
        for d, orbit_point in zip(d_gh, segment.orbit_points):
            if d is not None:
                diam = set_diameter(space, list(pg) + [orbit_point])
                k1 = max(k1, Fraction(d, d_seg + diam + 1))
    k0 = Fraction(0)
    for i, g in enumerate(elements):
        pg = segment_projection(action, segment, g)
        for h in elements[i + 1 :]:
            d_gh = word_dist(g, h)
            if d_gh is None:
                continue
            ph = segment_projection(action, segment, h)
            diam = set_diameter(space, list(pg) + list(ph))
            k0 = max(k0, Fraction(diam, d_gh + 1))
    return LipschitzReport(k1, k0, len(elements))


@dataclass
class WpdCensus:
    phi_word: str
    power: int
    closeness: int  # L
    search_radius: int
    count: int
    witnesses: list
    stabilized: bool  # two successive radius increments added nothing
    fact_exceptions: list  # witnesses violating the orbit-closeness conclusion

    def to_json(self) -> dict:
        return {
            "phi": self.phi_word,
            "power": self.power,
            "closeness": self.closeness,
            "search_radius": self.search_radius,
            "count": self.count,
            "stabilized": self.stabilized,
            "exception_count": len(self.fact_exceptions),
        }


def wpd_census(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    power: int,
    closeness: int,
    search_radius: int,
    linkage_bound: Optional[int] = None,
) -> WpdCensus:
    """Count h in B_S(search_radius) coarsely stabilizing a long axis segment.

    Witnesses satisfy d(x0, h x0) < L and d(phi^n x0, h phi^n x0) < L.  Each
    witness is additionally tested against the expected conclusion that it
    sits near the phi-orbit: d_S(phi^i, h phi^j) < E0 for some i, j in
    [0, n]; failures are returned in ``fact_exceptions``.
    """
    space = action.space
    x0 = space.basepoint
    tip = action.proj(phi**power)
    census = enumerate_ball(model, gens, search_radius, keep_elements=True)
    witnesses = []
    last_two = [0, 0]
    for r, sphere in enumerate(census.elements):
        added = 0
        for key in sphere:
            h = GroupElement(model, key)
            if space.distance(x0, action.proj(h)) < closeness and space.distance(
                tip, action.proj(h * phi**power)
            ) < closeness:
                witnesses.append(h)
                added += 1
        last_two = [last_two[1], added]
    stabilized = search_radius >= 2 and last_two == [0, 0]

    exceptions = []
    if linkage_bound is not None:
        powers = [phi**i for i in range(power + 1)]
        for h in witnesses:
            near = False
            for i, pi in enumerate(powers):
                for j, pj in enumerate(powers):
                    d = word_distance(model, gens, pi, h * pj, min(linkage_bound, _R_MAX))
                    if d is not None and d < linkage_bound:
                        near = True
                        break
                if near:
                    break
            if not near:
                exceptions.append(h)
    return WpdCensus(
        model.alphabet.format(phi.word),
        power,
        closeness,
        search_radius,
        len(witnesses),
        witnesses,
        stabilized,
        exceptions,
    )


@dataclass
class LinkageChoice:
    s: GroupElement
    t: GroupElement
    achieved: Fraction  # max Gromov product over the scanned horizon


def _twice_max_product(space: MetricSpaceModel, x0, axis: Sequence, pt) -> int:
    """Twice the largest Gromov product (p, pt)_x0 over the points p of
    ``axis``, given as (p, d(p, x0)) pairs: the largest integer
    d(p, x0) + d(x0, pt) - d(p, pt)."""
    d_pt = space.distance(x0, pt)
    return max(d_p + d_pt - space.distance(p, pt) for p, d_p in axis)


def select_linkage(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    g: GroupElement,
    horizon: Optional[int] = None,
) -> LinkageChoice:
    """Letters s, t making the phi-axis diverge from s g (and t g backwards).

    Minimizes, over (s, t) in (S u {id})^2, the larger of the two Gromov
    products (phi^i x0, s g x0)_x0 for i in [1, horizon] and
    (phi^-j x0, t g x0)_x0 for j in [1, horizon].  On trees the products
    are eventually constant in i; the default horizon is 3 max(4, |phi|_S).
    ``achieved`` is read over [1, 2 horizon], a superset, so it is the
    larger value when the horizon is not yet in the stable range.
    """
    require_loxodromic(action, phi)
    space = action.space
    x0 = space.basepoint
    if horizon is None:
        horizon = 3 * max(4, word_distance(model, gens, model.identity(), phi, math.inf))
    candidates = [model.identity()] + list(gens.elements)
    axis = {}  # sign -> (p, d(p, x0)) for the points p = phi^(sign i) x0, i in [1, 2 horizon]
    for sign, step in ((+1, phi), (-1, phi.inverse())):
        power, axis[sign] = step, []
        for _ in range(2 * horizon):
            p = action.proj(power)
            axis[sign].append((p, space.distance(p, x0)))
            power = power * step

    def side_max(w: GroupElement, sign: int, hz: int) -> int:
        return _twice_max_product(space, x0, axis[sign][:hz], action.proj(w * g))

    best_s = min(candidates, key=lambda s: (side_max(s, +1, horizon), s.key))
    best_t = min(candidates, key=lambda t: (side_max(t, -1, horizon), t.key))
    achieved = max(side_max(best_s, +1, 2 * horizon), side_max(best_t, -1, 2 * horizon))
    return LinkageChoice(best_s, best_t, Fraction(achieved, 2))


def measure_scaled_ledger(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    rng: random.Random,
    segment_length: Optional[int] = None,
    sample_radius: int = 5,
    node_budget: Optional[int] = None,
    ball: Optional[BallIndex] = None,
    **overrides,
) -> ConstantLedger:
    """Build a scaled ledger from constants measured on the model itself.

    The linkage bound is measured from the worst linkage choice over a
    sample; the contraction bound from half-radius ball projections; the
    Lipschitz pair from projection statistics.  The dominating constant is
    their max (scale factor one); callers may override any entry.  The
    samples and the weak contraction profile read ``ball``, an index grown
    as needed (when None, a new one under ``node_budget``), whose budget
    bounds every ball and distance search of the measurement and the
    points of its orbit segment; one that outgrows it raises
    :class:`BudgetExceeded`.
    """
    ball = ball or BallIndex(model, gens, 0, node_budget)
    meas_len = segment_length if segment_length is not None else 4
    if ball.node_budget is not None and meas_len + 1 > ball.node_budget:
        raise BudgetExceeded(f"an orbit segment of {meas_len + 1} points outgrows the node budget {ball.node_budget}")
    require_loxodromic(action, phi)
    space = action.space
    x0 = space.basepoint
    c0 = max(space.distance(x0, action.proj(s)) for s in gens.elements)
    d_c = space.distance(x0, action.proj(phi))
    d_s = word_distance(model, gens, model.identity(), phi, math.inf, ball.node_budget)  # |phi|_S; the search meets phi

    if not ball.grow(sample_radius):
        raise BudgetExceeded(f"a sample ball of radius {sample_radius} outgrew the node budget {ball.node_budget}")
    all_keys = [k for sphere in ball.spheres[: sample_radius + 1] for k in sphere]
    sample_keys = [all_keys[rng.randrange(len(all_keys))] for _ in range(24)]

    e0 = Fraction(0)
    for key in sample_keys[:12]:
        g = GroupElement(model, key)
        e0 = max(e0, select_linkage(model, gens, action, phi, g, horizon=3 * max(4, d_s)).achieved)

    profile = weak_contraction_profile(
        model, gens, action, phi, meas_len, sample_norms=[sample_radius - 1, sample_radius], rng=rng,
        samples_per_norm=6, ball=ball,
    )
    f0 = Fraction(profile.bound)

    seg = OrbitSegment(action, model.identity(), phi, meas_len)
    # Without a closed-form norm each d_S(g, h) is a search, which holds up
    # to about 2 |B(sample_radius)| nodes.  Every sample pair lies in
    # B(2 sample_radius), since |g^-1 h|_S <= |g|_S + |h|_S, and that ball has
    # at most |B(sample_radius)|^2 elements: the index grows to it when that
    # is no more than the searches it answers may hold.  A recovery distance
    # d_S(g, h) to an orbit point h may fall outside it; on a complete index
    # its search stops at the index.  An index the budget cuts short is no
    # error; a query outside it is a bidirectional search.
    n = len(sample_keys)
    searched = gens.exact_length(model.identity_key()) is None
    pairs = ball if searched and len(all_keys) <= 2 * (n * len(seg.points) + n * (n - 1) // 2) else None
    if pairs is not None:
        pairs.grow(2 * sample_radius)
    lip = lipschitz_projection_bound(model, gens, action, seg, sample_keys, node_budget=ball.node_budget, ball=pairs)

    values = dict(
        delta=space.delta if space.delta is not None else Fraction(0),
        gen_displacement=Fraction(c0),
        axis_step=Fraction(d_c),
        axis_word_norm=Fraction(d_s),
        linkage_bound=e0,
        contraction_bound=f0,
        proj_lipschitz=lip.proj_constant,
        recovery_lipschitz=lip.recovery_constant,
        segment_length=segment_length,
    )
    values.update(overrides)
    return ConstantLedger.scaled(**values)
