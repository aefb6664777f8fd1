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

from .alignment import gromov_product, project, set_diameter
from .balls import BallCensus, BallIndex, BudgetExceeded, enumerate_ball, word_distance
from .groups import GeneratingSet, GroupElement, GroupModel
from .ledger import ConstantLedger
from .spaces import Geodesic, GroupAction, MetricSpaceModel, OrbitSegment


class NonLoxodromicError(ValueError):
    """The distinguished element does not translate along the space."""


def require_loxodromic(action: GroupAction, phi: GroupElement, n: int = 4) -> None:
    d1 = action.space.distance(action.space.basepoint, action.proj(phi**n))
    d2 = action.space.distance(action.space.basepoint, action.proj(phi ** (2 * n)))
    if d1 == 0 or d2 < 2 * d1:
        raise NonLoxodromicError(
            f"element does not act loxodromically through the basepoint (d_n={d1}, d_2n={d2})"
        )


def segment_projection(action: GroupAction, segment: OrbitSegment, g: GroupElement, snap: bool = False):
    """Projection of g's orbit point onto the segment's projected geodesic.

    With ``snap=True`` the projection is pushed to the nearest orbit points
    of the segment (within one axis step), ties toward the segment start.
    """
    pset = project(action.space, action.proj(g), segment.projected)
    if not snap:
        return pset.points
    space = action.space
    snapped = []
    for p in pset.points:
        best = min(
            range(len(segment.orbit_points)),
            key=lambda i: (space.distance(p, segment.orbit_points[i]), i),
        )
        snapped.append(segment.orbit_points[best])
    return tuple(snapped)


def _sample_ball(model, gens, radius: int, node_budget: Optional[int]):
    """The kept ball a measurement samples from; a truncated one is a budget overrun."""
    ball = enumerate_ball(model, gens, radius, keep_elements=True, node_budget=node_budget)
    if ball.truncated:
        raise BudgetExceeded(f"a sample ball of radius {radius} outgrew the node budget {node_budget}")
    return ball


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
    r_max: int = 64,
    seed: Optional[int] = None,
    node_budget: Optional[int] = None,
    ball: Optional[BallCensus] = None,
) -> ContractionProfile:
    """Half-radius ball projections around random elements of given norms.

    For each sampled g, the ball of radius floor(factor * d_S(g, gamma)) is
    read from one exact ball enumeration and the projection diameter of its
    g-translate onto the segment's geodesic recorded.  The profile bound is
    the max observed diameter.  ``ball`` is a kept ball to read from when it
    reaches the radius needed; otherwise one is enumerated.  Raises
    :class:`BudgetExceeded` if the ball or a distance search outgrows
    ``node_budget`` nodes.
    """
    require_loxodromic(action, phi)
    segment = OrbitSegment(action, model.identity(), phi, segment_length)
    profile = ContractionProfile(
        phi_word=model.alphabet.format(phi.word),
        segment_length=segment_length,
        factor=factor,
        seed=seed,
    )
    # the segment starts at the identity, so d_S(g, gamma) <= |g|_S <= top:
    # every projection ball is a prefix of this one
    top = max(sample_norms)
    needed = max(top, int(factor * top))
    if ball is None or ball.radius < needed:
        ball = _sample_ball(model, gens, needed, node_budget)
    for norm in sample_norms:
        sphere = ball.elements[norm]
        if not sphere:
            continue
        for _ in range(samples_per_norm):
            key = sphere[rng.randrange(len(sphere))]
            g = GroupElement(model, key)
            dist = _distance_to_segment(model, gens, g, segment, r_max, node_budget)
            if dist is None:
                profile.truncated = True
                continue
            radius = int(factor * dist)
            pts = set()
            for shell in ball.elements[: radius + 1]:
                for uk in shell:
                    u = GroupElement(model, uk)
                    pts.update(segment_projection(action, segment, g * u))
            diam = set_diameter(action.space, list(pts))
            profile.record(ContractionSample(key, dist, radius, diam))
    return profile


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
    enumerated and projected.  Returns the verdict at the requested level
    and the least level that would pass for the same point family.
    """
    observations = []  # (d(x, geo), projection diameter)
    worst = 0
    geo_pts = set(geo.points)
    for x in x_points:
        if x in geo_pts:
            continue
        dist = min(space.distance(x, p) for p in geo.points)
        pts = set()
        for y in space.ball(x, dist):
            pts.update(project(space, y, geo).points)
        diam = set_diameter(space, list(pts))
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
    r_max: int = 64,
    node_budget: Optional[int] = None,
    ball: Optional[BallIndex] = None,
) -> LipschitzReport:
    """Measure the two coarse-Lipschitz constants of segment projections.

    recovery: d_S(g, h) <= K1 d_S(g, gamma) + K1 diam(pi(g) u h x0) + K1
    over orbit points h of the segment; proj: diam(pi(g) u pi(h)) <=
    K0 d_S(g, h) + K0 over sample pairs.  d_S(g, h) = |g^-1 h|_S is read
    from ``ball`` when g^-1 h lies in it; every other distance is a search
    bounded by ``node_budget`` nodes (:class:`BudgetExceeded` beyond it).
    """
    space = action.space
    elements = [GroupElement(model, k) for k in sample_keys]

    def word_dist(g: GroupElement, h: GroupElement) -> Optional[int]:
        if ball is not None:
            d = ball.norm(model.mul_keys(model.inverse_key(g.key), h.key))
            if d is not None:
                return d if d <= r_max else None
        return word_distance(model, gens, g, h, r_max, node_budget)

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
    r_max: int = 64,
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
                    d = word_distance(model, gens, pi, h * pj, min(linkage_bound, r_max))
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
    axis = {}  # sign -> the points phi^(sign i) x0 for i in [1, 2 horizon]
    for sign, step in ((+1, phi), (-1, phi.inverse())):
        power, axis[sign] = step, []
        for _ in range(2 * horizon):
            axis[sign].append(action.proj(power))
            power = power * step

    def side_max(w: GroupElement, sign: int, hz: int) -> Fraction:
        pt = action.proj(w * g)
        return max(gromov_product(space, p, pt, x0) for p in axis[sign][:hz])

    best_s = min(candidates, key=lambda s: (side_max(s, +1, horizon), s.key))
    best_t = min(candidates, key=lambda t: (side_max(t, -1, horizon), t.key))
    return LinkageChoice(best_s, best_t, max(side_max(best_s, +1, 2 * horizon), side_max(best_t, -1, 2 * horizon)))


def measure_scaled_ledger(
    model: GroupModel,
    gens: GeneratingSet,
    action: GroupAction,
    phi: GroupElement,
    rng: random.Random,
    segment_length: Optional[int] = None,
    sample_radius: int = 5,
    coeff: Fraction = Fraction(1),
    power: int = 1,
    node_budget: Optional[int] = None,
    **overrides,
) -> ConstantLedger:
    """Build a scaled ledger from constants measured on the model itself.

    The linkage bound is measured from the worst linkage choice over a
    sample; the contraction bound from half-radius ball projections; the
    Lipschitz pair from projection statistics.  The dominating constant is
    their max (scale factor one); callers may override any entry.
    ``node_budget`` bounds every ball and distance search of the
    measurement, and the points of its orbit segment; one that outgrows it
    raises :class:`BudgetExceeded`.
    """
    meas_len = segment_length if segment_length is not None else 4
    if node_budget is not None and meas_len + 1 > node_budget:
        raise BudgetExceeded(f"an orbit segment of {meas_len + 1} points outgrows the node budget {node_budget}")
    require_loxodromic(action, phi)
    space = action.space
    x0 = space.basepoint
    c0 = max(space.distance(x0, action.proj(s)) for s in gens.elements)
    d_c = space.distance(x0, action.proj(phi))
    d_s = word_distance(model, gens, model.identity(), phi, math.inf, node_budget)  # |phi|_S; the search meets phi

    ball = _sample_ball(model, gens, sample_radius, node_budget)
    all_keys = [k for sphere in ball.elements for k in sphere]
    sample_keys = [all_keys[rng.randrange(len(all_keys))] for _ in range(24)]

    e0 = Fraction(0)
    for key in sample_keys[:12]:
        g = GroupElement(model, key)
        e0 = max(e0, select_linkage(model, gens, action, phi, g, horizon=3 * max(4, d_s)).achieved)

    profile = weak_contraction_profile(
        model, gens, action, phi, meas_len, sample_norms=[sample_radius - 1, sample_radius], rng=rng,
        samples_per_norm=6, node_budget=node_budget, ball=ball,
    )
    f0 = Fraction(profile.bound)

    seg = OrbitSegment(action, model.identity(), phi, meas_len)
    # Without a closed-form norm each d_S(g, h) is a search, which holds up
    # to about 2 |B(sample_radius)| nodes.  Every sample pair lies in
    # B(2 sample_radius), since |g^-1 h|_S <= |g|_S + |h|_S, and that ball has
    # at most |B(sample_radius)|^2 elements: it is indexed once when that is
    # no more than the searches it answers may hold.  An index the budget
    # cuts short is no error; a query outside it is searched.
    n = len(sample_keys)
    searched = not (gens.standard and model.exact_length(model.identity_key()) is not None)
    pairs = None
    if searched and len(all_keys) <= 2 * (n * len(seg.points) + n * (n - 1) // 2):
        pairs = BallIndex(model, gens, 2 * sample_radius, node_budget)
    lip = lipschitz_projection_bound(model, gens, action, seg, sample_keys, node_budget=node_budget, ball=pairs)

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
        coeff=coeff,
        power=power,
    )
    values.update(overrides)
    return ConstantLedger.scaled(**values)
