"""Projection and alignment geometry over any exact metric-space model.

Gromov products, nearest-point projections, fellow traveling, K-alignment
of geodesic sequences, the projection dichotomy for aligned pairs, and the
chain-alignment and subsegment-capture lemmas as executable checks.  All
quantities are exact integers or rationals; reruns are bit-identical.

:func:`check_alignment` loops :func:`pair_diameters` over adjacent items.
On trees a pair costs only the distances that decide it: the projection of
anything onto a one-point item is its only point, a one-point item has one
endpoint projection, and every other endpoint projection is the median of
three points (two distances).  Diameters are integers, so they are compared
with ``ceil(level)`` and no rational arithmetic runs per pair.  The census's
``SegmentTable`` goes one step further for the pair (segment, point) on a
tree: it reads the two integers (n - i, 0) per translated key, computing
them once per key from two distances to phi's identity-based segment,
decides on them, and calls :func:`assemble_report` only for a report it
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .spaces import Geodesic, MetricSpaceModel


@dataclass
class ProjectionSet:
    """The set of points of a geodesic realizing the distance from a query."""

    target: Geodesic
    distance: int
    indices: tuple  # positions along the target, ascending

    @property
    def points(self) -> tuple:
        return tuple(self.target.points[i] for i in self.indices)


def gromov_product(space: MetricSpaceModel, x, y, z) -> Fraction:
    """((x, y))_z = (d(x,z) + d(z,y) - d(x,y)) / 2; in trees, d(z, [x,y])."""
    return Fraction(space.distance(x, z) + space.distance(z, y) - space.distance(x, y), 2)


def tree_projection(space: MetricSpaceModel, x, geo: Geodesic) -> tuple:
    """(i, d(x, geo)) for a vertex x of a tree: x projects to the point at
    index i of the length-n geodesic, the median of x and its endpoints,
    where 2i = d(x, start) + n - d(x, end) is twice the Gromov product
    (x, end)_start.  Between tree vertices d(x, start) + d(x, end) - n is
    2 d(x, geo), so 2i is even and in [0, 2n]; any other value is an
    error."""
    pts = geo.points
    n = len(pts) - 1
    d_start = space.distance(x, pts[0])
    two_i = d_start + n - space.distance(x, pts[-1])
    if two_i % 2 or not 0 <= two_i <= 2 * n:
        raise ValueError(f"{x!r} projects to no vertex of the geodesic (2i = {two_i}, n = {n})")
    i = two_i // 2
    return i, d_start - i


def project(space: MetricSpaceModel, x, geo: Geodesic) -> ProjectionSet:
    """Exact nearest-point projection of x onto a finite geodesic.

    On trees the projection is one median, found from two distances
    (:func:`tree_projection`); elsewhere every point is scanned.
    """
    if space.is_tree and len(geo) > 0:
        i, distance = tree_projection(space, x, geo)
        return ProjectionSet(geo, distance, (i,))
    dists = [space.distance(x, p) for p in geo.points]
    best = min(dists)
    idx = tuple(i for i, d in enumerate(dists) if d == best)
    return ProjectionSet(geo, best, idx)


def set_diameter(space: MetricSpaceModel, points: Sequence) -> int:
    """Max pairwise distance; 0 for singletons."""
    pts = list(points)
    worst = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.distance(pts[i], pts[j])
            if d > worst:
                worst = d
    return worst


def hausdorff_distance(space: MetricSpaceModel, a: Sequence, b: Sequence) -> int:
    """Exhaustive Hausdorff distance between two finite point sets."""
    d1 = max(min(space.distance(p, q) for q in b) for p in a)
    d2 = max(min(space.distance(p, q) for q in a) for p in b)
    return max(d1, d2)


def tree_hausdorff_distance(space: MetricSpaceModel, gamma: Geodesic, eta: Geodesic) -> int:
    """``hausdorff_distance`` of the points of two geodesics of a tree, in
    O(n + m) distances: d(p, eta) is the second value of
    :func:`tree_projection`, so each one-sided term is the largest of those
    values over the other geodesic's points."""
    return max(
        max(tree_projection(space, p, eta)[1] for p in gamma.points),
        max(tree_projection(space, q, gamma)[1] for q in eta.points),
    )


def fellow_traveling(space: MetricSpaceModel, gamma: Geodesic, eta: Geodesic, eps, strict: bool = True) -> bool:
    """Endpoint distances and Hausdorff distance below eps.

    ``strict=False`` turns the comparisons into <=, which is the useful
    convention on trees where the relevant bounds degrade to zero.  Two
    geodesics of a tree take :func:`tree_hausdorff_distance`; other spaces
    the exhaustive scan.
    """
    if space.is_tree:
        hausdorff = tree_hausdorff_distance(space, gamma, eta)
    else:
        hausdorff = hausdorff_distance(space, gamma.points, eta.points)
    vals = (
        space.distance(gamma.start, eta.start),
        space.distance(gamma.end, eta.end),
        hausdorff,
    )
    if strict:
        return all(v < eps for v in vals)
    return all(v <= eps for v in vals)


SequenceItem = Union[Geodesic, object]


def as_geodesic(item) -> Geodesic:
    """Points become degenerate geodesics; geodesics pass through."""
    return item if isinstance(item, Geodesic) else Geodesic((item,))


@dataclass
class AlignmentReport:
    """Per-adjacent-pair projection diameters of a geodesic sequence.

    ``pair_diameters[i]`` holds (forward, backward): the diameter of the
    projection of item i+1 onto item i joined with item i's ending point,
    and of item i onto item i+1 joined with item i+1's beginning point.
    """

    level: Fraction
    pair_diameters: list
    aligned: bool

    def worst(self) -> int:
        return max((max(p) for p in self.pair_diameters), default=0)

    def first_violation(self) -> Optional[int]:
        for i, (f, b) in enumerate(self.pair_diameters):
            if f >= self.level or b >= self.level:
                return i
        return None

    def to_json(self) -> dict:
        return {
            "level": str(self.level),
            "pair_diameters": [[int(f), int(b)] for f, b in self.pair_diameters],
            "aligned": self.aligned,
        }


def _tree_endpoint_indices(space: MetricSpaceModel, src: Geodesic, target: Geodesic) -> tuple:
    """Indices on ``target`` of the projections of ``src``'s endpoints in a
    tree; their span is the projection of all of ``src``."""
    if len(target) == 0:
        return (0,)
    first = project(space, src.start, target).indices[0]
    if len(src) == 0:
        return (first,)
    return (first, project(space, src.end, target).indices[0])


def pair_diameters(space: MetricSpaceModel, g1: Geodesic, g2: Geodesic) -> tuple:
    """(forward, backward) projection diameters of one adjacent pair: of
    g2's projection onto g1 joined with g1's end, and of g1's projection
    onto g2 joined with g2's start."""
    if space.is_tree:
        # a geodesic's projection onto another is the interval spanned by
        # the projections of its endpoints
        fwd = len(g1) - min(_tree_endpoint_indices(space, g2, g1))
        bwd = max(_tree_endpoint_indices(space, g1, g2))
        return fwd, bwd
    fwd_pts = set()
    for p in g2.points:
        fwd_pts.update(project(space, p, g1).points)
    bwd_pts = set()
    for p in g1.points:
        bwd_pts.update(project(space, p, g2).points)
    return (
        set_diameter(space, list(fwd_pts) + [g1.end]),
        set_diameter(space, list(bwd_pts) + [g2.start]),
    )


def assemble_report(level: Fraction, bound: int, pairs: list) -> AlignmentReport:
    """The report on per-pair (forward, backward) diameters at ``level``,
    whose ceiling is ``bound``.  Diameters are integers, so d >= level
    exactly when d >= bound."""
    aligned = all(f < bound and b < bound for f, b in pairs)
    return AlignmentReport(level, pairs, aligned)


def check_alignment(space: MetricSpaceModel, sequence: Sequence[SequenceItem], level) -> AlignmentReport:
    """Is the sequence of geodesics/points K-aligned at the given level?

    For each adjacent pair the projection of either item onto the other must
    stay within the level of the facing endpoint (strict inequality).
    """
    items = [as_geodesic(it) for it in sequence]
    if not items:
        raise ValueError("empty alignment sequence")
    pairs = [pair_diameters(space, g1, g2) for g1, g2 in zip(items, items[1:])]
    level = Fraction(level)
    return assemble_report(level, math.ceil(level), pairs)


class AlignmentError(ValueError):
    """A hypothesis of an alignment lemma failed; carries the report."""

    def __init__(self, message: str, report: AlignmentReport):
        super().__init__(message)
        self.report = report


def _require_aligned(space: MetricSpaceModel, sequence: Sequence[SequenceItem], level, what: str) -> None:
    """A lemma's hypothesis: raise :class:`AlignmentError` unless the
    sequence is aligned at ``level``; ``what`` names it in the message."""
    pre = check_alignment(space, sequence, level)
    if not pre.aligned:
        raise AlignmentError(f"{what} is not aligned at the stated level", pre)


def behrstock_dichotomy(space: MetricSpaceModel, x, gamma1: Geodesic, gamma2: Geodesic, level, delta) -> str:
    """For a K-aligned pair, a point aligns with at least one side.

    Returns "first" if (x, gamma2) is (K + 60 delta)-aligned, "second" if
    (gamma1, x) is, or "both".  Raises if the pair is not K-aligned, or --
    loudly -- if neither branch holds, which would falsify the dichotomy on
    this exact model.
    """
    _require_aligned(space, [gamma1, gamma2], level, "input pair")
    bumped = Fraction(level) + 60 * Fraction(delta)
    first = check_alignment(space, [x, gamma2], bumped).aligned
    second = check_alignment(space, [gamma1, x], bumped).aligned
    if first and second:
        return "both"
    if first:
        return "first"
    if second:
        return "second"
    raise AssertionError(
        "projection dichotomy violated on an exact model; this indicates an implementation bug"
    )


def chain_alignment(space: MetricSpaceModel, sequence: Sequence[SequenceItem], level, delta) -> Optional[tuple]:
    """All pairs of a K-aligned chain are (K + 60 delta)-aligned.

    Requires the interior geodesics to be longer than 2K + 120 delta.
    Returns None if every pair passes, else the first violating (i, j);
    a violation falsifies the model setup and is reported loudly by callers.
    """
    items = [as_geodesic(it) for it in sequence]
    level = Fraction(level)
    delta = Fraction(delta)
    min_len = 2 * level + 120 * delta
    for g in items[1:-1]:
        if len(g) <= min_len:
            raise ValueError(f"interior geodesic of length {len(g)} not longer than {min_len}")
    _require_aligned(space, items, level, "sequence")
    bumped = level + 60 * delta
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if not check_alignment(space, [items[i], items[j]], bumped).aligned:
                return (i, j)
    return None


@dataclass
class CapturedSubsegment:
    """A subsegment of [x, y] matched to (a subsegment of) an input geodesic."""

    index: int
    eta: Geodesic  # subsegment of [x, y]
    gamma_sub: Geodesic  # subsegment of gamma_i fellow-traveled by eta


def aligned_subsegments(
    space: MetricSpaceModel,
    x,
    gammas: Sequence[Geodesic],
    y,
    level,
    delta,
) -> list[CapturedSubsegment]:
    """Disjoint subsegments of [x, y] fellow traveling each chain geodesic.

    Hypotheses: (x, gamma_1, ..., gamma_n, y) is K-aligned and each gamma_i
    is longer than 2K + 140 delta.  Certificates are returned for the caller
    to verify with the fellow-traveling oracle: eta_i runs 20 delta-close to
    a subsegment gamma_i' that (K + 60 delta)-fellow travels gamma_i.
    """
    level = Fraction(level)
    delta = Fraction(delta)
    for g in gammas:
        if len(g) <= 2 * level + 140 * delta:
            raise ValueError(f"chain geodesic of length {len(g)} too short for capture")
    _require_aligned(space, [x, *gammas, y], level, "sequence")

    path = space.geodesic(x, y)
    out = []
    cursor = 0
    for idx, gamma in enumerate(gammas):
        p_idx = project(space, x, gamma).indices[0]
        q_idx = project(space, y, gamma).indices[-1]
        if p_idx > q_idx:
            p_idx, q_idx = q_idx, p_idx
        gamma_sub = gamma.subsegment(p_idx, q_idx)
        # the portion of [x, y] nearest the two ends of gamma_sub
        i0 = min(project(space, gamma_sub.start, path).indices)
        i1 = max(project(space, gamma_sub.end, path).indices)
        if i1 < i0:
            i0, i1 = i1, i0
        i0 = max(i0, cursor)
        if i1 < i0:
            i1 = i0
        eta = path.subsegment(i0, i1)
        cursor = i1 + 1 if i1 + 1 <= len(path) else i1
        out.append(CapturedSubsegment(idx, eta, gamma_sub))
    return out
