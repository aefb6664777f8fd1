"""Geodesic metric-space models with group actions.

Stand-ins for the hyperbolic spaces the counting theory runs over: Cayley
trees of free groups, the Bass-Serre tree of Z/2 * Z/3 (on which B_3 acts
through its central quotient), and finite BFS graphs for adversarial tests.
All distances are exact integers; there is no floating-point geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .groups import (
    Braid3,
    FreeGroup,
    FreeProductZ2Z3,
    GroupElement,
    GroupModel,
    X_SYL,
    _SYLL_KEY,
    _is_y,
)


@dataclass(frozen=True)
class Geodesic:
    """A length-parametrized geodesic: consecutive points at distance one.

    Degenerate geodesics (single points) are allowed and behave as points
    in alignment sequences.
    """

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("a geodesic needs at least one point")

    def __len__(self):
        return len(self.points) - 1

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def reverse(self) -> "Geodesic":
        return Geodesic(tuple(reversed(self.points)))

    def subsegment(self, i: int, j: int) -> "Geodesic":
        if not (0 <= i <= j <= len(self)):
            raise ValueError(f"bad subsegment [{i}, {j}] of length-{len(self)} geodesic")
        return Geodesic(self.points[i : j + 1])


class MetricSpaceModel:
    """Base: an exact integer metric with geodesics and bounded balls."""

    name: str
    delta: Fraction
    basepoint: object
    is_tree: bool = False  # unique geodesics; enables median shortcuts

    def distance(self, p, q) -> int:
        raise NotImplementedError

    def geodesic(self, p, q) -> Geodesic:
        raise NotImplementedError

    def neighbors(self, p) -> list:
        raise NotImplementedError

    def ball(self, p, r: int) -> list:
        """All points within distance r of p (finite for locally finite spaces)."""
        seen = {p}
        frontier = [p]
        out = [p]
        for _ in range(r):
            nxt = []
            for q in frontier:
                for v in self.neighbors(q):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
                        out.append(v)
            frontier = nxt
        return out


# ---------------------------------------------------------------------------
# Cayley trees of free groups


def _common_prefix(p, q) -> int:
    """The length of the longest common prefix of two keys."""
    n = 0
    for a, b in zip(p, q):
        if a != b:
            break
        n += 1
    return n


class CayleyTree(MetricSpaceModel):
    """The Cayley graph of a free group w.r.t. its standard basis (a tree).

    Points are the group's keys (reduced words, stored as bytes); the
    basepoint is the identity key.
    """

    is_tree = True

    def __init__(self, rank: int):
        self.rank = rank
        self.group = FreeGroup(rank)
        self.name = f"cayley-tree:{rank}"
        self.delta = Fraction(0)
        self.basepoint = self.group.identity_key()
        self._steps = tuple(self.group.letter_keys.values())  # one step along a, A, b, B, ...

    def distance(self, p, q) -> int:
        n = 0
        for a, b in zip(p, q):
            if a != b:
                break
            n += 1
        return (len(p) - n) + (len(q) - n)

    def geodesic(self, p, q) -> Geodesic:
        n = _common_prefix(p, q)
        pts = [p[:i] for i in range(len(p), n - 1, -1)]
        pts.extend(q[: i + 1] for i in range(n, len(q)))
        return Geodesic(tuple(pts))

    def neighbors(self, p) -> list:
        mul = self.group.mul_keys
        return [mul(p, step) for step in self._steps]


# ---------------------------------------------------------------------------
# The Bass-Serre tree of Z/2 * Z/3

# A vertex is (kind, name): kind 0 for cosets of <x>, kind 1 for cosets of
# <y>.  The name is the Z/2 * Z/3 key (syllable bytes) of the shortest coset
# representative: it never ends with an x-syllable for kind 0, nor with a
# y-syllable for kind 1.  Dropping the last syllable steps toward the root
# (0, b""); the two roots (0, b"") and (1, b"") are joined by the edge of
# the identity.  So the chain from (k, name) to the root holds the
# vertices (k ^ ((L - j) & 1), name[:j]) for j = L, ..., 0, with L the
# name's length, then (0, b"") when its empty-name vertex has kind 1.  Two
# chains whose empty-name vertices share a kind agree exactly on the common
# prefix of the names; otherwise they share only the root.

KIND_X, KIND_Y = 0, 1


def _up(v, stop: int) -> list:
    """The chain from v toward the root, through prefix length ``stop``."""
    kind, name = v
    n = len(name)
    return [(kind ^ ((n - j) & 1), name[:j]) for j in range(n, stop - 1, -1)]


class BassSerreTree(MetricSpaceModel):
    """The (2,3)-biregular tree on cosets of the factors of Z/2 * Z/3."""

    is_tree = True

    def __init__(self):
        self.group = FreeProductZ2Z3()
        self.name = "bass-serre:zz23"
        self.delta = Fraction(0)
        self.basepoint = (KIND_X, b"")

    @staticmethod
    def vertex(kind: int, sylls: Sequence[int]) -> tuple:
        sylls = bytes(sylls)
        if kind == KIND_X and sylls and sylls[-1] == X_SYL:
            sylls = sylls[:-1]
        elif kind == KIND_Y and sylls and _is_y(sylls[-1]):
            sylls = sylls[:-1]
        return (kind, sylls)

    def distance(self, p, q) -> int:
        lp, lq = len(p[1]), len(q[1])
        if (p[0] ^ lp) & 1 != (q[0] ^ lq) & 1:
            return lp + lq + 1
        return lp + lq - 2 * _common_prefix(p[1], q[1])

    def geodesic(self, p, q) -> Geodesic:
        if (p[0] ^ len(p[1])) & 1 != (q[0] ^ len(q[1])) & 1:
            return Geodesic(tuple(_up(p, 0) + _up(q, 0)[::-1]))
        c = _common_prefix(p[1], q[1])
        return Geodesic(tuple(_up(p, c) + _up(q, c + 1)[::-1]))

    def neighbors(self, v) -> list:
        kind, name = v
        grp = self.group
        if kind == KIND_X:
            down = self.vertex(KIND_Y, name)  # strip a trailing y if any
            return [down, (KIND_Y, grp.mul_keys(name, _SYLL_KEY[X_SYL]))]
        down = self.vertex(KIND_X, name)
        return [
            down,
            (KIND_X, grp.mul_keys(name, _SYLL_KEY[1])),
            (KIND_X, grp.mul_keys(name, _SYLL_KEY[2])),
        ]

    def act_syllables(self, sylls, v):
        kind, name = v
        return self.vertex(kind, self.group.mul_keys(bytes(sylls), name))


# ---------------------------------------------------------------------------
# Finite graphs from edge lists


class FiniteGraph(MetricSpaceModel):
    """A finite connected graph with exact BFS metric."""

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]], name: str = "graph"):
        self.name = name
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.adj = [tuple(sorted(s)) for s in self.adj]
        self.basepoint = 0
        self._dist = [self._bfs(u) for u in range(n)]
        comp = [u for u in range(n) if self._dist[0][u] is None]
        if comp:
            raise ValueError(f"graph disconnected: vertices {comp} unreachable from 0")
        self.delta = None  # unknown until measured

    def _bfs(self, src):
        dist = [None] * self.n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if dist[v] is None:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def vertices(self):
        return range(self.n)

    def distance(self, p, q) -> int:
        return self._dist[p][q]

    def neighbors(self, p):
        return self.adj[p]

    def geodesic(self, p, q) -> Geodesic:
        """The lexicographically least geodesic; symmetric under reversal."""
        if p > q:
            return self.geodesic(q, p).reverse()
        path = [p]
        cur = p
        while cur != q:
            cur = min(v for v in self.adj[cur] if self._dist[v][q] == self._dist[cur][q] - 1)
            path.append(cur)
        return Geodesic(tuple(path))

    def all_geodesics(self, p, q) -> list:
        """Every geodesic between p and q (use on small graphs only)."""
        out = []

        def grow(path):
            cur = path[-1]
            if cur == q:
                out.append(Geodesic(tuple(path)))
                return
            for v in self.adj[cur]:
                if self._dist[v][q] == self._dist[cur][q] - 1:
                    grow(path + [v])

        grow([p])
        return out


def load_edge_list(lines: Iterable[str], name: str = "graph") -> FiniteGraph:
    """Parse `u v` pairs, one per line, 0-indexed; blank lines ignored."""
    edges = []
    hi = -1
    for raw in lines:
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        hi = max(hi, u, v)
    return FiniteGraph(hi + 1, edges, name=name)


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle:{n}")


def grid_graph(w: int, h: int) -> FiniteGraph:
    edges = []
    for i in range(w):
        for j in range(h):
            u = i * h + j
            if i + 1 < w:
                edges.append((u, (i + 1) * h + j))
            if j + 1 < h:
                edges.append((u, u + 1))
    return FiniteGraph(w * h, edges, name=f"grid:{w}x{h}")


# ---------------------------------------------------------------------------
# Group actions and orbit segments


class GroupAction:
    """An isometric action of a group model on a space, with orbit map."""

    def __init__(self, group: GroupModel, space: MetricSpaceModel, act_fn):
        self.group = group
        self.space = space
        self._act = act_fn

    def act(self, g: GroupElement, p):
        return self._act(g, p)

    def proj(self, g: GroupElement):
        """The orbit map g -> g . basepoint."""
        return self._act(g, self.space.basepoint)


def build_cayley_tree(rank: int) -> tuple[CayleyTree, GroupAction]:
    """Cayley tree of the rank-k free group with its left-multiplication action."""
    if rank < 2:
        raise ValueError("rank must be >= 2")
    tree = CayleyTree(rank)
    grp = tree.group

    def act(g: GroupElement, p):
        return grp.mul_keys(g.key, p)

    return tree, GroupAction(grp, tree, act)


def build_bass_serre_tree() -> tuple[BassSerreTree, GroupAction, GroupAction]:
    """The (2,3)-biregular tree with its Z/2 * Z/3 action and the induced
    Braid3 action through the central quotient."""
    tree = BassSerreTree()
    quot = tree.group
    braid = Braid3()

    def act_q(g: GroupElement, p):
        return tree.act_syllables(g.key, p)

    def act_b(g: GroupElement, p):
        return tree.act_syllables(braid.quotient_key(g.key), p)

    return tree, GroupAction(quot, tree, act_q), GroupAction(braid, tree, act_b)


def axis_basepoint(tree: BassSerreTree, phi_sylls):
    """A vertex on the translation axis of a hyperbolic syllable word.

    Scans the vertices within distance 6 of the roots and returns the first
    (deterministic order) vertex v with d(v, phi^2 v) = 2 d(v, phi v) > 0.
    """
    phi_sylls = bytes(phi_sylls)
    phi2 = tree.group.mul_keys(phi_sylls, phi_sylls)
    candidates = sorted(tree.ball((KIND_X, b""), 6)) + sorted(tree.ball((KIND_Y, b""), 6))
    best = None
    for v in candidates:
        d1 = tree.distance(v, tree.act_syllables(phi_sylls, v))
        if d1 == 0:
            continue
        d2 = tree.distance(v, tree.act_syllables(phi2, v))
        if d2 == 2 * d1 and (best is None or d1 < best[0]):
            best = (d1, v)
    if best is None:
        raise ValueError("no axis vertex found; element may be elliptic")
    return best[1]


class OrbitSegment:
    """A translate g * (id, phi, ..., phi^n) with its projected geodesic."""

    def __init__(self, action: GroupAction, base: GroupElement, phi: GroupElement, length: int):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.action = action
        self.base = base
        self.phi = phi
        self.length = length
        pts = [base]
        cur = base
        for _ in range(length):
            cur = cur * phi
            pts.append(cur)
        self.points = tuple(pts)
        self.orbit_points = tuple(action.proj(g) for g in self.points)

    @functools.cached_property
    def projected(self) -> Geodesic:
        """The geodesic [g x0, g phi^n x0] the segment projects onto
        (computed once per segment)."""
        return self.action.space.geodesic(self.orbit_points[0], self.orbit_points[-1])

    def midpoint_element(self) -> GroupElement:
        return self.points[self.length // 2]


# ---------------------------------------------------------------------------
# Hyperbolicity measurement (thin triangles, exhaustive scan)


def measure_delta(graph: FiniteGraph, max_vertices: int = 2000) -> Fraction:
    """Least delta' such that all sampled triangles are 4 delta'-thin.

    Exhaustive over ordered triples with the canonical (lex-least) geodesic
    per pair; sides from a common corner are synchronized up to the Gromov
    product of the opposite points.  Quadratic memory, cubic time: intended
    for small graphs.
    """
    if graph.n > max_vertices:
        raise ValueError(f"graph too large for exhaustive scan ({graph.n} > {max_vertices})")
    worst = 0
    geos = {}

    def geo(p, q):
        if (p, q) not in geos:
            geos[(p, q)] = graph.geodesic(p, q)
        return geos[(p, q)]

    d = graph.distance
    for b in graph.vertices():
        for a in graph.vertices():
            for c in graph.vertices():
                t_max = Fraction(d(a, b) + d(b, c) - d(a, c), 2)  # (a, c)_b
                if t_max <= 0:
                    continue
                side_a = geo(b, a).points
                side_c = geo(b, c).points
                for t in range(1, int(t_max) + 1):
                    worst = max(worst, d(side_a[t], side_c[t]))
    return Fraction(worst, 4)
