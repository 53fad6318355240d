"""Planar polyline geometry: arc-length parametrization, nearest-point
queries, shared-segment detection between polylines, parallel offsetting
with miter/bevel joins, and path averaging.

A shared-segment sweep asks, for every sweep point, for the nearest point
of the other polyline within d_hat.  Two kernels answer that query with
the same box test and the same arithmetic, so with the same bits.  Both
project a query only onto the segments whose boxes, padded by the
radius, contain it, and both work in blocks, so memory is bounded by one
block and the projections, distances and reductions follow the number
of nearby pairs.

- `Polyline.nearest_many`, for one polyline, works in blocks of
  consecutive queries: a block keeps only the segments whose padded
  boxes meet the block's own box, and holds at most _BLOCK_CELLS (query,
  segment) cells, or one query against the segments near it when that
  alone is more.  With no radius the pad is infinite, so every segment
  is near.
- `nearest_pass`, for many (queries, polyline) pairs at once, as the
  merge loop asks them in one round, packs whole pairs into blocks.  A
  block builds one segment table for its distinct polylines and tests
  by box at three levels: runs of _CHUNK consecutive queries against
  groups of _CHUNK consecutive segments of one polyline (a group's box
  is the union of its segments' padded boxes), then each run against
  each segment of the groups it meets, then each query of a run that
  passes against the segment's padded box, the test of nearest_many.
  A run that misses a group's box misses all its segments' boxes, so
  the projections made are the ones a test of every (query, segment)
  cell would make; one block of a few numpy passes serves a hundred
  small pairs.

Since a query is projected only onto segments whose padded boxes hold
it, a sweep point within d_hat of a polyline lies in that polyline's
bbox padded by d_hat + _BOX_SLACK.  `box_spans` bounds, from those boxes
alone, the longest run a sweep could share with a polyline, so the merge
loop skips the pairs whose bound is below its minimum run length.

The renderer's whole-map passes live here too: `offset_many`
offsets many polylines by many deltas at once, a `PolylineStack` takes
the frames of many polylines at once, and `cut_many` their sub-polylines.
`Polyline.many` builds many polylines at once, with one pass that drops
near-duplicate points from all of them; the graph reader, the raw
network and the renderer build their polylines with it.  Each equals
the per-polyline method it batches bit for bit (see their docstrings).

Polyline's primitives call ufuncs and array methods, not np.clip,
np.linspace, np.linalg.norm, np.diff or np.all, whose Python wrappers
cost more than the merge loop's small arrays; each does the wrapper's
arithmetic, so gives its bits (tests/oracles.py keeps the wrapper code).

Coordinates are projected meters throughout.  Polyline parameters t are
arc-length fractions in [0, 1].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment

_EPS = 1e-9
# Extra padding, in metres, of the boxes in Polyline.nearest_many: far
# above the rounding of any coordinate below 10^7 m, so a query whose
# computed distance is within the radius always lies in the padded box.
_BOX_SLACK = 1e-6
# Most (query, segment) cells in one box test of the nearest-segment
# kernels.  The projections take about 200 bytes per near pair, so a block
# holds at most about 55 MB however many queries and segments a call has.
_BLOCK_CELLS = 1 << 18
# Consecutive queries that nearest_pass tests together by box before it
# tests each of them: 16 sweep points at the merge loop's 5 m steps span
# 75 m.
_CHUNK = 16
# About the most points in one block of the renderer's passes,
# offset_many and cut_many: their arrays then stay within a few MB for
# any map.
_PASS_ROWS = 1 << 14


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the 2-vectors along the last axis of a and b, the
    leading axes broadcast.  Each comes from the kernel that computes one
    product `u @ v`, so it equals that product bit for bit; a plain
    u_x * v_x + u_y * v_y can differ in the last bit where that kernel
    fuses a multiply-add."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# ── polyline ────────────────────────────────────────────────────────

class Polyline:
    """Immutable planar polyline backed by an (N, 2) float array.

    Consecutive duplicate points are dropped on construction; fewer than
    two distinct points raise DegenerateSegment.
    """

    __slots__ = ("pts", "_cum")

    def __init__(self, points) -> None:
        # a copy: the caller's array stays its own, and writable
        self._take(np.array(points, dtype=float))

    @classmethod
    def _owning(cls, pts: np.ndarray) -> "Polyline":
        """Polyline(pts) for a float array that no one writes to again:
        the polyline keeps it, or the rows it keeps of it, without a
        copy, and makes it read-only."""
        p = cls.__new__(cls)
        p._take(pts)
        return p

    def _take(self, pts: np.ndarray) -> None:
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegenerateSegment(f"expected (N, 2) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise DegenerateSegment("non-finite coordinate in polyline")
        self.pts, _, seg = _drop_near_duplicates(pts, [len(pts)])
        self.pts.setflags(write=False)
        self._cum = np.concatenate(([0.0], seg.cumsum()))

    @classmethod
    def many(cls, runs: list) -> list["Polyline"]:
        """[Polyline(run) for run in runs], each the same bits in pts and
        _cum, from one _drop_near_duplicates pass over each block of runs
        of about _PASS_ROWS points in all (or of one run alone), end to
        end; raises the DegenerateSegment of a run that raises one.  Each
        polyline owns its points, as one built alone does."""
        out: list[Polyline] = []
        for block in _blocks([len(run) for run in runs], _PASS_ROWS):
            out += cls._many_block(runs[block])
        return out

    @classmethod
    def _many_block(cls, runs: list) -> list["Polyline"]:
        arrays = [np.asarray(run, dtype=float) for run in runs]
        for a in arrays:
            if a.ndim != 2 or a.shape[1] != 2:
                raise DegenerateSegment(f"expected (N, 2) points, got shape {a.shape}")
        pts, _, n = _runs(arrays)
        if not np.isfinite(pts).all():
            raise DegenerateSegment("non-finite coordinate in polyline")
        if n.min() < 2:  # a run too short to drop points from
            raise DegenerateSegment("polyline collapsed below two distinct points")
        pts, n, seg = _drop_near_duplicates(pts, n)
        out = []
        # seg also holds the segment between each run and the next
        for a, m in zip((np.cumsum(n) - n).tolist(), n.tolist()):
            p = cls.__new__(cls)
            p.pts = pts[a:a + m].copy()  # no polyline keeps the block alive
            p.pts.setflags(write=False)
            p._cum = np.empty(m)
            p._cum[0] = 0.0
            np.cumsum(seg[a:a + m - 1], out=p._cum[1:])
            out.append(p)
        return out

    # basic measures -------------------------------------------------

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    @property
    def start(self) -> np.ndarray:
        return self.pts[0]

    @property
    def end(self) -> np.ndarray:
        return self.pts[-1]

    def bbox(self) -> tuple[float, float, float, float]:
        return (*np.minimum.reduce(self.pts).tolist(),
                *np.maximum.reduce(self.pts).tolist())

    def reversed(self) -> "Polyline":
        return Polyline._owning(self.pts[::-1])  # a view of read-only points

    # arc-length parametrization --------------------------------------

    def param_points(self, ts) -> np.ndarray:
        """Points at arc-length fractions ts (vectorized).  The clamps are
        np.clip's, bit for bit (-0.0 and nan included), without its
        wrapper."""
        cum = self._cum
        s = np.minimum(1.0, np.maximum(0.0, np.asarray(ts, dtype=float))) * cum[-1]
        idx = np.minimum(len(cum) - 2, np.maximum(0, cum.searchsorted(s, "right") - 1))
        nxt = idx + 1
        c0 = cum[idx]
        seg_len = cum[nxt] - c0
        local = np.where(seg_len > _EPS, (s - c0) / np.maximum(seg_len, _EPS), 0.0)
        p0 = self.pts[idx]
        return p0 + local[:, None] * (self.pts[nxt] - p0)

    def param_point(self, t: float) -> np.ndarray:
        return self.param_points([t])[0]

    def frame_at(self, t: float, arriving: bool = False,
                 ) -> tuple[float, float, float, float]:
        """(x, y, tx, ty): param_point(t) and the unit tangent of the
        segment containing parameter t, as plain floats, without the
        array overhead of param_point.  At a vertex
        these are of the segment that starts there or, when arriving, of
        the segment that ends there, whose point is the vertex up to
        rounding."""
        x, y, idx = self._point_at(t, arriving)
        d = self.pts[idx + 1] - self.pts[idx]
        tx, ty = (d / max(np.linalg.norm(d), _EPS)).tolist()
        return x, y, tx, ty

    def _point_at(self, t: float, arriving: bool = False,
                  ) -> tuple[float, float, int]:
        """param_point(t) as plain floats, bit for bit, and the index of
        the segment it lies on; when arriving, of the segment that ends
        at a vertex t lies on (see frame_at)."""
        s = min(max(t, 0.0), 1.0) * self.length
        side = "left" if arriving else "right"
        idx = min(max(int(np.searchsorted(self._cum, s, side=side)) - 1, 0),
                  len(self.pts) - 2)
        c0, c1 = self._cum[idx:idx + 2].tolist()
        (x0, y0), (x1, y1) = self.pts[idx:idx + 2].tolist()
        local = (s - c0) / (c1 - c0) if c1 - c0 > _EPS else 0.0
        return x0 + local * (x1 - x0), y0 + local * (y1 - y0), idx

    # nearest point ----------------------------------------------------

    def nearest_point_param(self, q) -> tuple[float, float]:
        """Arc-length parameter and distance of the point on this polyline
        nearest to q."""
        ts, dists = self.nearest_many(np.asarray(q, dtype=float)[None, :])
        return float(ts[0]), float(dists[0])

    def nearest_many(self, qs: np.ndarray, radius: float | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Parameters and distances of the points on this polyline nearest
        to each of qs; ties go to the lowest segment index.

        Only the (query, segment) pairs whose query lies in the segment's
        box padded by radius are projected, so past the box tests the work
        grows with the number of nearby pairs, not with len(qs) * segments.
        Every segment within radius of a query passes that test, so a
        query within radius gets the parameter and distance of the
        unbounded call (radius None, whose pad is infinite); a query
        farther than radius gets parameter nan and distance inf.

        The box tests and projections run block by block, over runs of
        consecutive queries of at most _BLOCK_CELLS cells (see the module
        docstring), so memory stays bounded for any number of queries and
        segments; a query's result does not depend on its block.
        """
        return _nearest(qs, _segment_table([self]), radius)

    def nearest_in_order(self, qs: np.ndarray, radius: float):
        """Yield (t, d) for each query in order: the parameter, on this
        polyline, and the distance of the nearest point of sub(t', 1.0),
        t' being the previous query's t (0.0 for the first), so the
        parameters never decrease.  Once t' reaches 1 - 1e-12 the rest is
        the end point (t = 1.0).

        Each pair is bit-equal to `rest = self.sub(t', 1.0)`,
        `t_loc, d = rest.nearest_point_param(q)`, `t = t' + t_loc *
        (1.0 - t')`, and raises the DegenerateSegment that sub raises;
        but no rest polyline is built.  Its inner segments are this
        polyline's own, projected for all queries in one kernel call with
        radius, and only its first and last segments, which sub cuts or
        rebuilds, are projected per query.  A query with nothing within
        radius takes the sub path, so the pairs do not depend on radius;
        radius only bounds the kernel's work.
        """
        qs = np.asarray(qs, dtype=float)
        n, cum, xs = len(self.pts), self._cum.tolist(), self.pts.tolist()
        seg_len = _segment_lengths(self.pts)
        tail = self._point_at(1.0)[:2]
        # sub(t', 1.0) is [head, xs[i0:n-1], tail] less each point within
        # _EPS of the point before it.  When no segment is that short, the
        # last cumulative length exceeds the one before and the tail is
        # kept after xs[n-2], only the point after the head can go; other
        # polylines take the sub path.
        fast = (bool((seg_len > _EPS).all()) and cum[-2] < cum[-1]
                and _dist(xs[n - 2], tail) > _EPS)
        if fast:
            qi, si, tl, d2 = _near_pairs(qs, _segment_table([self]), radius)

        def past(prev: float, q: list[float], j: int) -> tuple[float, float]:
            if 1.0 <= prev + _EPS:
                raise DegenerateSegment(f"empty parameter range [{prev}, {1.0}]")
            i0 = bisect.bisect_right(cum, prev * self.length)
            head = self._point_at(prev)[:2]
            if i0 == n - 1 and _dist(head, tail) <= _EPS:
                return math.inf, math.inf  # sub raises: take its path
            j0 = i0 + 1 if i0 < n - 1 and _dist(head, xs[i0]) <= _EPS else i0
            # the rest's segments: head to the next point kept, this
            # polyline's segments j0 .. n-3, and xs[n-2] to the tail
            first_end = xs[j0] if j0 < n - 1 else tail
            best2, best_t = _project_one(q, head, first_end)
            best_pos = 0
            lo = bisect.bisect_left(qi, j)
            hi = bisect.bisect_left(qi, j + 1, lo)
            for k in range(bisect.bisect_left(si, j0, lo, hi), hi):
                if si[k] >= n - 2:
                    break
                if d2[k] < best2:
                    best2, best_t, best_pos = d2[k], tl[k], 1 + si[k] - j0
            lengths = [_dist(head, first_end)]
            if j0 < n - 1:
                last2, last_t = _project_one(q, xs[n - 2], tail)
                if last2 < best2:
                    best2, best_t, best_pos = last2, last_t, n - 1 - j0
                lengths = np.concatenate((lengths, seg_len[j0:n - 2],
                                          [_dist(xs[n - 2], tail)]))
            rest_cum = np.cumsum(lengths).tolist()
            c0 = rest_cum[best_pos - 1] if best_pos else 0.0
            c1 = rest_cum[best_pos]
            t_loc = (c0 + best_t * (c1 - c0)) / max(rest_cum[-1], _EPS)
            return prev + t_loc * (1.0 - prev), math.sqrt(best2)

        prev = 0.0
        for j, q in enumerate(qs.tolist()):
            if prev >= 1.0 - 1e-12:
                t, d = 1.0, float(np.linalg.norm(self.end - qs[j]))
            else:
                t, d = past(prev, q, j) if fast else (math.inf, math.inf)
                if d > radius:
                    t_loc, d = self.sub(prev, 1.0).nearest_point_param(qs[j])
                    t = prev + t_loc * (1.0 - prev)
            yield t, d
            prev = t

    # slicing ----------------------------------------------------------

    def sub(self, t0: float, t1: float) -> "Polyline":
        """Sub-polyline between arc-length fractions t0 < t1."""
        if t1 <= t0 + _EPS:
            raise DegenerateSegment(f"empty parameter range [{t0}, {t1}]")
        length = self.length
        mid = self.pts[self._cum.searchsorted(t0 * length, "right"):
                       self._cum.searchsorted(t1 * length, "left")]
        pts = np.empty((len(mid) + 2, 2))
        pts[0], pts[-1] = self.param_points((t0, t1))
        pts[1:-1] = mid
        return Polyline._owning(pts)

    def resample(self, n: int) -> np.ndarray:
        """n points evenly spaced by arc length (endpoints included)."""
        return self.param_points(_unit_steps(max(int(n), 2)))

    def __len__(self) -> int:
        return len(self.pts)

    def __repr__(self) -> str:
        return f"Polyline({len(self.pts)} pts, {self.length:.1f} m)"


# ── many polylines at once ──────────────────────────────────────────

class PolylineStack:
    """Many polylines end to end: their points, cumulative arc lengths
    and lengths as single arrays, so that one pass of array operations
    answers a query on all of them.  Each pass runs the elementwise
    operations of the Polyline method it stands for, in the same order,
    so each of its results has the same bits as that method's."""

    def __init__(self, paths: list[Polyline]) -> None:
        self.pts, self.first, n = _runs([p.pts for p in paths])
        self.last = self.first + n - 1
        self.cum = np.concatenate([p._cum for p in paths])
        self.length = self.cum[self.last]
        # complex numbers order by real part, then by imaginary part, so
        # (path, arc length) keys sort in this order and one searchsorted
        # searches each query's own path; k + 1j * s is exactly (k, s)
        self._keys = np.repeat(np.arange(len(paths)), n) + 1j * self.cum

    def _search(self, rows: np.ndarray, s: np.ndarray, side: str) -> np.ndarray:
        """np.searchsorted(paths[rows[k]]._cum, s[k], side) for each k,
        plus that path's first row."""
        return np.searchsorted(self._keys, rows + 1j * s, side)

    def frames(self, rows: np.ndarray, ts: np.ndarray, arriving=False):
        """Arrays x, y, tx, ty: paths[rows[k]].frame_at(ts[k], arriving[k])
        for each k (arriving may be one bool for all).  The norm of each
        segment comes from dots, the kernel of np.linalg.norm on one
        vector."""
        s = np.minimum(np.maximum(ts, 0.0), 1.0) * self.length[rows]
        idx = self._search(rows, s, "right")
        if np.any(arriving):
            idx = np.where(arriving, self._search(rows, s, "left"), idx)
        idx = np.clip(idx - 1, self.first[rows], self.last[rows] - 1)
        c0, span = self.cum[idx], self.cum[idx + 1] - self.cum[idx]
        ok = span > _EPS
        local = np.where(ok, (s - c0) / np.where(ok, span, 1.0), 0.0)
        p0, p1 = self.pts[idx], self.pts[idx + 1]
        x = p0[:, 0] + local * (p1[:, 0] - p0[:, 0])
        y = p0[:, 1] + local * (p1[:, 1] - p0[:, 1])
        d = p1 - p0
        t = d / np.maximum(np.sqrt(dots(d, d)), _EPS)[:, None]
        return x, y, t[:, 0], t[:, 1]

    def cut(self, t0: np.ndarray, t1: np.ndarray,
            rows: np.ndarray | None = None) -> list[np.ndarray]:
        """paths[rows[k]].sub(t0[k], t1[k]).pts for each k (rows default
        to each path once, in order), near-duplicate points dropped by
        Polyline's own _drop_near_duplicates, without building the
        polylines; raises the DegenerateSegment that sub raises."""
        if np.any(t1 <= t0 + _EPS):
            raise DegenerateSegment("empty parameter range")
        if rows is None:
            rows = np.arange(len(self.first))
        i0 = self._search(rows, t0 * self.length[rows], "right")
        i1 = self._search(rows, t1 * self.length[rows], "left")
        counts = i1 - i0 + 2
        at = np.cumsum(counts) - counts
        pts = np.empty((counts.sum(), 2))
        # sub's ends are param_point's, which are frame_at's points
        pts[at] = np.column_stack(self.frames(rows, t0)[:2])
        pts[at + counts - 1] = np.column_stack(self.frames(rows, t1)[:2])
        pts[_ranges(at + 1, i1 - i0)] = self.pts[_ranges(i0, i1 - i0)]
        pts, counts, _ = _drop_near_duplicates(pts, counts)
        return np.split(pts, np.cumsum(counts)[:-1])


def cut_many(paths: list[Polyline], t0: np.ndarray,
             t1: np.ndarray) -> list[np.ndarray]:
    """paths[k].sub(t0[k], t1[k]).pts for each k, from PolylineStack.cut
    over blocks of paths of at most _PASS_ROWS points: its keys and row
    indices take several times the memory of the points it cuts."""
    out: list[np.ndarray] = []
    for block in _blocks([len(p.pts) for p in paths], _PASS_ROWS):
        out += PolylineStack(paths[block]).cut(t0[block], t1[block])
    return out


def _runs(arrays: list[np.ndarray]):
    """The arrays end to end, and the first row and row count of each."""
    n = np.array([len(a) for a in arrays], dtype=int)
    return np.concatenate(arrays), np.cumsum(n) - n, n


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.arange(starts[k], starts[k] + counts[k]) for each k, end to end."""
    return (np.repeat(starts - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum()))


def _drop_near_duplicates(pts: np.ndarray, counts):
    """Each run of counts[k] consecutive rows of pts less the points within
    _EPS of the point before them, in one pass; raises DegenerateSegment
    when a run keeps fewer than two points.  Returns the rows kept, each
    run's new count, and the length of each segment between consecutive
    rows kept (one per run boundary too)."""
    seg = _segment_lengths(pts)
    keep = seg > _EPS
    if not keep.all():
        first = np.cumsum(counts) - counts
        keep = np.concatenate(([True], keep))
        keep[first] = True
        counts = np.add.reduceat(keep, first)
        pts = pts[keep]
        seg = _segment_lengths(pts)
    if min(counts) < 2:
        raise DegenerateSegment("polyline collapsed below two distinct points")
    return pts, counts, seg


def _segment_lengths(pts: np.ndarray) -> np.ndarray:
    """np.linalg.norm(np.diff(pts, axis=0), axis=1), bit for bit: that
    norm sums the two squares of each row and takes the root, as here,
    but through two Python wrappers."""
    d = pts[1:] - pts[:-1]
    dx, dy = d[:, 0], d[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _unit_steps(n: int) -> np.ndarray:
    """np.linspace(0.0, 1.0, n) for n >= 2, bit for bit, by numpy's own
    arithmetic: k times the step 1 / (n - 1), the last entry exactly 1."""
    ts = np.arange(n, dtype=float) * (1.0 / (n - 1))
    ts[-1] = 1.0
    return ts


# ── the nearest-segment kernel ──────────────────────────────────────

# Columns of a segment table, one row per segment: start point, direction,
# squared length (at least _EPS**2), box corners, arc length at the start
# and along the segment, and the polyline length (at least _EPS) that
# turns arc lengths into parameters.
_P0, _D, _LEN2, _LO, _HI = slice(0, 2), slice(2, 4), 4, slice(5, 7), slice(7, 9)
_C0, _SL, _SCALE = 9, 10, 11
_COLUMNS = 12


def _segment_table(paths: list[Polyline]) -> np.ndarray:
    """The segments of paths, concatenated, one row each (see _COLUMNS).
    Each value is the elementwise result nearest_many computed from one
    polyline's own arrays, so the concatenation changes no bit."""
    if len(paths) == 1:
        pts, cum, inner = paths[0].pts, paths[0]._cum, slice(None)
    else:
        pts = np.concatenate([p.pts for p in paths])
        cum = np.concatenate([p._cum for p in paths])
        inner = np.ones(len(pts) - 1, dtype=bool)  # both ends in one path
        inner[np.cumsum([len(p.pts) for p in paths[:-1]]) - 1] = False
    p0, p1 = pts[:-1][inner], pts[1:][inner]
    c0, c1 = cum[:-1][inner], cum[1:][inner]
    d = p1 - p0
    tab = np.empty((len(d), _COLUMNS))
    tab[:, _P0], tab[:, _D] = p0, d
    tab[:, _LEN2] = np.maximum(np.einsum("ij,ij->i", d, d), _EPS**2)
    tab[:, _LO], tab[:, _HI] = np.minimum(p0, p1), np.maximum(p0, p1)
    tab[:, _C0], tab[:, _SL] = c0, c1 - c0
    tab[:, _SCALE] = np.repeat([max(p.length, _EPS) for p in paths],
                               [len(p.pts) - 1 for p in paths])
    return tab


def _nearest(qs: np.ndarray, tab: np.ndarray, radius: float | None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of nearest_many: each query's lowest segment at the
    least distance."""
    params, dists = np.full(len(qs), np.nan), np.full(len(qs), np.inf)
    for qi, si, tloc, dist2 in _pair_blocks(qs, tab, radius):
        _settle(qi, si, tloc, dist2, tab, params, dists)
    if radius is not None:
        far = dists > radius
        params[far], dists[far] = np.nan, np.inf
    return params, dists


def nearest_pass(pairs: list[tuple[np.ndarray, Polyline]], radius: float):
    """For each (qs, p) of pairs, in order, yield (params, dists), equal
    bit for bit to p.nearest_many(qs, radius).

    The pairs go in blocks, each block's results yielded before the next
    block starts.  A block stacks its distinct query arrays and builds
    one segment table for its distinct polylines (by identity), so a
    polyline in many of its pairs is not copied per pair.  It cuts each
    query array into runs of _CHUNK consecutive queries and each
    polyline's segments into groups of _CHUNK consecutive segments, tests
    each (run, group) cell of its pairs by box, then each (run, segment)
    cell of the groups that pass, then each query of a run that passes
    against the segment's padded box, the test of nearest_many.  A block
    holds at most _BLOCK_CELLS // _CHUNK (run, segment) cells and queries
    together, so at most that many (run, segment) cells and _BLOCK_CELLS
    (query, segment) cells reach the second and third tests; a pair of
    more than that goes alone through nearest_many's own blocks."""
    cap = _BLOCK_CELLS // _CHUNK
    cells = [-(-len(qs) // _CHUNK) * (len(p.pts) - 1) + len(qs)
             for qs, p in pairs]
    for block in _blocks(cells, cap):
        if sum(cells[block]) > cap:  # one pair
            qs, p = pairs[block.start]
            yield p.nearest_many(qs, radius)
        else:
            yield from _pass_block(pairs[block], radius)


def _blocks(sizes: list[int], cap: int):
    """Consecutive slices of range(len(sizes)), in order, each of items
    whose sizes sum to at most cap or of one item larger than cap."""
    a, total = 0, 0
    for b, size in enumerate(sizes):
        if total + size > cap and b > a:
            yield slice(a, b)
            a, total = b, 0
        total += size
    if sizes:
        yield slice(a, len(sizes))


def _pass_block(pairs: list[tuple[np.ndarray, Polyline]], radius: float):
    """nearest_pass on one block of pairs."""
    sweeps, q_of = _distinct([qs for qs, _ in pairs])
    paths, p_of = _distinct([p for _, p in pairs])
    qs, tab = np.concatenate(sweeps), _segment_table(paths)
    q_len = np.array([len(q) for q in sweeps])
    t_len = np.array([len(p.pts) - 1 for p in paths])
    q_at, t_at = np.cumsum(q_len) - q_len, np.cumsum(t_len) - t_len
    n_runs = -(-q_len // _CHUNK)
    r_at = np.cumsum(n_runs) - n_runs
    # the coordinates of each run's queries as one row of _CHUNK, padded
    # with nan, which no box holds, and the runs' boxes
    runs = np.full((2, n_runs.sum() * _CHUNK), np.nan)
    runs[:, np.arange(len(qs)) + np.repeat(_CHUNK * r_at - q_at, q_len)] = qs.T
    runs = runs.reshape(2, -1, _CHUNK)
    r_lo, r_hi = np.fmin.reduce(runs, axis=2), np.fmax.reduce(runs, axis=2)
    pad = radius + _BOX_SLACK
    s_lo, s_hi = (tab[:, _LO] - pad).T, (tab[:, _HI] + pad).T
    # groups of _CHUNK consecutive segments of one polyline, the first
    # segment and segment count of each, and their boxes: the union of
    # their segments' padded boxes, so a run that meets no group box
    # meets none of its segments' boxes
    n_groups = -(-t_len // _CHUNK)
    g_at = np.cumsum(n_groups) - n_groups
    g_first = (np.repeat(t_at - _CHUNK * g_at, n_groups)
               + _CHUNK * np.arange(n_groups.sum()))
    g_n = np.minimum(_CHUNK, np.repeat(t_at + t_len, n_groups) - g_first)
    g_lo = np.minimum.reduceat(s_lo, g_first, axis=1)
    g_hi = np.maximum.reduceat(s_hi, g_first, axis=1)
    # per pair: query count, first run, first group, group count
    pn, pr, pg, png = q_len[q_of], r_at[q_of], g_at[p_of], n_groups[p_of]
    ends = np.cumsum(pn)
    params, dists = np.full(ends[-1], np.nan), np.full(ends[-1], np.inf)
    # the (pair, run, group) cells whose boxes meet, then the (pair, run,
    # segment) cells of those groups whose boxes meet: by pair, run and
    # segment, as if every (pair, run, segment) cell were tested
    n1 = n_runs[q_of] * png
    pair = np.repeat(np.arange(len(pairs)), n1)
    local = np.arange(len(pair)) - np.repeat(np.cumsum(n1) - n1, n1)
    run, grp = np.divmod(local, png[pair])
    run += pr[pair]
    grp += pg[pair]
    hit = np.flatnonzero(_boxes_meet(g_lo[:, grp], g_hi[:, grp],
                                     r_lo[:, run], r_hi[:, run]))
    m = g_n[grp[hit]]
    pair, run = np.repeat(pair[hit], m), np.repeat(run[hit], m)
    seg = _ranges(g_first[grp[hit]], m)
    lo, hi = s_lo[:, seg], s_hi[:, seg]
    hit = np.flatnonzero(_boxes_meet(lo, hi, r_lo[:, run], r_hi[:, run]))
    pair, run, seg = pair[hit], run[hit], seg[hit]
    # each query of those runs in the segment's padded box
    x, y = runs[0, run], runs[1, run]
    lo, hi = lo[:, hit, None], hi[:, hit, None]
    near = np.flatnonzero((lo[0] <= x) & (x <= hi[0])
                          & (lo[1] <= y) & (y <= hi[1]))
    cell, j = np.divmod(near, _CHUNK)
    si = seg[cell]
    rows = (ends - pn - _CHUNK * pr)[pair[cell]] + _CHUNK * run[cell] + j
    _settle(rows, si, *_projection(x.ravel()[near], y.ravel()[near], tab, si),
            tab, params, dists)
    far = dists > radius
    params[far], dists[far] = np.nan, np.inf
    for r0, r1 in zip((ends - pn).tolist(), ends.tolist()):
        yield params[r0:r1], dists[r0:r1]


def _boxes_meet(lo: np.ndarray, hi: np.ndarray, lo2: np.ndarray,
                hi2: np.ndarray) -> np.ndarray:
    """Whether box k of (lo, hi) meets box k of (lo2, hi2), for each k;
    each argument holds the x row and the y row of its corners."""
    return ((lo[0] <= hi2[0]) & (lo2[0] <= hi[0])
            & (lo[1] <= hi2[1]) & (lo2[1] <= hi[1]))


def _distinct(items: list) -> tuple[list, np.ndarray]:
    """The distinct items (by identity) in order of first use, and for
    each of items its index among them."""
    slot: dict[int, int] = {}
    of = np.array([slot.setdefault(id(x), len(slot)) for x in items])
    return list({id(x): x for x in items}.values()), of


def _settle(rows: np.ndarray, si: np.ndarray, tloc: np.ndarray,
            dist2: np.ndarray, tab: np.ndarray, params: np.ndarray,
            dists: np.ndarray) -> None:
    """Write into params and dists, at each of rows, the parameter and
    distance of that row's pair at the least dist2, the lowest segment
    on ties.  Every pair of those rows must be here."""
    best2 = np.full(len(params), np.inf)
    np.minimum.at(best2, rows, dist2)
    k = np.flatnonzero(dist2 == best2[rows])
    low = np.full(len(params), len(tab))
    np.minimum.at(low, rows[k], si[k])
    k = k[si[k] == low[rows[k]]]
    seg = si[k]
    params[rows[k]] = ((tab[seg, _C0] + tloc[k] * tab[seg, _SL])
                       / tab[seg, _SCALE])
    dists[rows[k]] = np.sqrt(dist2[k])


def _pair_blocks(qs: np.ndarray, tab: np.ndarray, radius: float | None):
    """Yield (query, segment, tloc, dist2) arrays of the (query, segment)
    pairs whose query lies in the segment's box padded by radius (every
    pair when radius is None: the pad is then infinite), block by block
    in query order, each block by query and then by segment.  tloc is the
    clamped projection parameter on the segment and dist2 the squared
    distance.

    A block is a run of consecutive queries tested against the segments
    whose padded boxes meet the block's box.  A block of more than
    _BLOCK_CELLS cells is halved, down to one query, so a call under the
    cap is one block."""
    n = len(qs)
    if not n:
        return
    pad = math.inf if radius is None else radius + _BOX_SLACK
    lo, hi = tab[:, _LO] - pad, tab[:, _HI] + pad
    todo = [(0, n, None)]
    while todo:
        i0, i1, sel = todo.pop()
        block = qs[i0:i1]
        bmin, bmax = block.min(axis=0), block.max(axis=0)
        blo, bhi = (lo, hi) if sel is None else (lo[sel], hi[sel])
        meets = np.flatnonzero((blo[:, 0] <= bmax[0]) & (bmin[0] <= bhi[:, 0])
                               & (blo[:, 1] <= bmax[1]) & (bmin[1] <= bhi[:, 1]))
        sel = meets if sel is None else sel[meets]
        if (i1 - i0) * len(sel) > _BLOCK_CELLS and i1 - i0 > 1:
            mid = (i0 + i1) // 2
            todo += [(mid, i1, sel), (i0, mid, sel)]
            continue
        blo, bhi = blo[meets], bhi[meets]
        x, y = block[:, None, 0], block[:, None, 1]
        near = ((blo[:, 0] <= x) & (x <= bhi[:, 0])
                & (blo[:, 1] <= y) & (y <= bhi[:, 1]))
        qi, sj = np.nonzero(near)  # by query, then by segment index
        yield _project(qs, tab, qi + i0, sel[sj])


def _project(qs: np.ndarray, tab: np.ndarray, qi: np.ndarray, si: np.ndarray):
    """(qi, si, tloc, dist2) of the pairs (qs[qi], segment si)."""
    return (qi, si, *_projection(qs[qi, 0], qs[qi, 1], tab, si))


def _projection(x: np.ndarray, y: np.ndarray, tab: np.ndarray, si: np.ndarray):
    """(tloc, dist2) of the points (x, y) on the segments si: the clamped
    projection parameter and the squared distance."""
    (ax, ay), (dx, dy) = tab[si, _P0].T, tab[si, _D].T
    rx, ry = x - ax, y - ay
    tloc = np.clip((rx * dx + ry * dy) / tab[si, _LEN2], 0.0, 1.0)
    ex, ey = x - (ax + tloc * dx), y - (ay + tloc * dy)
    return tloc, ex * ex + ey * ey


def _near_pairs(qs: np.ndarray, tab: np.ndarray, radius: float):
    """Every pair of _pair_blocks as four lists: query, segment, tloc,
    dist2, by query and then by segment."""
    blocks = list(_pair_blocks(qs, tab, radius))
    if not blocks:
        return [], [], [], []
    return tuple(np.concatenate(cols).tolist() for cols in zip(*blocks))


def _dist(a, b) -> float:
    """np.linalg.norm of b - a, bit for bit, on plain floats."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return math.sqrt(dx * dx + dy * dy)


def _project_one(q, a, b) -> tuple[float, float]:
    """(dist2, tloc) of q on segment a -> b: _project on plain floats."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    len2 = max(dx * dx + dy * dy, _EPS**2)
    rx, ry = q[0] - a[0], q[1] - a[1]
    t = min(max((rx * dx + ry * dy) / len2, 0.0), 1.0)
    ex, ey = q[0] - (a[0] + t * dx), q[1] - (a[1] + t * dy)
    return ex * ex + ey * ey, t


# ── shared segment detection ────────────────────────────────────────

@dataclass(frozen=True)
class SharedSegment:
    """A stretch where polyline a runs within d_hat of polyline b.

    range_a is increasing; range_b follows b's nearest-point parameters
    over the matched sweep and decreases for anti-parallel overlaps.
    extent is the arc length of range_a in meters.
    """

    range_a: tuple[float, float]
    range_b: tuple[float, float]
    extent: float


def sweep_points(a: Polyline, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Parameters 0 to 1 in ceil(1 / dt) equal steps, and a's points at
    them: the sweep of a in shared_segments."""
    if dt <= 0 or dt > 0.5:
        raise ValueError(f"dt must be in (0, 0.5], got {dt}")
    ts = _unit_steps(int(math.ceil(1.0 / dt)) + 1)
    return ts, a.param_points(ts)


def box_spans(sweeps: list[tuple[np.ndarray, np.ndarray]], boxes: np.ndarray,
              radius: float) -> np.ndarray:
    """For each sweep (ts, pts) of sweeps, ts[last] - ts[first], first
    and last being the first and the last of its points that lie in
    boxes[k] (a polyline's bbox row x0, y0, x1, y1) padded by radius +
    _BOX_SLACK; -inf when none does.

    nearest_many and nearest_pass find a query within radius of a
    polyline only on a segment whose box, padded by that much, holds the
    query, and that box lies in the polyline's padded bbox; so every
    sweep point within radius lies between first and last, and, ts not
    decreasing, every run that shared_segments reports spans at most
    this many parameter units.  The sweeps go in blocks of about
    _PASS_ROWS points (or one sweep alone); each must have a point."""
    out = np.empty(len(sweeps))
    pad = radius + _BOX_SLACK
    lo, hi = boxes[:, :2] - pad, boxes[:, 2:] + pad
    for block in _blocks([len(ts) for ts, _ in sweeps], _PASS_ROWS):
        pts, first, n = _runs([pts for _, pts in sweeps[block]])
        ts = np.concatenate([ts for ts, _ in sweeps[block]])
        x0, y0 = np.repeat(lo[block], n, axis=0).T
        x1, y1 = np.repeat(hi[block], n, axis=0).T
        x, y = pts.T
        at = np.arange(len(pts))
        inside = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        a = np.minimum.reduceat(np.where(inside, at, len(pts) - 1), first)
        b = np.maximum.reduceat(np.where(inside, at, -1), first)
        out[block] = np.where(b >= 0, ts[b] - ts[a], -np.inf)
    return out


def shared_segments(
    a: Polyline,
    b: Polyline,
    d_hat: float,
    dt: float,
    k: int = 2,
    min_len: float = 0.0,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
    nearest: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SharedSegment]:
    """Sweep a at parameter steps dt and record maximal runs whose distance
    to b stays within d_hat; a run survives up to k consecutive outlier
    steps before it is closed at the last in-threshold step.  Runs shorter
    than min_len meters are dropped.  sweep, when given, must be
    sweep_points(a, dt); a caller sweeping a against many polylines
    computes it once.  nearest, when given, must be
    b.nearest_many(sweep points, d_hat); a caller computes it for many
    pairs in one kernel call (nearest_pass).
    """
    ts, pts = sweep_points(a, dt) if sweep is None else sweep
    tb, dist = b.nearest_many(pts, radius=d_hat) if nearest is None else nearest
    inside = np.flatnonzero(dist <= d_hat)
    if not len(inside):
        return []
    # in-threshold steps more than k + 1 apart leave more than k outliers
    # between them: a run ends at the first and starts at the second
    cuts = np.flatnonzero(inside[1:] - inside[:-1] > k + 1).tolist()
    steps = inside.tolist()
    out: list[SharedSegment] = []
    for first, last in zip([steps[0]] + [steps[c + 1] for c in cuts],
                           [steps[c] for c in cuts] + [steps[-1]]):
        extent = (ts[last] - ts[first]) * a.length
        if extent >= min_len and last > first:
            out.append(SharedSegment(
                range_a=(float(ts[first]), float(ts[last])),
                range_b=(float(tb[first]), float(tb[last])),
                extent=float(extent),
            ))
    return out


# ── offsetting ──────────────────────────────────────────────────────

def offset_polyline(p: Polyline, delta: float, miter_limit: float = 2.0) -> Polyline:
    """Offset p to the left of its travel direction by delta meters
    (negative = right).  Joins are mitered up to miter_limit, beveled
    beyond it; local loops from sharp inner corners are cleaned up.
    offset_many of the one polyline and offset.
    """
    return offset_many([p], [[delta]], miter_limit)[0]


def offset_many(paths: list[Polyline], deltas: list[list[float]],
                miter_limit: float = 2.0) -> list[Polyline]:
    """Each of paths offset by each of its deltas (deltas[i] for paths[i]),
    path by path, as offset_polyline offsets one path: a few array passes
    for each block of paths whose offsets have at most about _PASS_ROWS
    points in all (or for one path alone), whatever the block.

    Each path's joins are computed once, as a base point, a vector and a
    divisor for every point an offset of it has: the end points and both
    points of a bevel are the vertex plus delta times one segment normal
    over 1, which divides exactly, and a miter point is the vertex plus
    delta times the sum of both normals over 1 + their dot product.  One
    expression then scales the vectors of every offset by its delta, in
    that order of operations.  An offset under _EPS is the path itself.
    One window test (_local_crossings) finds the offsets with a local
    loop, and only those go through the cut loop of _remove_local_loops.
    Every step is elementwise, or a dots product, so each offset is the
    same bits as one computed alone.
    """
    out: list[Polyline] = []
    sizes = [len(p.pts) * len(ds) for p, ds in zip(paths, deltas)]
    for block in _blocks(sizes, _PASS_ROWS):
        out += _offset_block(paths[block], deltas[block], miter_limit)
    return out


def _offset_block(paths: list[Polyline], deltas: list[list[float]],
                  miter_limit: float) -> list[Polyline]:
    """offset_many on one block of paths."""
    d = np.array([x for ds in deltas for x in ds], dtype=float)
    of = np.repeat(np.arange(len(paths)), [len(ds) for ds in deltas])
    out = [paths[i] for i in of.tolist()]
    moved = np.flatnonzero(~(np.abs(d) < _EPS))
    if not len(moved):
        return out
    pts, first, n = _runs([p.pts for p in paths])
    last = first + n - 1
    seg = np.diff(pts, axis=0)
    seg[last[:-1]] = 1.0  # rows that span two paths: any non-zero row
    dirs = seg / np.linalg.norm(seg, axis=1)[:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)  # left of travel
    # each point's segment normals, after it and before it; a path's end
    # points have only one
    after = np.concatenate([normals, normals[-1:]])
    after[last] = normals[last - 1]
    joint = np.ones(len(pts), dtype=bool)
    joint[first] = joint[last] = False
    n1, n2 = normals[np.flatnonzero(joint) - 1], after[joint]
    dot = dots(n1, n2)
    with np.errstate(divide="ignore", invalid="ignore"):  # hairpins: dot = -1
        miter_ratio = np.where(dot < 1.0, np.sqrt(2.0 / (1.0 + dot)), 1.0)
    # A full reversal or a join past the miter limit is squared off with
    # both segments' endpoint offsets; any other join is one miter point.
    bevel = (dot < -1.0 + 1e-6) | (miter_ratio > miter_limit)
    # two slots per point: the first always filled, the second by bevels
    vec = np.stack([after, after], axis=1)
    vec[joint, 0] = np.where(bevel[:, None], n1, n1 + n2)
    div = np.ones((len(pts), 2))
    div[joint, 0] = np.where(bevel, 1.0, 1.0 + dot)
    used = np.zeros((len(pts), 2), dtype=bool)
    used[:, 0] = True
    used[np.flatnonzero(joint)[bevel], 1] = True
    base = np.repeat(pts, 2, axis=0)[used.ravel()]
    vec, div = vec[used], div[used]
    rows = np.add.reduceat(used.sum(axis=1), first)
    counts = rows[of[moved]]
    r = _ranges((np.cumsum(rows) - rows)[of[moved]], counts)
    raw = base[r] + np.repeat(d[moved], counts)[:, None] * vec[r] / div[r][:, None]
    run = np.repeat(np.arange(len(counts)), counts)
    loops = set(run[_local_crossings(raw, run)[0]].tolist())
    starts = np.cumsum(counts) - counts
    runs = [raw[a:a + m] for a, m in zip(starts.tolist(), counts.tolist())]
    for j in loops:
        runs[j] = _remove_local_loops(runs[j])
    for k, band in zip(moved.tolist(), Polyline.many(runs)):
        out[k] = band
    return out


_LOOP_WINDOW = 8


def _local_crossings(pts: np.ndarray, run: np.ndarray):
    """Arrays i, j, t over the pairs of segments i and j = i + 2 ... i +
    _LOOP_WINDOW of pts that lie in one run (run[k] is the run of point
    k) and cross properly, t being the crossing's parameter on segment
    i.  One vectorised test per offset j - i, over all runs at once."""
    seg_run = np.where(run[:-1] == run[1:], run[:-1], -1)
    (x, y), (rx, ry) = pts[:-1].T, np.diff(pts, axis=0).T
    hits = [np.zeros(0, dtype=int)] * 2 + [np.zeros(0)]
    for off in range(2, min(_LOOP_WINDOW, len(rx) - 1) + 1):
        i, j = slice(0, len(rx) - off), slice(off, None)
        denom = rx[i] * ry[j] - ry[i] * rx[j]
        ok = ((seg_run[i] == seg_run[j]) & (seg_run[i] >= 0)
              & (np.abs(denom) >= _EPS))
        denom = np.where(ok, denom, 1.0)
        qx, qy = x[j] - x[i], y[j] - y[i]
        t = (qx * ry[j] - qy * rx[j]) / denom
        u = (qx * ry[i] - qy * rx[i]) / denom
        k = np.flatnonzero(ok & (_EPS < t) & (t < 1 - _EPS)
                           & (_EPS < u) & (u < 1 - _EPS))
        hits = [np.concatenate(h) for h in zip(hits, (k, k + off, t[k]))]
    return hits


def _remove_local_loops(pts: np.ndarray) -> np.ndarray:
    """Cut small self-intersection loops that offsetting creates at sharp
    inner corners.  The first crossing of segment i with one of segments
    i + 2 through i + _LOOP_WINDOW, in (i, j) order, is cut at its crossing
    point, which removes at least one point; the search then resumes at
    i - _LOOP_WINDOW, the first segment whose window reaches the cut, so
    no window of the result holds a crossing."""
    start = 0
    while True:
        i, j, t = _local_crossings(pts[start:], np.zeros(len(pts) - start,
                                                         dtype=int))
        if not len(i):
            return pts
        first = np.lexsort((j, i))[0]
        i, j = start + int(i[first]), start + int(j[first])
        x = pts[i] + t[first] * (pts[i + 1] - pts[i])
        pts = np.vstack([pts[: i + 1], [x], pts[j + 1:]])
        start = max(0, i - _LOOP_WINDOW)


# ── averaging ───────────────────────────────────────────────────────

def average_path(a: Polyline, b: Polyline, step: float = 5.0) -> Polyline:
    """Pointwise midpoint of a and b after resampling both at a common
    count derived from step meters.  Inputs must already be oriented the
    same way."""
    n = max(2, int(math.ceil(max(a.length, b.length) / max(step, _EPS))) + 1)
    return Polyline._owning((a.resample(n) + b.resample(n)) / 2.0)
