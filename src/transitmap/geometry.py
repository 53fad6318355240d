"""Planar polyline geometry: arc-length parametrization, nearest-point
queries, shared-segment detection between polylines, parallel offsetting
with miter/bevel joins, and path averaging.

A shared-segment sweep asks, for every sweep point, for the nearest point
of the other polyline within d_hat.  That query costs one boolean box
test per (point, segment) pair; it projects a point only onto the segments
whose boxes, padded by d_hat, contain it, so the projections, distances
and reductions follow the number of nearby pairs, not points * segments.

Coordinates are projected meters throughout.  Polyline parameters t are
arc-length fractions in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment

_EPS = 1e-9
# Extra padding, in metres, of the boxes in Polyline.nearest_many: far
# above the rounding of any coordinate below 10^7 m, so a query whose
# computed distance is within the radius always lies in the padded box.
_BOX_SLACK = 1e-6


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
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DegenerateSegment(f"expected (N, 2) points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateSegment("non-finite coordinate in polyline")
        if len(pts) >= 2:
            keep = np.ones(len(pts), dtype=bool)
            keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > _EPS
            pts = pts[keep]
        if len(pts) < 2:
            raise DegenerateSegment("polyline collapsed below two distinct points")
        self.pts = pts
        self.pts.setflags(write=False)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        self._cum = np.concatenate(([0.0], np.cumsum(seg)))

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
        mn = self.pts.min(axis=0)
        mx = self.pts.max(axis=0)
        return (float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1]))

    def reversed(self) -> "Polyline":
        return Polyline(self.pts[::-1])

    # arc-length parametrization --------------------------------------

    def param_points(self, ts) -> np.ndarray:
        """Points at arc-length fractions ts (vectorized)."""
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
        s = ts * self.length
        idx = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, len(self.pts) - 2)
        seg_len = self._cum[idx + 1] - self._cum[idx]
        local = np.where(seg_len > _EPS, (s - self._cum[idx]) / np.maximum(seg_len, _EPS), 0.0)
        p0 = self.pts[idx]
        return p0 + local[:, None] * (self.pts[idx + 1] - p0)

    def param_point(self, t: float) -> np.ndarray:
        return self.param_points([t])[0]

    def tangent_at(self, t: float) -> np.ndarray:
        """Unit tangent of the segment containing parameter t."""
        return np.array(self.frame_at(t)[2:])

    def frame_at(self, t: float) -> tuple[float, float, float, float]:
        """(x, y, tx, ty): param_point(t) and tangent_at(t) as plain
        floats, without the array overhead of param_point."""
        s = min(max(t, 0.0), 1.0) * self.length
        idx = min(max(int(np.searchsorted(self._cum, s, side="right")) - 1, 0),
                  len(self.pts) - 2)
        c0, c1 = self._cum[idx:idx + 2].tolist()
        (x0, y0), (x1, y1) = self.pts[idx:idx + 2].tolist()
        local = (s - c0) / (c1 - c0) if c1 - c0 > _EPS else 0.0
        d = self.pts[idx + 1] - self.pts[idx]
        tx, ty = (d / max(np.linalg.norm(d), _EPS)).tolist()
        return x0 + local * (x1 - x0), y0 + local * (y1 - y0), tx, ty

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
        box padded by radius are projected, so past one boolean box test
        per pair the work grows with the number of nearby pairs, not with
        len(qs) * segments.  Every segment within radius of a query passes
        that test, so a query within radius gets the parameter and distance
        of the unbounded call (radius None, every pair projected); a query
        farther than radius gets parameter nan and distance inf.
        """
        p0, p1 = self.pts[:-1], self.pts[1:]
        d = p1 - p0
        if radius is None:
            near = np.ones((len(qs), len(d)), dtype=bool)
        else:
            lo = np.minimum(p0, p1) - (radius + _BOX_SLACK)
            hi = np.maximum(p0, p1) + (radius + _BOX_SLACK)
            x, y = qs[:, None, 0], qs[:, None, 1]
            near = ((lo[:, 0] <= x) & (x <= hi[:, 0])
                    & (lo[:, 1] <= y) & (y <= hi[:, 1]))
        qi, si = np.nonzero(near)  # by query, then by segment index
        len2 = np.maximum(np.einsum("ij,ij->i", d, d), _EPS**2)
        q, a, dk = qs[qi], p0[si], d[si]
        rel = q - a
        tloc = np.clip((rel[:, 0] * dk[:, 0] + rel[:, 1] * dk[:, 1]) / len2[si],
                       0.0, 1.0)
        e = q - (a + tloc[:, None] * dk)
        dist2 = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
        best2 = np.full(len(qs), np.inf)
        np.minimum.at(best2, qi, dist2)
        k = np.flatnonzero(dist2 == best2[qi])  # every nearest pair
        rows = qi[k]
        first = np.ones(len(k), dtype=bool)  # the lowest segment of each query
        first[1:] = rows[1:] != rows[:-1]
        k, rows = k[first], rows[first]
        s = si[k]
        seg_len = self._cum[1:] - self._cum[:-1]
        params = np.full(len(qs), np.nan)
        params[rows] = (self._cum[s] + tloc[k] * seg_len[s]) / max(self.length, _EPS)
        dists = np.full(len(qs), np.inf)
        dists[rows] = np.sqrt(dist2[k])
        if radius is not None:
            far = dists > radius
            params[far], dists[far] = np.nan, np.inf
        return params, dists

    # slicing ----------------------------------------------------------

    def sub(self, t0: float, t1: float) -> "Polyline":
        """Sub-polyline between arc-length fractions t0 < t1."""
        if t1 <= t0 + _EPS:
            raise DegenerateSegment(f"empty parameter range [{t0}, {t1}]")
        s0, s1 = t0 * self.length, t1 * self.length
        i0 = int(np.searchsorted(self._cum, s0, side="right"))
        i1 = int(np.searchsorted(self._cum, s1, side="left"))
        mid = self.pts[i0:i1]
        head, tail = self.param_points([t0, t1])
        return Polyline(np.vstack([head, mid, tail]))

    def resample(self, n: int) -> np.ndarray:
        """n points evenly spaced by arc length (endpoints included)."""
        return self.param_points(np.linspace(0.0, 1.0, max(int(n), 2)))

    def __len__(self) -> int:
        return len(self.pts)

    def __repr__(self) -> str:
        return f"Polyline({len(self.pts)} pts, {self.length:.1f} m)"


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
    ts = np.linspace(0.0, 1.0, int(math.ceil(1.0 / dt)) + 1)
    return ts, a.param_points(ts)


def shared_segments(
    a: Polyline,
    b: Polyline,
    d_hat: float,
    dt: float,
    k: int = 2,
    min_len: float = 0.0,
    sweep: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SharedSegment]:
    """Sweep a at parameter steps dt and record maximal runs whose distance
    to b stays within d_hat; a run survives up to k consecutive outlier
    steps before it is closed at the last in-threshold step.  Runs shorter
    than min_len meters are dropped.  sweep, when given, must be
    sweep_points(a, dt); a caller sweeping a against many polylines
    computes it once.
    """
    ts, pts = sweep_points(a, dt) if sweep is None else sweep
    tb, dist = b.nearest_many(pts, radius=d_hat)
    inside = dist <= d_hat

    out: list[SharedSegment] = []
    open_first = -1
    last_in = -1
    misses = 0

    def close(first: int, last: int) -> None:
        extent = (ts[last] - ts[first]) * a.length
        if extent >= min_len and last > first:
            out.append(SharedSegment(
                range_a=(float(ts[first]), float(ts[last])),
                range_b=(float(tb[first]), float(tb[last])),
                extent=float(extent),
            ))

    for i in range(len(ts)):
        if inside[i]:
            if open_first < 0:
                open_first = i
            last_in = i
            misses = 0
        elif open_first >= 0:
            misses += 1
            if misses > k:
                close(open_first, last_in)
                open_first = -1
                misses = 0
    if open_first >= 0:
        close(open_first, last_in)
    return out


# ── offsetting ──────────────────────────────────────────────────────

def offset_polyline(p: Polyline, delta: float, miter_limit: float = 2.0) -> Polyline:
    """Offset p to the left of its travel direction by delta meters
    (negative = right).  Joins are mitered up to miter_limit, beveled
    beyond it; local loops from sharp inner corners are cleaned up.
    All joins are computed in one array expression.
    """
    if abs(delta) < _EPS:
        return Polyline(p.pts.copy())
    pts = p.pts
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    dirs = seg / seg_len[:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)  # left of travel

    n1, n2 = normals[:-1], normals[1:]
    mid = pts[1:-1]
    dot = dots(n1, n2)
    with np.errstate(divide="ignore", invalid="ignore"):  # hairpins: dot = -1
        miter_ratio = np.where(dot < 1.0, np.sqrt(2.0 / (1.0 + dot)), 1.0)
        miter = mid + delta * (n1 + n2) / (1.0 + dot)[:, None]
    # A full reversal or a join past the miter limit is squared off with
    # both segments' endpoint offsets; any other join is one miter point.
    bevel = (dot < -1.0 + 1e-6) | (miter_ratio > miter_limit)
    joins = np.stack([np.where(bevel[:, None], mid + delta * n1, miter),
                      mid + delta * n2], axis=1)
    keep = np.stack([np.ones_like(bevel), bevel], axis=1)
    out = np.concatenate([pts[:1] + delta * normals[:1], joins[keep],
                          pts[-1:] + delta * normals[-1:]])
    return Polyline(_remove_local_loops(out))


_LOOP_WINDOW = 8


def _first_local_crossing(pts: np.ndarray,
                          start: int) -> tuple[int, int, np.ndarray] | None:
    """First pair (i, j), in (i, j) order, of segments i >= start and
    j = i + 2 ... i + _LOOP_WINDOW that cross properly, with their
    crossing point; None when there is none.  One vectorised test over
    every (window offset, i) pair."""
    a0 = pts[start:-1]
    r = np.diff(pts[start:], axis=0)
    n = len(r)
    if n < 3:
        return None
    i = np.arange(n - 2)[None, :]
    j = i + np.arange(2, _LOOP_WINDOW + 1)[:, None]  # one row per offset
    valid = j < n
    j = np.minimum(j, n - 1)
    ra, s = r[i], r[j]
    q = a0[j] - a0[i]
    denom = ra[..., 0] * s[..., 1] - ra[..., 1] * s[..., 0]
    ok = valid & (np.abs(denom) >= _EPS)
    denom = np.where(ok, denom, 1.0)
    t = (q[..., 0] * s[..., 1] - q[..., 1] * s[..., 0]) / denom
    u = (q[..., 0] * ra[..., 1] - q[..., 1] * ra[..., 0]) / denom
    hit = ok & (_EPS < t) & (t < 1 - _EPS) & (_EPS < u) & (u < 1 - _EPS)
    first = np.flatnonzero(hit.T)  # by segment i, then by offset
    if not len(first):
        return None
    k, row = divmod(int(first[0]), len(hit))
    return start + k, start + k + 2 + row, a0[k] + t[row, k] * r[k]


def _remove_local_loops(pts: np.ndarray) -> np.ndarray:
    """Cut small self-intersection loops that offsetting creates at sharp
    inner corners.  The first crossing of segment i with one of segments
    i + 2 through i + _LOOP_WINDOW, in (i, j) order, is cut at its crossing
    point, which removes at least one point; the search then resumes at
    i - _LOOP_WINDOW, the first segment whose window reaches the cut, so
    no window of the result holds a crossing."""
    i = 0
    while (hit := _first_local_crossing(pts, i)) is not None:
        i, j, x = hit
        pts = np.vstack([pts[: i + 1], [x], pts[j + 1:]])
        i = max(0, i - _LOOP_WINDOW)
    return pts


# ── averaging ───────────────────────────────────────────────────────

def average_path(a: Polyline, b: Polyline, step: float = 5.0) -> Polyline:
    """Pointwise midpoint of a and b after resampling both at a common
    count derived from step meters.  Inputs must already be oriented the
    same way."""
    n = max(2, int(math.ceil(max(a.length, b.length) / max(step, _EPS))) + 1)
    return Polyline((a.resample(n) + b.resample(n)) / 2.0)


# ── intersection counting (ground truth for crossing tests) ─────────

def count_proper_intersections(a_pts: np.ndarray, b_pts: np.ndarray) -> int:
    """Number of transversal (strictly interior, non-parallel) crossings
    between two polylines, vectorized over all segment pairs."""
    a0, a1 = a_pts[:-1], a_pts[1:]
    b0, b1 = b_pts[:-1], b_pts[1:]
    r = (a1 - a0)[:, None, :]
    s = (b1 - b0)[None, :, :]
    q = b0[None, :, :] - a0[:, None, :]
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    ok = np.abs(denom) > _EPS
    denom = np.where(ok, denom, 1.0)
    t = (q[..., 0] * s[..., 1] - q[..., 1] * s[..., 0]) / denom
    u = (q[..., 0] * r[..., 1] - q[..., 1] * r[..., 0]) / denom
    hit = ok & (t > _EPS) & (t < 1 - _EPS) & (u > _EPS) & (u < 1 - _EPS)
    return int(hit.sum())
