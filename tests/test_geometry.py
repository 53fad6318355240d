"""Geometry oracles: arc-length parametrization, nearest-point queries,
shared-segment sweeps, offsets, and averaging.

Derived expected values are frozen from independent computations noted at
each test; sweep results are cross-checked against a fine-grained oracle
written directly in this file.
"""

from __future__ import annotations

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from transitmap import geometry
from transitmap.errors import DegenerateSegment
from transitmap.geometry import (
    _EPS,
    _LOOP_WINDOW,
    Polyline,
    average_path,
    offset_polyline,
    shared_segments,
)
from oracles import count_proper_intersections, shared_segments_by_loop
from synth import smooth_polyline, wiggle_offset


# ── parametrization ─────────────────────────────────────────────────

def test_param_point_l_shape():
    # L of lengths 10 + 10; t=0.75 is 5 m into the second leg
    p = Polyline([(0, 0), (10, 0), (10, 10)])
    assert p.length == pytest.approx(20.0)
    assert p.param_point(0.75) == pytest.approx([10.0, 5.0])
    assert p.param_point(0.0) == pytest.approx([0.0, 0.0])
    assert p.param_point(1.0) == pytest.approx([10.0, 10.0])


def test_param_points_against_dense_interpolation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = smooth_polyline(rng, n_pts=25)
        dense = p.resample(20001)  # oracle: very fine even resampling
        ts = rng.uniform(0, 1, size=50)
        got = p.param_points(ts)
        idx = np.clip((ts * 20000).round().astype(int), 0, 20000)
        assert np.max(np.linalg.norm(got - dense[idx], axis=1)) < p.length * 1e-3


def test_degenerate_polyline_rejected():
    with pytest.raises(DegenerateSegment):
        Polyline([(1.0, 1.0)])
    with pytest.raises(DegenerateSegment):
        Polyline([(1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(DegenerateSegment):
        Polyline([(0.0, 0.0), (float("nan"), 1.0)])


def test_sub_polyline_endpoints():
    p = Polyline([(0, 0), (10, 0), (10, 10)])
    s = p.sub(0.25, 0.75)
    assert s.start == pytest.approx([5.0, 0.0])
    assert s.end == pytest.approx([10.0, 5.0])
    assert s.length == pytest.approx(10.0)


def test_polyline_leaves_the_callers_array_writable():
    # one array keeps every point, one loses a near-duplicate
    for pts in ([[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.3 * _EPS], [1.0, 1.0]]):
        a = np.array(pts)
        p = Polyline(a)
        assert a.flags.writeable and not p.pts.flags.writeable
        a[0] = (5.0, 5.0)
        assert p.pts[0].tolist() == [0.0, 0.0]
    p = Polyline([(0, 0), (10, 0), (10, 10)])
    for q in (p.reversed(), p.sub(0.2, 0.7), average_path(p, p)):
        assert not q.pts.flags.writeable


# ── the lean primitives against their numpy-wrapper oracles ─────────

def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _lean_cases(rng):
    """Point arrays: smooth walks, one-segment paths, the two points of
    n = 2, repeated points and points within _EPS of the one before, and
    coordinates of very different sizes."""
    cases = [np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[-0.0, -0.0], [-1.0, 0.0]]),
             np.array([[1e6, -2e6], [1e6 + 1e-3, -2e6]])]
    for _ in range(40):
        pts = smooth_polyline(rng, n_pts=int(rng.integers(2, 30)),
                              step=float(rng.uniform(1e-3, 50)), max_turn=1.5).pts.copy()
        pts += rng.uniform(-1e5, 1e5, size=2)
        if rng.random() < 0.4:  # repeated points
            i = rng.integers(len(pts), size=2)
            pts = np.insert(pts, i, pts[i], axis=0)
        if rng.random() < 0.4:  # points within _EPS of the one before
            i = rng.integers(len(pts), size=2)
            pts = np.insert(pts, i, pts[i] + 0.3 * _EPS, axis=0)
        cases.append(pts)
    return cases


def _unchecked_polyline(pts: np.ndarray) -> Polyline:
    """A polyline on pts as given, with the zero-length and sub-_EPS
    segments that construction drops, for param_points' short-segment
    branch."""
    p = Polyline.__new__(Polyline)
    p.pts = pts
    p._cum = np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))))
    return p


def test_lean_primitives_equal_their_wrapper_oracles_bit_for_bit():
    from oracles import (param_points_by_clip, polyline_arrays_by_norm,
                         resample_by_linspace, sub_arrays_by_vstack)
    rng = np.random.default_rng(2501)
    for n in [2, 3, 4, 7, 100, 201, 1001, 4096]:
        assert _bits(geometry._unit_steps(n)) == _bits(np.linspace(0.0, 1.0, n))
    short = [_unchecked_polyline(np.array(pts, dtype=float)) for pts in (
        [(0, 0), (0, 0), (5, 0)], [(0, 0), (5, 0), (5, 0.3 * _EPS), (5, 5)],
        [(1, 1), (1, 1)])]
    for pts in _lean_cases(rng):
        p = Polyline(pts)
        want_pts, want_cum = polyline_arrays_by_norm(pts)
        assert _bits(p.pts) == _bits(want_pts) and _bits(p._cum) == _bits(want_cum)
        assert _bits(geometry._segment_lengths(pts)) == _bits(
            np.linalg.norm(np.diff(pts, axis=0), axis=1))
        assert p.bbox() == tuple(float(v) for v in (*p.pts.min(axis=0), *p.pts.max(axis=0)))
        short.append(p)
    for p in short:
        vertex = p._cum / p._cum[-1] if p._cum[-1] > 0 else p._cum
        ts = np.concatenate([[-0.5, -0.0, 0.0, 1e-12, 1.0 - 1e-12, 1.0, 1.5,
                              -math.inf, math.inf, math.nan],
                             rng.uniform(-0.2, 1.2, 30), vertex])
        assert _bits(p.param_points(ts)) == _bits(param_points_by_clip(p.pts, p._cum, ts))
        for n in (0, 1, 2, 3, 50):
            assert _bits(p.resample(n)) == _bits(resample_by_linspace(p.pts, p._cum, n))
        if p._cum[-1] <= _EPS:
            continue
        cuts = [(0.0, 1.0), (-0.3, 0.4), (0.6, 1.7), (-0.0, 0.5)]
        cuts += [tuple(sorted(rng.uniform(-0.1, 1.1, 2))) for _ in range(10)]
        cuts += list(zip(vertex.tolist(), vertex[1:].tolist()))
        for t0, t1 in cuts:
            try:
                want = sub_arrays_by_vstack(p.pts, p._cum, t0, t1)
            except DegenerateSegment as exc:
                with pytest.raises(DegenerateSegment, match=re.escape(str(exc))):
                    p.sub(t0, t1)
                continue
            got = p.sub(t0, t1)
            assert _bits(got.pts) == _bits(want[0]) and _bits(got._cum) == _bits(want[1])


# ── nearest point ───────────────────────────────────────────────────

def _nearest_linear_scan(p: Polyline, q):
    """Independent oracle: plain loop over segments."""
    q = np.asarray(q, dtype=float)
    best_d, best_s = math.inf, 0.0
    cum = 0.0
    for a, b in zip(p.pts[:-1], p.pts[1:]):
        d = b - a
        L2 = float(d @ d)
        t = 0.0 if L2 == 0 else min(max(float((q - a) @ d / L2), 0.0), 1.0)
        pt = a + t * d
        dist = float(np.linalg.norm(q - pt))
        if dist < best_d:
            best_d = dist
            best_s = cum + t * math.sqrt(L2)
        cum += math.sqrt(L2)
    return best_s / p.length, best_d


def _distance_linear_scan(p: Polyline, qs: np.ndarray) -> np.ndarray:
    """Independent oracle: distance from each of qs to p, by a plain loop
    over segments, each segment tested against all queries at once."""
    best = np.full(len(qs), math.inf)
    for a, b in zip(p.pts[:-1], p.pts[1:]):
        d = b - a
        L2 = float(d @ d)
        rx, ry = qs[:, 0] - a[0], qs[:, 1] - a[1]
        t = (np.zeros(len(qs)) if L2 == 0
             else np.clip((rx * d[0] + ry * d[1]) / L2, 0.0, 1.0))
        ex, ey = rx - t * d[0], ry - t * d[1]
        best = np.minimum(best, np.sqrt(ex * ex + ey * ey))
    return best


def test_nearest_point_param_matches_linear_scan():
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = smooth_polyline(rng, n_pts=60)
        lo = p.pts.min(axis=0) - 100
        hi = p.pts.max(axis=0) + 100
        for _ in range(40):
            q = rng.uniform(lo, hi)
            t_got, d_got = p.nearest_point_param(q)
            t_exp, d_exp = _nearest_linear_scan(p, q)
            assert d_got == pytest.approx(d_exp, abs=1e-9)
            # ties can pick either segment; the realized point must be optimal
            assert np.linalg.norm(p.param_point(t_got) - q) == pytest.approx(d_exp, abs=1e-6)
            del t_exp


def test_nearest_many_matches_linear_scan():
    rng = np.random.default_rng(13)
    p = smooth_polyline(rng, n_pts=30)
    qs = rng.uniform(-200, 600, size=(25, 2))
    ts, ds = p.nearest_many(qs)
    for q, t, d in zip(qs, ts, ds):
        _, d_exp = _nearest_linear_scan(p, q)
        assert d == pytest.approx(d_exp, abs=1e-9)
        assert np.linalg.norm(p.param_point(t) - q) == pytest.approx(d, abs=1e-6)


def test_nearest_many_radius_matches_unbounded_call_and_oracle():
    # Within the radius the bounded call must return exactly what the
    # unbounded call returns; beyond it, parameter nan and distance inf.
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = smooth_polyline(rng, n_pts=int(rng.integers(2, 120)),
                            step=float(rng.uniform(2.0, 40.0)))
        lo, hi = p.pts.min(axis=0) - 60, p.pts.max(axis=0) + 60
        qs = rng.uniform(lo, hi, size=(300, 2))
        radius = float(rng.uniform(2.0, 40.0))
        ts, ds = p.nearest_many(qs)
        ts_r, ds_r = p.nearest_many(qs, radius=radius)
        exp = _distance_linear_scan(p, qs)
        np.testing.assert_allclose(ds, exp, rtol=0, atol=1e-9)
        inside = ds <= radius
        assert np.array_equal(inside, exp <= radius)
        assert np.array_equal(ts_r[inside], ts[inside])
        assert np.array_equal(ds_r[inside], ds[inside])
        assert np.isnan(ts_r[~inside]).all() and np.isinf(ds_r[~inside]).all()


def test_nearest_many_radius_boundary_ties_and_far_points():
    # U shape: segment 0 along y=0, segment 1 up x=100, segment 2 back
    # along y=40; 240 m long.
    p = Polyline([(0, 0), (100, 0), (100, 40), (0, 40)])
    qs = np.array([
        (50.0, -25.0),   # exactly at the radius below segment 0: inside
        (-15.0, -20.0),  # exactly at the radius from the first vertex
        (125.0, 20.0),   # exactly at the radius right of segment 1
        (50.0, 20.0),    # 20 m from segments 0 and 2: segment 0 wins
        (80.0, 20.0),    # 20 m from segments 0, 1 and 2: segment 0 wins
        (-20.0, -20.0),  # in segment 0's padded box, 28.3 m away: outside
        (50.0, -25.5),   # just beyond the radius
        (500.0, 500.0),  # in no segment's box
    ])
    ts, ds = p.nearest_many(qs, radius=25.0)
    assert ds[:3].tolist() == [25.0, 25.0, 25.0]
    assert ts[:3] == pytest.approx([50 / 240, 0.0, 120 / 240])
    assert ds[3:5].tolist() == [20.0, 20.0]
    assert ts[3:5] == pytest.approx([50 / 240, 80 / 240])
    for q, t in zip(qs[:5], ts[:5]):
        assert t == pytest.approx(_nearest_linear_scan(p, q)[0])
    assert np.isnan(ts[5:]).all() and np.isinf(ds[5:]).all()
    ts_all, ds_all = p.nearest_many(qs)
    assert np.array_equal(ts[:5], ts_all[:5])
    assert np.array_equal(ds[:5], ds_all[:5])
    assert (ds_all[5:] > 25.0).all()
    empty_ts, empty_ds = p.nearest_many(np.empty((0, 2)), radius=25.0)
    assert empty_ts.shape == empty_ds.shape == (0,)


# ── shared segments ─────────────────────────────────────────────────

DT = 0.005  # 5 m steps on a 1000 m line


def test_shared_segment_parallel_lines_analytic():
    # a along y=0, b along y=10 for x in [200, 800], d_hat 25.
    # In-threshold boundary: (200-x)^2 + 10^2 = 25^2  =>  x = 200 - sqrt(525)
    a = Polyline([(0, 0), (1000, 0)])
    b = Polyline([(200, 10), (800, 10)])
    segs = shared_segments(a, b, d_hat=25.0, dt=DT, k=2)
    assert len(segs) == 1
    lo = (200 - math.sqrt(525)) / 1000  # 0.1770871...
    hi = (800 + math.sqrt(525)) / 1000
    assert abs(segs[0].range_a[0] - lo) <= 2 * DT
    assert abs(segs[0].range_a[1] - hi) <= 2 * DT
    assert segs[0].range_b == pytest.approx((0.0, 1.0), abs=1e-9)
    assert segs[0].extent == pytest.approx((segs[0].range_a[1] - segs[0].range_a[0]) * 1000)


def test_shared_segment_antiparallel_has_decreasing_b_range():
    a = Polyline([(0, 0), (1000, 0)])
    b = Polyline([(800, 10), (200, 10)])
    segs = shared_segments(a, b, d_hat=25.0, dt=DT, k=2)
    assert len(segs) == 1
    t0, t1 = segs[0].range_b
    assert t0 > t1  # anti-parallel overlap


def test_shared_segments_two_runs_analytic():
    # b leaves the corridor between x=300 and x=700; corner shadow sqrt(525)
    a = Polyline([(0, 0), (1000, 0)])
    b = Polyline([(0, 10), (300, 10), (300, 300), (700, 300), (700, 10), (1000, 10)])
    segs = shared_segments(a, b, d_hat=25.0, dt=DT, k=2)
    assert len(segs) == 2
    hi0 = (300 + math.sqrt(525)) / 1000
    lo1 = (700 - math.sqrt(525)) / 1000
    assert abs(segs[0].range_a[0] - 0.0) <= 2 * DT
    assert abs(segs[0].range_a[1] - hi0) <= 2 * DT
    assert abs(segs[1].range_a[0] - lo1) <= 2 * DT
    assert abs(segs[1].range_a[1] - 1.0) <= 2 * DT


def test_shared_segment_k_tolerance_bridges_short_gap():
    # baseline offset 24 m, d_hat 25: shadow radius sqrt(25^2-24^2)=7 m.
    # b detours between x=490 and x=510, so (497, 503) is out of threshold:
    # at 5 m steps that is a single outlier step, bridged by k=2.
    a = Polyline([(0, 0), (1000, 0)])
    b = Polyline([(0, 24), (490, 24), (500, 200), (510, 24), (1000, 24)])
    segs = shared_segments(a, b, d_hat=25.0, dt=DT, k=2)
    assert len(segs) == 1
    # with k=0 the same geometry splits in two
    segs0 = shared_segments(a, b, d_hat=25.0, dt=DT, k=0)
    assert len(segs0) == 2


def test_shared_segment_min_len_filter():
    a = Polyline([(0, 0), (1000, 0)])
    b = Polyline([(480, 10), (520, 10)])  # ~85 m of shadowed overlap
    assert len(shared_segments(a, b, d_hat=25.0, dt=DT, k=2, min_len=50.0)) == 1
    assert len(shared_segments(a, b, d_hat=25.0, dt=DT, k=2, min_len=120.0)) == 0


def _fine_sweep_oracle(a: Polyline, b: Polyline, d_hat: float, dt: float, k: int):
    """Independent oracle: sweep at dt/10 with the tolerance window scaled
    to the same parameter width (k steps of dt == 10k steps of dt/10)."""
    fine = dt / 10
    n = int(math.ceil(1.0 / fine))
    ts = np.linspace(0.0, 1.0, n + 1)
    dists = _distance_linear_scan(b, a.param_points(ts))
    runs = []
    open_first = last_in = -1
    misses = 0
    for i, d in enumerate(dists):
        if d <= d_hat:
            if open_first < 0:
                open_first = i
            last_in = i
            misses = 0
        elif open_first >= 0:
            misses += 1
            if misses > 10 * k:
                runs.append((ts[open_first], ts[last_in]))
                open_first = -1
                misses = 0
    if open_first >= 0:
        runs.append((ts[open_first], ts[last_in]))
    return [r for r in runs if r[1] > r[0]]


def test_shared_segments_match_fine_sweep_oracle_on_random_pairs():
    # Gaps close to k*dt wide may be bridged at the coarse step but split
    # at the fine step, so coarse runs may merge fine runs, never the
    # reverse.  Boundaries must line up with fine boundaries within 2*dt
    # and every resolvable fine run must be covered by a coarse run.
    rng = np.random.default_rng(2026)
    dt = 0.01
    checked = 0
    for noise in [8.0] * 100 + [0.0] * 20:
        base = smooth_polyline(rng, n_pts=30, step=40.0)
        lateral = rng.uniform(5, 60)
        b = wiggle_offset(rng, base, lateral, noise=noise)
        if noise == 0.0:
            # Without noise each vertex lies `lateral` from its base point.
            ts = np.linspace(0, 1, len(b.pts))
            assert np.allclose(
                np.linalg.norm(b.pts - base.param_points(ts), axis=1), lateral)
        got = [s.range_a for s in shared_segments(base, b, d_hat=25.0, dt=dt, k=2)]
        exp = _fine_sweep_oracle(base, b, d_hat=25.0, dt=dt, k=2)
        starts = [r[0] for r in exp]
        ends = [r[1] for r in exp]
        for g0, g1 in got:
            assert any(abs(g0 - s) <= 2 * dt for s in starts), (g0, exp)
            assert any(abs(g1 - e) <= 2 * dt for e in ends), (g1, exp)
        for e0, e1 in exp:
            if e1 - e0 <= 4 * dt:
                continue  # not resolvable at the coarse step
            mid = (e0 + e1) / 2
            assert any(g0 - dt <= mid <= g1 + dt for g0, g1 in got), (exp, got)
            checked += 1
    assert checked > 30  # the family must actually exercise overlaps


# ── offsetting ──────────────────────────────────────────────────────

def test_offset_straight_line():
    p = Polyline([(0, 0), (10, 0)])
    q = offset_polyline(p, 2.0)
    assert q.pts == pytest.approx(np.array([[0.0, 2.0], [10.0, 2.0]]))
    r = offset_polyline(p, -2.0)
    assert r.pts == pytest.approx(np.array([[0.0, -2.0], [10.0, -2.0]]))


def test_offset_l_shape_miter_corner():
    # 90 degree turn: miter ratio sqrt(2) < 2, inner corner lands at (9,1)
    p = Polyline([(0, 0), (10, 0), (10, 10)])
    q = offset_polyline(p, 1.0)
    assert q.pts == pytest.approx(np.array([[0.0, 1.0], [9.0, 1.0], [9.0, 10.0]]))
    r = offset_polyline(p, -1.0)
    assert r.pts == pytest.approx(np.array([[0.0, -1.0], [11.0, -1.0], [11.0, 10.0]]))
    # corner offset distance is sqrt(2) * |delta|
    assert np.linalg.norm(r.pts[1] - [10, 0]) == pytest.approx(math.sqrt(2))


def test_offset_sharp_corner_bevels():
    # 150 degree heading change: miter ratio sqrt(2/(1+cos150)) ~ 3.86 > 2
    ang = math.radians(150)
    p = Polyline([(-10, 0), (0, 0), (10 * math.cos(ang), 10 * math.sin(ang))])
    q = offset_polyline(p, -1.0, miter_limit=2.0)
    assert len(q.pts) == 4  # two bevel points replace the miter


def test_offset_zero_is_identity():
    p = Polyline([(0, 0), (5, 3), (9, 1)])
    q = offset_polyline(p, 0.0)
    assert np.allclose(q.pts, p.pts)


def test_offset_round_trip_on_smooth_curves():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = smooth_polyline(rng, n_pts=30, max_turn=0.2)
        q = offset_polyline(offset_polyline(p, 4.0), -4.0)
        ts = np.linspace(0, 1, 80)
        _, d = q.nearest_many(p.param_points(ts))
        assert float(d.max()) < 0.3  # bounded by curvature second-order terms


def test_offset_spacing_on_smooth_curves():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = smooth_polyline(rng, n_pts=30, max_turn=0.2)
        q = offset_polyline(p, 4.0)
        ts = np.linspace(0.02, 0.98, 100)
        _, d = q.nearest_many(p.param_points(ts))
        assert abs(float(d.min()) - 4.0) < 0.05
        assert abs(float(d.max()) - 4.0) < 0.3


@pytest.mark.parametrize("delta", [8.0, -8.0])
def test_offset_long_zigzag_cleans_every_local_loop(delta):
    # 240 points, x in 10 m steps, y alternating 0 and 30 m: each sharp
    # inner corner leaves a loop, far more than a bounded number of
    # cleanup passes would cut one at a time.
    zigzag = Polyline([(10.0 * i, 30.0 * (i % 2)) for i in range(240)])
    pts = offset_polyline(zigzag, delta).pts
    n = len(pts) - 1
    for i in range(n):
        for j in range(i + 2, min(n, i + 1 + _LOOP_WINDOW)):
            assert count_proper_intersections(pts[i:i + 2], pts[j:j + 2]) == 0


def _proper_intersection_oracle(a0, a1, b0, b1):
    """Scalar reference: crossing point of segments (a0,a1) and (b0,b1)
    when they cross properly, else None."""
    r = a1 - a0
    s = b1 - b0
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < _EPS:
        return None
    q = b0 - a0
    t = (q[0] * s[1] - q[1] * s[0]) / denom
    u = (q[0] * r[1] - q[1] * r[0]) / denom
    if _EPS < t < 1 - _EPS and _EPS < u < 1 - _EPS:
        return a0 + t * r
    return None


def _remove_local_loops_oracle(pts):
    """Scalar reference for the loop cleanup: segment i against segments
    i + 2 through i + _LOOP_WINDOW, one pair at a time; after a cut at i
    the scan resumes at i - _LOOP_WINDOW."""
    i = 0
    while i < len(pts) - 1:
        n = len(pts) - 1
        for j in range(i + 2, min(n, i + 1 + _LOOP_WINDOW)):
            x = _proper_intersection_oracle(pts[i], pts[i + 1], pts[j], pts[j + 1])
            if x is not None:
                pts = np.vstack([pts[: i + 1], [x], pts[j + 1:]])
                i = max(0, i - _LOOP_WINDOW)
                break
        else:
            i += 1
    return pts


def test_loop_cleanup_matches_scalar_oracle_on_noisy_polylines(monkeypatch):
    # Sharp random walks and jittered zigzags leave many loops at these
    # offsets; the cleanup must cut exactly where the pairwise scan does,
    # for one polyline alone and for all of them in offset_many, where
    # one window test per block picks the offsets that have a loop (in
    # blocks as large as the map's and, below, of at most 64 points).
    rng = np.random.default_rng(404)
    shapes = [smooth_polyline(rng, n_pts=int(rng.integers(5, 80)),
                              step=float(rng.uniform(3, 30)), max_turn=2.5)
              for _ in range(30)]
    for _ in range(30):
        n = int(rng.integers(4, 90))
        x = np.cumsum(rng.uniform(2, 15, size=n))
        y = np.where(np.arange(n) % 2 == 1, 20.0, 0.0) + rng.normal(0, 4, size=n)
        shapes.append(Polyline(np.stack([x, y], axis=1)))
    deltas = (2.0, -2.0, 8.0, -8.0)
    batch = iter(geometry.offset_many(shapes, [deltas] * len(shapes)))
    monkeypatch.setattr(geometry, "_PASS_ROWS", 64)
    small = iter(geometry.offset_many(shapes, [deltas] * len(shapes)))
    # the window test sends an offset through the cleanup exactly when
    # the cleanup cuts it, and sends the joins it computed
    seen = []
    real = geometry._remove_local_loops
    monkeypatch.setattr(geometry, "_remove_local_loops",
                        lambda pts: seen.append(pts) or real(pts))
    cuts = 0
    for p in shapes:
        for delta in deltas:
            raw = _offset_joins_oracle(p, delta)
            cleaned = _remove_local_loops_oracle(raw)
            assert np.array_equal(real(raw), cleaned)
            exp = Polyline(cleaned).pts
            seen.clear()
            assert np.array_equal(offset_polyline(p, delta).pts, exp)
            if len(raw) > len(cleaned):
                ((sent,),) = [seen]
                assert np.array_equal(sent, raw)
            else:
                assert not seen
            assert np.array_equal(next(batch).pts, exp)
            assert np.array_equal(next(small).pts, exp)
            cuts += len(raw) > len(cleaned)
    assert cuts > 100  # the family must actually exercise the cleanup


def _offset_joins_oracle(p, delta, miter_limit=2.0):
    """The joins of offset_polyline before the loop cleanup: one miter
    or bevel join per interior vertex in a Python loop."""
    pts = p.pts
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    dirs = seg / seg_len[:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    out = [pts[0] + delta * normals[0]]
    for i in range(1, len(pts) - 1):
        n1, n2 = normals[i - 1], normals[i]
        dot = float(n1 @ n2)
        if dot < -1.0 + 1e-6:
            out.append(pts[i] + delta * n1)
            out.append(pts[i] + delta * n2)
            continue
        miter_ratio = math.sqrt(2.0 / (1.0 + dot)) if dot < 1.0 else 1.0
        if miter_ratio > miter_limit:
            out.append(pts[i] + delta * n1)
            out.append(pts[i] + delta * n2)
        else:
            out.append(pts[i] + delta * (n1 + n2) / (1.0 + dot))
    out.append(pts[-1] + delta * normals[-1])
    return np.asarray(out)


def _offset_polyline_oracle(p, delta, miter_limit=2.0):
    """Scalar reference for offset_polyline: one miter or bevel join per
    interior vertex in a Python loop."""
    if abs(delta) < _EPS:
        return Polyline(p.pts.copy())
    raw = _offset_joins_oracle(p, delta, miter_limit)
    return Polyline(_remove_local_loops_oracle(raw))


def test_offset_matches_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(1717)
    shapes = []
    for _ in range(25):
        base = smooth_polyline(rng, n_pts=int(rng.integers(3, 70)),
                               step=float(rng.uniform(3, 40)),
                               max_turn=float(rng.uniform(0.1, 2.5)))
        shapes += [base, wiggle_offset(rng, base, 6.0, noise=2.0)]
    shapes += [
        # zigzags past the miter limit
        Polyline([(10.0 * i, 30.0 * (i % 2)) for i in range(40)]),
        Polyline([(3.0 * i, 7.0 * (i % 2)) for i in range(25)]),
        # exact and near hairpins
        Polyline([(0, 0), (100, 0), (0, 0)]),
        Polyline([(0, 0), (100, 0), (0, 1e-7)]),
        Polyline([(0, 0), (100, 0), (0, -1e-7), (50, 30)]),
        Polyline([(5, 5), (5, 80), (5, 20), (60, 20)]),
        # collinear runs
        Polyline([(0, 0), (10, 0), (25, 0), (26, 0), (40, 0)]),
        Polyline([(0, 0), (1, 1), (2, 2), (7, 7), (7, 20), (7, 21)]),
        # two points
        Polyline([(0, 0), (3, 4)]),
    ]
    bevels = hairpins = 0
    for p in shapes:
        n = p.pts[1:] - p.pts[:-1]
        n /= np.linalg.norm(n, axis=1)[:, None]
        dot = np.sum(n[:-1] * n[1:], axis=1)
        hairpins += int(np.sum(dot < -1.0 + 1e-6))
        bevels += int(np.sum(dot < -0.5))  # miter ratio past 2
        for delta in (0.0, 1.5, -1.5, 6.0, -6.0, 20.0, -20.0):
            got = offset_polyline(p, delta).pts
            assert np.array_equal(got, _offset_polyline_oracle(p, delta).pts)
    assert bevels > 50 and hairpins >= 3  # the family must exercise both


def test_frame_at_matches_param_point_and_a_tangent_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = smooth_polyline(rng, n_pts=int(rng.integers(2, 50)),
                            step=float(rng.uniform(0.5, 50)), max_turn=1.5)
        ts = np.concatenate([[-0.5, 0.0, 1.0, 1.5, 1e-12, 1.0 - 1e-12],
                             rng.uniform(0, 1, 40),
                             p._cum / p.length])  # exact vertex parameters
        for t in ts.tolist():
            x, y, tx, ty = p.frame_at(t)
            assert np.array_equal([x, y], p.param_point(t))
            s = min(max(t, 0.0), 1.0) * p.length
            i = min(max(int(np.searchsorted(p._cum, s, side="right")) - 1, 0),
                    len(p.pts) - 2)
            d = p.pts[i + 1] - p.pts[i]
            assert np.array_equal([tx, ty], d / max(np.linalg.norm(d), _EPS))
            # arriving: on a vertex, the segment that ends there
            x, y, tx, ty = p.frame_at(t, arriving=True)
            j = min(max(int(np.searchsorted(p._cum, s, side="left")) - 1, 0),
                    len(p.pts) - 2)
            d = p.pts[j + 1] - p.pts[j]
            assert np.array_equal([tx, ty], d / max(np.linalg.norm(d), _EPS))
            assert np.allclose([x, y], p.param_point(t), rtol=0, atol=1e-9)
            assert j == i or (j == i - 1 and s == p._cum[i])


def test_polyline_stack_frames_and_cuts_match_polyline_methods(monkeypatch):
    # one pass over many polylines gives frame_at's frames and sub's
    # points bit for bit, with sub's near-duplicate points dropped; so
    # does cut_many in blocks of at most 100 points
    monkeypatch.setattr(geometry, "_PASS_ROWS", 100)
    rng = np.random.default_rng(919)
    paths = [smooth_polyline(rng, n_pts=int(rng.integers(2, 50)),
                             step=float(rng.uniform(0.5, 50)), max_turn=1.5)
             for _ in range(40)]
    paths += [Polyline([(0, 0), (100, 0), (0, 0)]),
              Polyline([(0, 0), (1e-8, 0), (5, 5)]),
              Polyline([(0, 0), (3, 4)])]
    stack = geometry.PolylineStack(paths)
    rows, ts = [], []
    for k, p in enumerate(paths):
        mine = np.concatenate([[0.0, 1.0, 1e-12, 1.0 - 1e-12],
                               rng.uniform(0, 1, 10), p._cum / p.length])
        rows += [k] * len(mine)
        ts += mine.tolist()
    x, y, tx, ty = stack.frames(np.array(rows), np.array(ts))
    for k, (row, t) in enumerate(zip(rows, ts)):
        assert paths[row].frame_at(t) == (x[k], y[k], tx[k], ty[k])
    arriving = rng.random(len(rows)) < 0.5
    x, y, tx, ty = stack.frames(np.array(rows), np.array(ts), arriving)
    for k, (row, t, arr) in enumerate(zip(rows, ts, arriving.tolist())):
        assert paths[row].frame_at(t, arr) == (x[k], y[k], tx[k], ty[k])
    dropped = 0
    for _ in range(20):
        t0 = rng.uniform(0.0, 0.5, len(paths))
        t1 = t0 + rng.uniform(1e-6, 0.5, len(paths))
        for k, p in enumerate(paths):
            if rng.random() < 0.3 and len(p.pts) > 2:
                # a cut end within _EPS of a vertex: sub drops a point
                v = float(p._cum[1] / p.length)
                t0[k], t1[k] = min(v - 1e-13, 0.5), 1.0
        blocked = geometry.cut_many(paths, t0, t1)
        for p, cut, other, a, b in zip(paths, stack.cut(t0, t1), blocked,
                                       t0.tolist(), t1.tolist()):
            want = p.sub(a, b).pts
            assert np.array_equal(cut, want)
            assert np.array_equal(other, want)
            s0, s1 = a * p.length, b * p.length
            dropped += len(want) < 2 + int(np.searchsorted(p._cum, s1, "left")
                                           - np.searchsorted(p._cum, s0, "right"))
    assert dropped > 20
    with pytest.raises(DegenerateSegment):
        stack.cut(np.full(len(paths), 0.5), np.full(len(paths), 0.5))


# ── averaging ───────────────────────────────────────────────────────

def test_average_path_concentric_arcs():
    th = np.linspace(0, math.pi / 2, 64)
    inner = Polyline(np.stack([90 * np.cos(th), 90 * np.sin(th)], axis=1))
    outer = Polyline(np.stack([110 * np.cos(th), 110 * np.sin(th)], axis=1))
    mid = average_path(inner, outer, step=5.0)
    radii = np.linalg.norm(mid.pts, axis=1)
    assert np.max(np.abs(radii - 100.0)) < 0.1


def test_average_path_requires_consistent_orientation():
    a = Polyline([(0, 0), (100, 0)])
    b = Polyline([(0, 10), (100, 10)])
    mid = average_path(a, b)
    assert mid.start == pytest.approx([0.0, 5.0])
    assert mid.end == pytest.approx([100.0, 5.0])


# ── intersection counting ───────────────────────────────────────────

def test_count_proper_intersections():
    x = np.array([[0.0, 0.0], [10.0, 10.0]])
    y = np.array([[0.0, 10.0], [10.0, 0.0]])
    assert count_proper_intersections(x, y) == 1
    parallel = np.array([[0.0, 1.0], [10.0, 11.0]])
    assert count_proper_intersections(x, parallel) == 0
    # shared endpoint is not a transversal crossing
    v = np.array([[0.0, 0.0], [10.0, -5.0]])
    assert count_proper_intersections(x, v) == 0
    # S-curves crossing twice
    s1 = np.array([[0.0, 0.0], [5.0, 4.0], [10.0, 0.0]])
    s2 = np.array([[0.0, 2.0], [5.0, -2.0], [10.0, 2.0]])
    assert count_proper_intersections(s1, s2) == 2


# ── the batched, blocked nearest-segment kernel ─────────────────────

def test_polyline_reuses_segment_lengths_only_without_drops():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = rng.normal(size=(int(rng.integers(2, 40)), 2)) * 100
        if rng.random() < 0.5:  # repeated points, dropped on construction
            i = rng.integers(len(pts), size=3)
            pts = np.insert(pts, i, pts[i], axis=0)
        p = Polyline(pts)
        seg = np.linalg.norm(np.diff(p.pts, axis=0), axis=1)
        assert np.array_equal(p._cum, np.concatenate(([0.0], np.cumsum(seg))))


def _pass_matches_nearest_many(pairs, radius):
    """nearest_pass over pairs of (qs, polyline) equals each polyline's
    nearest_many(qs, radius), bit for bit; returns the pass's results."""
    got = list(geometry.nearest_pass(pairs, radius))
    assert len(got) == len(pairs)
    for (qs, p), (tb, dist) in zip(pairs, got):
        exp_tb, exp_dist = p.nearest_many(qs, radius)
        assert np.array_equal(tb, exp_tb, equal_nan=True)
        assert np.array_equal(dist, exp_dist)
    return got


def test_nearest_pass_equals_nearest_many_per_pair():
    rng = np.random.default_rng(77)
    for _ in range(40):
        base = smooth_polyline(rng, n_pts=int(rng.integers(2, 60)),
                               step=float(rng.uniform(3.0, 40.0)))
        paths = [wiggle_offset(rng, base, float(rng.uniform(-40, 40)),
                               noise=float(rng.uniform(0, 10)))
                 for _ in range(int(rng.integers(1, 6)))]
        paths += [base, Polyline([base.start, base.end])]  # one segment
        sweeps = [p.param_points(np.linspace(0, 1, int(rng.integers(0, 300))))
                  for p in paths]
        # random pairs: a target in many pairs, sweeps against themselves
        pairs = [(sweeps[i], paths[j]) for i, j in
                 rng.integers(len(paths), size=(int(rng.integers(1, 30)), 2))]
        _pass_matches_nearest_many(pairs, float(rng.uniform(1.0, 40.0)))


def test_nearest_pass_ties_radius_and_far_queries():
    v = Polyline([(-10.0, 10.0), (0.0, 0.0), (10.0, 10.0)])
    line = Polyline([(0.0, 0.0), (100.0, 0.0)])
    far = Polyline([(1000.0, 1000.0), (1100.0, 1000.0)])
    qs = np.array([[0.0, 5.0],         # 12.5 squared from both legs of v
                   [50.0, 25.0],       # exactly d_hat from line
                   [-25.0, 0.0],       # exactly d_hat from line's end
                   [50.0, 25.0 + 1e-9],
                   [500.0, 500.0]])
    # a pair of more cells than a block holds, between two small ones
    long = Polyline(np.stack([np.linspace(0.0, 1e4, 20001), np.zeros(20001)], 1))
    assert 20000 * 3 > geometry._BLOCK_CELLS // geometry._CHUNK
    got = _pass_matches_nearest_many(
        [(qs, v), (qs, line), (qs, far), (qs[:1], v), (qs[3:], line),
         (qs * 10, long), (qs, v)], 25.0)
    (tv, dv), (tl, dl), (tf, df) = got[:3]
    assert tv[0] == 0.375 and dv[0] ** 2 == pytest.approx(12.5)  # first leg
    assert list(dl[1:3]) == [25.0, 25.0] and list(tl[1:3]) == [0.5, 0.0]
    assert np.isnan(tl[3:]).all() and np.isinf(dl[3:]).all()
    assert np.isnan(tf).all() and np.isinf(df).all()  # boxes do not meet


def test_nearest_pass_segment_groups_match_nearest_many_at_their_ends():
    # Straight targets of 1 to 3 * _CHUNK + 1 segments of 10 m, 100 m
    # apart, all in one block, so that segment groups end inside a
    # target and at the boundary between two.  The queries sit exactly
    # the radius off each segment's middle and each vertex (a tie of two
    # segments), and before the start and past the end, with one just
    # beyond the radius; each target is also swept by the queries of
    # every other.
    c, radius = geometry._CHUNK, 5.0
    counts = (1, c - 1, c, c + 1, 2 * c, 2 * c + 3, 3 * c + 1)
    paths, sweeps = [], []
    for k, n in enumerate(counts):
        y = 100.0 * k
        paths.append(Polyline(np.column_stack((np.arange(n + 1) * 10.0,
                                               np.full(n + 1, y)))))
        xs = np.arange(2 * n + 1) * 5.0
        sweeps.append(np.concatenate([
            np.column_stack((xs, np.full(len(xs), y + radius))),
            [(-radius, y), (10.0 * n + radius, y),
             (10.0 * n + radius + 1e-9, y), (5.0, y - radius - 1e-9)]]))
    pairs = [(q, p) for q in sweeps for p in paths]
    assert sum(-(-len(q) // c) * (len(p.pts) - 1) + len(q)
               for q, p in pairs) <= geometry._BLOCK_CELLS // c  # one block
    got = _pass_matches_nearest_many(pairs, radius)
    for k, n in enumerate(counts):
        tb, dist = got[k * len(paths) + k]  # each target by its own queries
        assert (dist[:-2] == radius).all() and np.isinf(dist[-2:]).all()
        assert np.array_equal(tb[:2 * n + 1], np.arange(2 * n + 1) / (2 * n))
        assert list(tb[2 * n + 1:2 * n + 3]) == [0.0, 1.0]


@pytest.mark.parametrize("block_rows", [None, 64])
def test_polyline_many_equals_polyline_per_run(block_rows, monkeypatch):
    if block_rows is not None:  # many blocks, and runs longer than one
        monkeypatch.setattr(geometry, "_PASS_ROWS", block_rows)
    rng = np.random.default_rng(11)
    runs = []
    for _ in range(200):
        pts = rng.normal(size=(int(rng.integers(2, 30)), 2)) * 100
        if rng.random() < 0.4:  # repeated points
            i = rng.integers(len(pts), size=3)
            pts = np.insert(pts, i, pts[i], axis=0)
        if rng.random() < 0.4:  # points within _EPS of the one before
            i = rng.integers(len(pts), size=2)
            pts = np.insert(pts, i, pts[i] + 0.3 * _EPS, axis=0)
        runs.append(pts)
    # runs that start where the run before ends, as edges at one node,
    # a run of lists and a run of integers
    runs += [runs[-1][-2:], [(1.0, 2.0), (3.0, 4.0)], np.array([[0, 0], [3, 4]])]
    for run, p in zip(runs, Polyline.many(runs)):
        q = Polyline(run)
        assert np.array_equal(p.pts, q.pts) and np.array_equal(p._cum, q._cum)
        assert not p.pts.flags.writeable and p.pts.base is None
    assert Polyline.many([]) == []
    collapse = [(1.0, 1.0), (1.0, 1.0 + 0.5 * _EPS), (1.0 + 0.5 * _EPS, 1.0)]
    for bad in (collapse, [(1.0, 1.0)], np.zeros((0, 2)),
                [(0.0, 0.0), (math.nan, 1.0)], [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]):
        with pytest.raises(DegenerateSegment) as want:
            Polyline(bad)
        with pytest.raises(DegenerateSegment) as got:
            Polyline.many([runs[0], bad, runs[1]])
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block_rows", [None, 64])
def test_box_spans_match_a_loop_oracle_and_hold_every_near_point(block_rows,
                                                                 monkeypatch):
    from oracles import box_spans_by_loop
    if block_rows is not None:  # many blocks, and sweeps longer than one
        monkeypatch.setattr(geometry, "_PASS_ROWS", block_rows)
    rng = np.random.default_rng(3030)
    radius = 25.0
    sweeps, targets = [], []
    for _ in range(80):
        a = smooth_polyline(rng, n_pts=int(rng.integers(2, 30)),
                            step=float(rng.uniform(2, 40)), max_turn=0.8)
        start = a.param_point(rng.uniform()) + rng.normal(0, 30, 2)
        b = smooth_polyline(rng, n_pts=int(rng.integers(2, 30)),
                            step=float(rng.uniform(2, 40)), max_turn=0.8,
                            start=start)
        sweeps.append(geometry.sweep_points(a, min(0.5, 5.0 / a.length)))
        targets.append(b)
    # one point on each side of the padded box of (0, 0) - (100, 0), then
    # just past it, and a sweep with its first and last point on the box
    pad = radius + geometry._BOX_SLACK
    ts = np.array([0.0, 0.5, 1.0])
    sides = [(-pad, 0.0), (100.0 + pad, 0.0), (50.0, -pad), (50.0, pad)]
    out = np.nextafter([-pad, 100.0 + pad, -pad, pad], [-99, 999, -99, 99])
    past = [(out[0], 0.0), (out[1], 0.0), (50.0, out[2]), (50.0, out[3])]
    ends = [(-pad, -pad), (50.0, 100.0), (100.0 + pad, pad)]
    runs = [[(50.0, 300.0), xy, (50.0, 300.0)] for xy in sides + past] + [ends]
    sweeps += [(ts, np.array(run)) for run in runs]
    targets += [Polyline([(0.0, 0.0), (100.0, 0.0)])] * len(runs)
    boxes = np.array([b.bbox() for b in targets])
    spans = geometry.box_spans(sweeps, boxes, radius)
    assert spans.tolist() == box_spans_by_loop(sweeps, boxes, radius)
    assert spans[-9:].tolist() == [0.0] * 4 + [-math.inf] * 4 + [1.0]
    assert np.isfinite(spans).sum() > 40 and np.isinf(spans).sum() > 10
    # every sweep point within radius lies between the first and the last
    # point in the box, so every run shared_segments finds spans less
    for (ts, pts), b, span in zip(sweeps, targets, spans.tolist()):
        near = np.flatnonzero(b.nearest_many(pts, radius)[1] <= radius)
        if len(near):
            assert ts[near[-1]] - ts[near[0]] <= span


def test_nearest_pass_blocks_bound_memory_and_match_split_calls():
    # 3000 pairs over 40 polylines, 5 * 10^7 (query, segment) cells in
    # all; the results of one pass are hashed as they come, so only the
    # pass itself holds memory.
    rng = np.random.default_rng(31)
    base = smooth_polyline(rng, n_pts=120, step=10.0, max_turn=0.05)
    paths = [wiggle_offset(rng, base, float(rng.uniform(-30, 30)), noise=2.0)
             for _ in range(40)]
    sweeps = [p.param_points(np.linspace(0, 1, 240)) for p in paths]
    pairs = [(sweeps[i], paths[j])
             for i, j in rng.integers(len(paths), size=(3000, 2))]
    assert sum(len(q) * (len(p.pts) - 1) for q, p in pairs) > 5e7

    def digest(results) -> str:
        h = hashlib.sha256()
        for tb, dist in results:
            h.update(tb.tobytes())
            h.update(dist.tobytes())
        return h.hexdigest()

    tracemalloc.start()
    try:
        whole = digest(geometry.nearest_pass(pairs, 25.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    split = digest(r for i in range(0, len(pairs), 700)
                   for r in geometry.nearest_pass(pairs[i:i + 700], 25.0))
    assert whole == split
    one = digest(r for pair in pairs[:50]
                 for r in geometry.nearest_pass([pair], 25.0))
    assert one == digest(geometry.nearest_pass(pairs[:50], 25.0))


def test_shared_segments_runs_match_loop_oracle_on_random_pairs():
    rng = np.random.default_rng(2027)
    runs = 0
    for noise in [12.0] * 150 + [0.0] * 30:
        a = smooth_polyline(rng, n_pts=30, step=40.0)
        b = wiggle_offset(rng, a, float(rng.uniform(5, 40)), noise=noise)
        if rng.random() < 0.5:
            a, b = b, a
        k = int(rng.integers(0, 4))
        min_len = float(rng.choice([0.0, 50.0]))
        got = shared_segments(a, b, d_hat=25.0, dt=0.01, k=k, min_len=min_len)
        assert got == shared_segments_by_loop(a, b, 25.0, 0.01, k, min_len)
        runs += len(got)
    assert runs > 150


@pytest.mark.parametrize("k", [0, 2, 3])
def test_outlier_gaps_of_k_and_k_plus_one_steps(k):
    # a runs along y=0 from x=-100 to 1100 with a sweep point every 5 m;
    # b runs along y=10 but jogs out to y=60 between x=400 and x=x2.
    # A sweep point within sqrt(525) = 22.9 m (in x) of a jog is within
    # d_hat = 25 of b, so x = 425, 430, ..., x2 - 25 are the outliers.
    a = Polyline([(-100, 0), (1100, 0)])
    for outliers in (k, k + 1):
        x2 = 445 + 5 * outliers
        b = Polyline([(0, 10), (400, 10), (400, 60), (x2, 60), (x2, 10),
                      (1000, 10)])
        ts, pts = geometry.sweep_points(a, 5.0 / a.length)
        _, dist = b.nearest_many(pts, radius=25.0)
        gap = (pts[:, 0] > 400) & (pts[:, 0] < x2)
        assert int((dist[gap] > 25.0).sum()) == outliers
        got = shared_segments(a, b, 25.0, 5.0 / a.length, k=k)
        assert got == shared_segments_by_loop(a, b, 25.0, 5.0 / a.length, k)
        assert len(got) == (1 if outliers <= k else 2)


def test_blocked_nearest_many_bounds_memory_and_matches_chunks():
    # 20 000 collinear queries against a 20 000-segment polyline: one
    # dense box test would be 4 * 10^8 cells.
    n = 20_000
    xs = np.linspace(0.0, 1e5, n + 1)
    p = Polyline(np.stack([xs, np.zeros(n + 1)], axis=1))
    qs = np.stack([np.linspace(-50.0, 1.0005e5, n), np.full(n, 3.0)], axis=1)
    tracemalloc.start()
    try:
        tb, dist = p.nearest_many(qs, radius=25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    chunk = geometry._BLOCK_CELLS // n  # each chunk is one block
    parts = [p.nearest_many(qs[i:i + chunk], radius=25.0)
             for i in range(0, n, chunk)]
    assert np.array_equal(tb, np.concatenate([t for t, _ in parts]), equal_nan=True)
    assert np.array_equal(dist, np.concatenate([d for _, d in parts]))
    assert np.isnan(tb[:1]).all() and np.isfinite(tb[100:-100]).all()


def test_unbounded_nearest_many_equals_every_pair_projected():
    # no radius means an infinite pad: the box tests pass every (query,
    # segment) pair, so the result is that of projecting all of them
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(2, 2000))
        p = Polyline(np.cumsum(rng.normal(0.0, 10.0, (n, 2)), axis=0))
        qs = rng.uniform(p.pts.min(axis=0) - 100, p.pts.max(axis=0) + 100,
                         (int(rng.integers(1, 300)), 2))
        tab = geometry._segment_table([p])
        qi = np.repeat(np.arange(len(qs)), len(tab))
        si = np.tile(np.arange(len(tab)), len(qs))
        ts, ds = np.full(len(qs), np.nan), np.full(len(qs), np.inf)
        geometry._settle(*geometry._project(qs, tab, qi, si), tab, ts, ds)
        got_ts, got_ds = p.nearest_many(qs)
        assert np.array_equal(got_ts, ts) and np.array_equal(got_ds, ds)


def test_unbounded_nearest_many_blocks_by_query_count():
    rng = np.random.default_rng(9)
    p = smooth_polyline(rng, n_pts=3000, step=2.0)
    qs = rng.uniform(-500, 500, size=(400, 2))
    tb, dist = p.nearest_many(qs)
    assert len(list(geometry._pair_blocks(qs, geometry._segment_table([p]),
                                          None))) > 1
    for i in range(0, len(qs), 37):
        t1, d1 = p.nearest_many(qs[i:i + 1])
        assert t1[0] == tb[i] and d1[0] == dist[i]
