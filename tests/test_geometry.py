"""Geometry oracles: arc-length parametrization, nearest-point queries,
shared-segment sweeps, offsets, and averaging.

Derived expected values are frozen from independent computations noted at
each test; sweep results are cross-checked against a fine-grained oracle
written directly in this file.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from transitmap import geometry
from transitmap.errors import DegenerateSegment
from transitmap.geometry import (
    _EPS,
    _LOOP_WINDOW,
    Polyline,
    average_path,
    count_proper_intersections,
    offset_polyline,
    shared_segments,
)
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
    for _ in range(100):
        base = smooth_polyline(rng, n_pts=30, step=40.0)
        lateral = rng.uniform(5, 60)
        b = wiggle_offset(rng, base, lateral, noise=8.0)
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
    # offsets; the cleanup must cut exactly where the pairwise scan does.
    seen = []
    real = geometry._remove_local_loops

    def spy(pts):
        seen.append((pts, real(pts)))
        return seen[-1][1]

    monkeypatch.setattr(geometry, "_remove_local_loops", spy)
    rng = np.random.default_rng(404)
    shapes = [smooth_polyline(rng, n_pts=int(rng.integers(5, 80)),
                              step=float(rng.uniform(3, 30)), max_turn=2.5)
              for _ in range(30)]
    for _ in range(30):
        n = int(rng.integers(4, 90))
        x = np.cumsum(rng.uniform(2, 15, size=n))
        y = np.where(np.arange(n) % 2 == 1, 20.0, 0.0) + rng.normal(0, 4, size=n)
        shapes.append(Polyline(np.stack([x, y], axis=1)))
    cuts = 0
    for p in shapes:
        for delta in (2.0, -2.0, 8.0, -8.0):
            seen.clear()
            got = offset_polyline(p, delta).pts
            ((raw, cleaned),) = seen
            exp = _remove_local_loops_oracle(raw)
            assert np.array_equal(cleaned, exp)
            assert np.array_equal(got, Polyline(exp).pts)
            cuts += len(raw) > len(exp)
    assert cuts > 100  # the family must actually exercise the cleanup


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
