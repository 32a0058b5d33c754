"""Tests for regression fits, the geometric approach, and multilateration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import Observation
from repro.algorithms.geometric import GeometricLocalizer
from repro.algorithms.multilateration import (
    MultilaterationLocalizer,
    residual_rms,
    solve_multilateration,
)
from repro.algorithms.regression import (
    fit_inverse_square,
    fit_log_distance,
    fit_per_ap,
)
from repro.core.geometry import Circle, Point, best_circle_intersection, median_point
from repro.core.trainingdb import LocationRecord, TrainingDatabase
from repro.radio.pathloss import dbm_to_ss_units

B = [f"02:00:00:00:00:{i:02x}" for i in range(4)]
AP_POS = {
    B[0]: Point(0, 0),
    B[1]: Point(50, 0),
    B[2]: Point(50, 40),
    B[3]: Point(0, 40),
}


def ideal_db(noise=0.0, seed=0, grid_step=10.0):
    """Training db generated from a known inverse-square law (SS units)."""
    rng = np.random.default_rng(seed)
    records = []
    y = 0.0
    while y <= 40.0:
        x = 0.0
        while x <= 50.0:
            row = []
            for b in B:
                ap = AP_POS[b]
                d = max(Point(x, y).distance_to(ap), 1.0)
                ss = 2000.0 / d**2 + 300.0 / d + 10.0
                rssi = ss - 100.0  # invert dbm_to_ss_units
                row.append(rssi)
            samples = np.tile(row, (5, 1)) + rng.normal(0, noise, (5, 4))
            records.append(
                LocationRecord(f"g{x:g}-{y:g}", Point(x, y), samples.astype(np.float32))
            )
            x += grid_step
        y += grid_step
    return TrainingDatabase(B, records)


def ideal_observation(x, y):
    row = []
    for b in B:
        d = max(Point(x, y).distance_to(AP_POS[b]), 1.0)
        ss = 2000.0 / d**2 + 300.0 / d + 10.0
        row.append(ss - 100.0)
    return Observation(np.array([row]))


class TestFitInverseSquare:
    def test_recovers_exact_coefficients(self):
        d = np.linspace(2, 80, 40)
        ss = 1234.0 / d**2 + 56.0 / d + 7.8
        fit = fit_inverse_square(d, ss)
        assert fit.model.a == pytest.approx(1234.0, rel=1e-6)
        assert fit.model.b == pytest.approx(56.0, rel=1e-6)
        assert fit.model.c == pytest.approx(7.8, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.rmse == pytest.approx(0.0, abs=1e-9)

    def test_r_squared_drops_with_noise(self):
        rng = np.random.default_rng(0)
        d = np.linspace(2, 80, 60)
        clean = 1000.0 / d**2 + 100.0 / d + 20.0
        noisy = clean + rng.normal(0, 5.0, d.shape)
        fit = fit_inverse_square(d, noisy)
        assert 0.3 < fit.r_squared < 1.0
        assert fit.rmse > 1.0

    def test_nan_pairs_dropped(self):
        d = np.array([2.0, 5.0, np.nan, 10.0, 20.0])
        ss = np.array([100.0, 40.0, 30.0, np.nan, 10.0])
        fit = fit_inverse_square(d, ss)
        assert fit.n_points == 3

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_inverse_square(np.array([1.0, 2.0]), np.array([5.0, 3.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_inverse_square(np.zeros(3), np.zeros(4))

    def test_formula_string(self):
        fit = fit_inverse_square(np.linspace(2, 50, 10), 100 / np.linspace(2, 50, 10))
        assert fit.formula().startswith("SS = ")


class TestFitLogDistance:
    def test_recovers_parameters(self):
        d = np.linspace(3, 100, 30)
        rssi = -30.0 - 10 * 2.8 * np.log10(d)
        fit = fit_log_distance(d, rssi)
        assert fit.p0_dbm == pytest.approx(-30.0, abs=1e-6)
        assert fit.exponent == pytest.approx(2.8, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_invert_roundtrip(self):
        fit = fit_log_distance(np.linspace(3, 100, 20), -30 - 28 * np.log10(np.linspace(3, 100, 20)))
        assert float(fit.invert(fit.rssi(np.array([42.0])))[0]) == pytest.approx(42.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_log_distance(np.array([5.0]), np.array([-50.0]))


class TestFitPerAp:
    def test_fits_every_known_ap(self):
        db = ideal_db()
        fits = fit_per_ap(db, AP_POS)
        assert set(fits) == set(B)
        for fit in fits.values():
            assert fit.r_squared > 0.999

    def test_unknown_aps_skipped(self):
        db = ideal_db()
        fits = fit_per_ap(db, {B[0]: AP_POS[B[0]]})
        assert set(fits) == {B[0]}

    def test_bounds_follow_survey_range(self):
        db = ideal_db()
        fit = fit_per_ap(db, AP_POS)[B[0]]
        # Max training distance from (0,0) is the far corner ≈ 64 ft.
        assert fit.model.max_distance_ft == pytest.approx(1.5 * np.hypot(50, 40), rel=1e-6)


class TestGeometricLocalizer:
    def test_near_perfect_on_clean_channel(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        for x, y in ((25.0, 20.0), (12.0, 8.0), (40.0, 30.0)):
            est = loc.locate(ideal_observation(x, y))
            assert est.valid
            assert est.position.distance_to(Point(x, y)) < 1.5

    def test_distance_estimates_accurate_clean(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        d = loc.estimate_distances(ideal_observation(25, 20))
        true = Point(25, 20)
        for b, dist in d.items():
            assert dist == pytest.approx(true.distance_to(AP_POS[b]), rel=0.05)

    def test_ring_pairing_four_intersections(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        est = loc.locate(ideal_observation(25, 20))
        assert len(est.details["intersections"]) == 4  # paper's P1..P4

    def test_insufficient_aps_invalid(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        o = Observation(np.array([[-50.0, -55.0, np.nan, np.nan]]))
        est = loc.locate(o)
        assert not est.valid
        assert "2 ranged" in est.details["reason"]

    def test_aggregator_variants(self):
        db = ideal_db(noise=2.0)
        for agg in ("median", "geometric_median", "centroid"):
            loc = GeometricLocalizer(AP_POS, aggregator=agg).fit(db)
            est = loc.locate(ideal_observation(25, 20))
            assert est.valid
            assert est.position.distance_to(Point(25, 20)) < 15

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricLocalizer({})
        with pytest.raises(ValueError):
            GeometricLocalizer(AP_POS, aggregator="mode")
        with pytest.raises(ValueError):
            GeometricLocalizer(AP_POS, min_aps=2)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GeometricLocalizer(AP_POS).locate(ideal_observation(0, 0))

    def test_fits_property(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        assert set(loc.fits) == set(B)

    def test_column_mismatch(self):
        loc = GeometricLocalizer(AP_POS).fit(ideal_db())
        with pytest.raises(ValueError):
            loc.estimate_distances(Observation(np.zeros((1, 2)) - 50))


# TWIN shares B[1]'s position: in ring order the pair (B[1], TWIN) is
# concentric and has no usable point.  WEST/EAST mirror each other
# across the line through B[0] and B[3], so for that pair the two
# crossing points can tie exactly on their residual score.
TWIN, WEST, EAST = "02:00:00:00:00:09", "02:00:00:00:00:0a", "02:00:00:00:00:0b"
RING_B = [B[0], B[1], TWIN, B[2], B[3], WEST, EAST]
RING_POS = {**AP_POS, TWIN: AP_POS[B[1]], WEST: Point(-40, 20), EAST: Point(40, 20)}


def ring_db():
    """A clean inverse-square survey of the ring APs."""
    records = []
    for y in np.arange(0.0, 41.0, 10.0):
        for x in np.arange(0.0, 51.0, 10.0):
            d = np.array([max(Point(x, y).distance_to(RING_POS[b]), 1.0) for b in RING_B])
            ss = 2000.0 / d**2 + 300.0 / d + 10.0
            records.append(
                LocationRecord(f"g{x:g}-{y:g}", Point(x, y), np.tile(ss - 100.0, (3, 1)))
            )
    return TrainingDatabase(RING_B, records)


def ranged_rows(*rows):
    """Observations that carry their distance rows (NaN = AP not heard)."""
    return [Observation(np.array([row], dtype=float), bssids=RING_B) for row in rows]


class _PassThrough:
    """Ranging stand-in: an observation's "dBm" row is its distance row."""

    def __init__(self, packed):
        self.bssids = packed.bssids

    def distances(self, obs_rows):
        return obs_rows


def ranged(loc):
    """Feed chosen distances straight into a fitted localizer's Phase 2."""
    loc._packed = _PassThrough(loc._packed)
    return loc


def reference_position(row):
    """The scalar construction: ring pairs through ``best_circle_intersection``,
    the residual-scored candidate, then ``median_point``."""
    circles = [
        Circle(RING_POS[b], r) for b, r in zip(RING_B, row) if np.isfinite(r)
    ]
    n = len(circles)
    points = []
    for i in range(n):
        c1, c2 = circles[i], circles[(i + 1) % n]
        others = [circles[k] for k in range(n) if k not in (i, (i + 1) % n)]
        candidates = best_circle_intersection(c1, c2)
        if not candidates:
            continue
        points.append(
            min(
                candidates,
                key=lambda p: sum(abs(c.center.distance_to(p) - c.radius) for c in others),
            )
        )
    return median_point(points), points


class TestGeometricArrayKernel:
    NAN = np.nan
    TRUE = Point(25.0, 20.0)
    ROWS = [
        # 4-AP mask, every pair crossing twice
        [TRUE.distance_to(AP_POS[B[0]]), TRUE.distance_to(AP_POS[B[1]]), NAN,
         TRUE.distance_to(AP_POS[B[2]]), TRUE.distance_to(AP_POS[B[3]]), NAN, NAN],
        # same mask, noisy radii: grouped with the row above
        [30.0, 35.0, NAN, 28.0, 33.0, NAN, NAN],
        # 4-AP mask, B[1]'s circle nested inside B[0]'s (80 > 10 + 50)
        [80.0, 10.0, NAN, 30.0, 45.0, NAN, NAN],
        # 3-AP mask: (B0, B1) tangent (20 + 30 = 50), (B1, B3) separate,
        # (B3, B0) crossing
        [20.0, 30.0, NAN, NAN, 25.0, NAN, NAN],
        # 5-AP mask with the concentric pair (B1, TWIN)
        [20.0, 35.0, 30.0, 25.0, 30.0, NAN, NAN],
        # (B0, B3) cross at (-15, 20) and (15, 20), whose residuals
        # against WEST and EAST tie exactly (15 + 35 = 45 + 5): the
        # first point wins, as in the scalar helpers' loop
        [25.0, NAN, NAN, NAN, 25.0, 10.0, 20.0],
        # 2 heard: too few for a ring
        [20.0, NAN, NAN, 25.0, NAN, NAN, NAN],
    ]

    @pytest.fixture(scope="class")
    def loc(self):
        return ranged(GeometricLocalizer(RING_POS).fit(ring_db()))

    def test_batch_matches_scalar_helpers(self, loc):
        estimates = loc.locate_many(ranged_rows(*self.ROWS))
        for row, est in zip(self.ROWS[:-1], estimates[:-1]):
            want, points = reference_position(row)
            assert est.valid
            assert est.position.distance_to(want) < 1e-9
            got = est.details["intersections"]
            assert len(got) == len(points)
            for p, q in zip(got, points):
                assert p.distance_to(q) < 1e-9
        assert not estimates[-1].valid
        assert "2 ranged" in estimates[-1].details["reason"]

    def test_ring_pair_counts(self, loc):
        estimates = loc.locate_many(ranged_rows(*self.ROWS))
        counts = [len(e.details.get("intersections", ())) for e in estimates]
        # 4 ring pairs, 3 for a 3-AP mask, 5 - 1 concentric for the twin
        assert counts == [4, 4, 4, 3, 4, 4, 0]
        assert estimates[5].details["intersections"][0] == Point(-15.0, 20.0)

    def test_clean_radii_recover_truth(self, loc):
        est = loc.locate(ranged_rows(self.ROWS[0])[0])
        assert est.position.distance_to(self.TRUE) < 1e-9

    def test_single_row_is_the_batch_row(self, loc):
        observations = ranged_rows(*self.ROWS)
        batched = loc.locate_many(observations)
        for o, b in zip(observations, batched):
            a = loc.locate(o)
            assert a.valid == b.valid and a.score == b.score
            assert a.position == b.position
            assert a.details == b.details

    def test_interleaved_masks_keep_their_rows(self, loc):
        order = [3, 0, 5, 1, 6, 2, 4]  # each mask's rows apart from each other
        straight = loc.locate_many(ranged_rows(*self.ROWS))
        shuffled = loc.locate_many(ranged_rows(*[self.ROWS[i] for i in order]))
        for i, est in zip(order, shuffled):
            assert est.valid == straight[i].valid
            assert est.position == straight[i].position
            assert est.details == straight[i].details

    def test_details_keys(self, loc):
        est = loc.locate(ranged_rows(self.ROWS[1])[0])
        assert set(est.details) == {"distances", "intersections", "mean_radial_residual_ft"}
        assert list(est.details["distances"]) == [B[0], B[1], B[2], B[3]]
        assert est.score == -est.details["mean_radial_residual_ft"]


class TestSolveMultilateration:
    ANCHORS = [Point(0, 0), Point(50, 0), Point(50, 40), Point(0, 40)]

    def test_exact_with_true_ranges(self):
        true = Point(17.0, 23.0)
        ranges = [true.distance_to(a) for a in self.ANCHORS]
        est = solve_multilateration(self.ANCHORS, ranges)
        assert est.distance_to(true) < 1e-6

    def test_three_anchors_minimum(self):
        true = Point(10, 10)
        anchors = self.ANCHORS[:3]
        est = solve_multilateration(anchors, [true.distance_to(a) for a in anchors])
        assert est.distance_to(true) < 1e-6
        with pytest.raises(ValueError):
            solve_multilateration(self.ANCHORS[:2], [1.0, 2.0])

    def test_noisy_ranges_bounded_error(self):
        rng = np.random.default_rng(0)
        true = Point(30, 15)
        errs = []
        for _ in range(50):
            ranges = [true.distance_to(a) + rng.normal(0, 1.0) for a in self.ANCHORS]
            ranges = [max(0.1, r) for r in ranges]
            est = solve_multilateration(self.ANCHORS, ranges)
            errs.append(est.distance_to(true))
        assert np.mean(errs) < 2.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            solve_multilateration(self.ANCHORS, [1.0, 2.0, 3.0])

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            solve_multilateration(self.ANCHORS, [1.0, -2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            solve_multilateration(self.ANCHORS, [1.0, np.nan, 3.0, 4.0])

    def test_residual_rms(self):
        true = Point(10, 10)
        ranges = [true.distance_to(a) for a in self.ANCHORS]
        assert residual_rms(self.ANCHORS, ranges, true) < 1e-9
        assert residual_rms(self.ANCHORS, ranges, Point(0, 0)) > 1.0

    def test_collinear_anchors_give_the_point_on_their_line(self):
        # A singular linear system: the minimum-norm answer on the line,
        # not an exception.
        anchors = [Point(0, 0), Point(10, 0), Point(20, 0)]
        est = solve_multilateration(anchors, [5.0, 6.0, 15.0])
        assert est.x == pytest.approx(14.0 / 3.0, abs=1e-6)
        assert est.y == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(min_value=2, max_value=48),
        st.floats(min_value=2, max_value=38),
    )
    @settings(max_examples=50)
    def test_exact_recovery_property(self, x, y):
        true = Point(x, y)
        ranges = [true.distance_to(a) for a in self.ANCHORS]
        est = solve_multilateration(self.ANCHORS, ranges)
        assert est.distance_to(true) < 1e-5


class TestMultilaterationBatch:
    def test_stacked_solve_matches_per_row_solver(self):
        loc = ranged(MultilaterationLocalizer(RING_POS).fit(ring_db()))
        rows = TestGeometricArrayKernel.ROWS
        estimates = loc.locate_many(ranged_rows(*rows))
        for row, est in zip(rows[:-1], estimates[:-1]):
            heard = [(RING_POS[b], r) for b, r in zip(RING_B, row) if np.isfinite(r)]
            want = solve_multilateration([a for a, _ in heard], [r for _, r in heard])
            assert est.valid
            assert est.position.distance_to(want) < 1e-9
            assert -est.score == pytest.approx(
                residual_rms([a for a, _ in heard], [r for _, r in heard], est.position)
            )
        assert not estimates[-1].valid
        assert estimates[-1].details == {"reason": "only 2 ranged AP(s)"}


class TestMultilaterationLocalizer:
    def test_clean_channel_accurate(self):
        loc = MultilaterationLocalizer(AP_POS).fit(ideal_db())
        est = loc.locate(ideal_observation(30, 25))
        assert est.valid
        assert est.position.distance_to(Point(30, 25)) < 1.5

    def test_too_few_heard_invalid(self):
        loc = MultilaterationLocalizer(AP_POS).fit(ideal_db())
        o = Observation(np.array([[-50.0, np.nan, np.nan, np.nan]]))
        assert not loc.locate(o).valid

    def test_details_carry_ranges(self):
        loc = MultilaterationLocalizer(AP_POS).fit(ideal_db())
        est = loc.locate(ideal_observation(25, 20))
        assert set(est.details["ranges_ft"]) == set(B)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultilaterationLocalizer({})
        with pytest.raises(ValueError):
            MultilaterationLocalizer(AP_POS, min_aps=2)
