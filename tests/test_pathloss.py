"""Tests for path-loss models and SS-unit conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.regression import FitResult, PackedRanging
from repro.radio.pathloss import (
    FEET_PER_METER,
    FreeSpaceModel,
    InverseSquareModel,
    LogDistanceModel,
    dbm_to_ss_units,
    free_space_path_loss_db,
    ss_units_to_dbm,
)


class TestSSUnits:
    def test_conversion_roundtrip(self):
        rssi = np.array([-30.0, -60.0, -90.0])
        assert np.allclose(ss_units_to_dbm(dbm_to_ss_units(rssi)), rssi)

    def test_floor_at_zero(self):
        assert dbm_to_ss_units(-120.0) == 0.0

    def test_known_value(self):
        assert dbm_to_ss_units(-40.0) == 60.0


class TestFreeSpace:
    def test_known_reference(self):
        # FSPL at 1 m, 2437 MHz ≈ 40.2 dB.
        loss = free_space_path_loss_db(FEET_PER_METER)
        assert loss == pytest.approx(40.2, abs=0.3)

    def test_doubling_distance_costs_6db(self):
        l1 = free_space_path_loss_db(50.0)
        l2 = free_space_path_loss_db(100.0)
        assert l2 - l1 == pytest.approx(6.02, abs=0.01)

    def test_model_rssi_decreases(self):
        m = FreeSpaceModel()
        assert m.rssi(10.0) > m.rssi(100.0)


class TestLogDistance:
    def test_reference_loss_defaults_to_free_space(self):
        m = LogDistanceModel()
        assert m.ref_loss_db == pytest.approx(
            free_space_path_loss_db(m.ref_distance_ft), abs=1e-9
        )

    def test_exponent_slope(self):
        m = LogDistanceModel(exponent=3.0)
        # 10x distance costs 30 dB.
        assert float(m.path_loss_db(100.0) - m.path_loss_db(10.0)) == pytest.approx(30.0)

    def test_invert_is_inverse(self):
        m = LogDistanceModel(exponent=2.7)
        d = np.array([5.0, 20.0, 80.0])
        assert np.allclose(m.invert(m.rssi(d)), d)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogDistanceModel(exponent=0)
        with pytest.raises(ValueError):
            LogDistanceModel(ref_distance_ft=-1)

    def test_near_field_clamped(self):
        m = LogDistanceModel()
        assert np.isfinite(m.rssi(0.0))

    @given(st.floats(min_value=1.0, max_value=500.0), st.floats(min_value=1.5, max_value=5.0))
    @settings(max_examples=50)
    def test_monotone_decreasing(self, d, n):
        m = LogDistanceModel(exponent=n)
        assert float(m.rssi(d)) > float(m.rssi(d * 1.5))


class TestInverseSquare:
    def well_behaved(self):
        return InverseSquareModel(3000.0, 200.0, 5.0, min_distance_ft=2.0, max_distance_ft=100.0)

    def test_ss_formula(self):
        m = InverseSquareModel(100.0, 10.0, 1.0)
        assert float(m.ss(10.0)) == pytest.approx(100 / 100 + 10 / 10 + 1)

    def test_invert_roundtrip_on_branch(self):
        m = self.well_behaved()
        for d in (3.0, 10.0, 50.0, 90.0):
            assert float(m.invert(m.ss(d))) == pytest.approx(d, rel=1e-4)

    def test_invert_clamps_hot_signal(self):
        m = self.well_behaved()
        assert float(m.invert(1e6)) == pytest.approx(m.min_distance_ft)

    def test_invert_clamps_weak_signal(self):
        m = self.well_behaved()
        assert float(m.invert(-1e6)) == pytest.approx(m.max_distance_ft)

    def test_invert_vector_shape(self):
        m = self.well_behaved()
        out = m.invert(np.array([50.0, 20.0, 10.0]))
        assert out.shape == (3,)
        assert (np.diff(out) > 0).all()  # weaker SS → farther

    def test_negative_a_fit_uses_decreasing_branch(self):
        # The shape the real fits produce: a < 0, peak at d* = -2a/b.
        m = InverseSquareModel(-3000.0, 700.0, 20.0, min_distance_ft=1.0, max_distance_ft=80.0)
        lo, hi = m.monotone_branch()
        assert lo == pytest.approx(-2 * m.a / m.b)  # 8.57 ft
        # On the branch, inversion must round-trip.
        for d in (10.0, 30.0, 70.0):
            assert float(m.invert(m.ss(d))) == pytest.approx(d, rel=1e-4)

    def test_monotone_branch_full_when_positive(self):
        m = self.well_behaved()
        assert m.monotone_branch() == (2.0, 100.0)

    @given(
        st.floats(min_value=-5000, max_value=5000),
        st.floats(min_value=-1000, max_value=1000),
        st.floats(min_value=-50, max_value=80),
        st.floats(min_value=0, max_value=120),
    )
    @settings(max_examples=150)
    def test_invert_always_in_bounds(self, a, b, c, ss):
        m = InverseSquareModel(a, b, c, min_distance_ft=1.0, max_distance_ft=200.0)
        d = float(m.invert(ss))
        assert 1.0 <= d <= 200.0
        assert np.isfinite(d)

    def test_coefficients_property(self):
        assert InverseSquareModel(1, 2, 3).coefficients == (1, 2, 3)

    def test_invert_nan_is_nan(self):
        # A missing reading has no distance (it must not range as the
        # nearest possible one).
        m = self.well_behaved()
        assert np.isnan(m.invert(np.nan))
        out = m.invert(np.array([50.0, np.nan, 10.0]))
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()
        degenerate = InverseSquareModel(-5.0, -1.0, 3.0, min_distance_ft=1.0, max_distance_ft=9.0)
        assert np.isnan(degenerate.invert(np.nan))

    # -- closed form: round trip on each branch shape -------------------
    _frac = st.floats(min_value=0.01, max_value=0.99)
    _c = st.floats(min_value=-50, max_value=80)

    @staticmethod
    def _round_trips(m, frac):
        """``ss(invert(s)) == s`` (rel 1e-9) for ``s`` strictly inside the branch.

        "Relative" is to the size of the model's terms at the answer,
        the scale of the rounding error any evaluation of ``ss`` makes.
        """
        lo, hi = m.monotone_branch()
        s = float(m.ss(lo + frac * (hi - lo)))
        assert float(m.ss(hi)) < s < float(m.ss(lo))
        d = float(m.invert(s))
        assert lo <= d <= hi
        scale = abs(m.a) / d**2 + abs(m.b) / d + abs(m.c)
        assert abs(float(m.ss(d)) - s) <= 1e-9 * scale

    @given(
        st.floats(min_value=1, max_value=5000),
        st.floats(min_value=1, max_value=1000),
        _c,
        _frac,
    )
    @settings(max_examples=100)
    def test_round_trip_full_branch(self, a, b, c, frac):
        m = InverseSquareModel(a, b, c, min_distance_ft=1.0, max_distance_ft=200.0)
        assert m.monotone_branch() == (1.0, 200.0)
        self._round_trips(m, frac)

    @given(
        st.floats(min_value=2, max_value=150),
        st.floats(min_value=1, max_value=1000),
        _c,
        _frac,
    )
    @settings(max_examples=100)
    def test_round_trip_peak_branch(self, d_star, b, c, frac):
        # a < 0: rises to a peak at d* = -2a/b, decreasing beyond it.
        m = InverseSquareModel(-b * d_star / 2.0, b, c, min_distance_ft=1.0, max_distance_ft=200.0)
        assert m.monotone_branch()[0] == pytest.approx(d_star)
        self._round_trips(m, frac)

    @given(
        st.floats(min_value=5, max_value=190),
        st.floats(min_value=-1000, max_value=-1),
        _c,
        _frac,
    )
    @settings(max_examples=100)
    def test_round_trip_trough_branch(self, d_star, b, c, frac):
        # b < 0: falls to a trough at d* = -2a/b, decreasing only before it.
        m = InverseSquareModel(-b * d_star / 2.0, b, c, min_distance_ft=1.0, max_distance_ft=200.0)
        assert m.monotone_branch()[1] == pytest.approx(d_star)
        self._round_trips(m, frac)

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=1e-9)),
        st.floats(min_value=1, max_value=1000),
        _c,
        _frac,
    )
    @settings(max_examples=100)
    def test_round_trip_linear_limit(self, a, b, c, frac):
        # a -> 0: SS = b/d + c, inverted as (SS - c)/b without 0/0.
        m = InverseSquareModel(a, b, c, min_distance_ft=1.0, max_distance_ft=200.0)
        self._round_trips(m, frac)

    def test_closed_form_clamps_and_degenerate_midpoint(self):
        for m in (
            self.well_behaved(),
            InverseSquareModel(-3000.0, 700.0, 20.0, min_distance_ft=1.0, max_distance_ft=80.0),
            InverseSquareModel(3000.0, -100.0, 20.0, min_distance_ft=1.0, max_distance_ft=80.0),
        ):
            lo, hi = m.monotone_branch()
            ss_lo, ss_hi = float(m.ss(lo)), float(m.ss(hi))
            assert float(m.invert(ss_lo)) == lo and float(m.invert(ss_lo + 1.0)) == lo
            assert float(m.invert(ss_hi)) == hi and float(m.invert(ss_hi - 1.0)) == hi
        # Increasing everywhere: no usable branch, the midpoint answers.
        flat = InverseSquareModel(-5.0, -1.0, 3.0, min_distance_ft=1.0, max_distance_ft=9.0)
        for s in (-100.0, 0.0, 2.5, 100.0):
            assert float(flat.invert(s)) == 5.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5000, max_value=5000),
                st.floats(min_value=-1000, max_value=1000),
                st.floats(min_value=-50, max_value=80),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.one_of(st.just(np.nan), st.floats(min_value=-20, max_value=150)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100)
    def test_packed_inversion_is_bitwise_scalar(self, coeffs, ss):
        names = [f"ap{i}" for i in range(len(coeffs))]
        fits = {
            name: FitResult(InverseSquareModel(a, b, c, 1.0, 200.0), 1.0, 0.0, 3)
            for name, (a, b, c) in zip(names, coeffs)
        }
        packed = PackedRanging.from_fits(fits, names)
        matrix = np.tile(np.asarray(ss, dtype=float)[:, None], (1, len(names)))
        got = packed.invert_matrix(matrix)
        for j, name in enumerate(names):
            want = fits[name].model.invert(matrix[:, j])
            np.testing.assert_array_equal(got[:, j], want)  # NaN == NaN here
