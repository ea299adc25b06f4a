import numpy as np
import pytest

from hsnct.containers import (
    RawScan,
    ScanGeometry,
    SpectralAxis,
    ToFConverter,
    ValidationError,
)
from hsnct.preprocess import (
    NormalizationOptions,
    normalize,
    tof_to_wavelength,
)


def make_scan(counts, open_beam, n_k=None):
    counts = np.asarray(counts, dtype=np.float64)
    n_v, n_r, n_c, nk = counts.shape
    geom = ScanGeometry(n_v, n_r, n_c,
                        np.linspace(0, np.pi, n_v, endpoint=False),
                        flight_path=10.0)
    axis = SpectralAxis(np.linspace(1e-3, 2e-3, nk + 1), ToFConverter(flight_path=10.0))
    return RawScan(counts, open_beam, geom, axis)


class TestTofToWavelength:
    def test_zero_maps_to_zero(self):
        conv = ToFConverter(flight_path=10.0)
        assert tof_to_wavelength(conv, 0.0) == 0.0

    def test_algebraic_identity(self):
        # dt = L*m_n/h makes the conversion factor cancel to exactly 1
        conv = ToFConverter(flight_path=10.0)
        dt = 10.0 * conv.neutron_mass / conv.planck_h
        assert np.isclose(tof_to_wavelength(conv, dt), 1.0, rtol=1e-12)

    def test_codata_value(self):
        # h/m_n = 6.62607015e-34 / 1.67492749804e-27 = 3.9560339...e-7 m^2/s
        # lambda(2.5 ms, L=10 m) = 3.9560339e-7 * 2.5e-3 / 10 = 9.8900848...e-11 m
        conv = ToFConverter(flight_path=10.0)
        assert np.isclose(tof_to_wavelength(conv, 2.5e-3), 9.890084843e-11, rtol=1e-9)

    def test_linear(self):
        conv = ToFConverter(flight_path=8.5)
        rng = np.random.default_rng(5)
        for _ in range(25):
            dt = float(rng.uniform(0, 1e-2))
            a = float(rng.uniform(0, 10))
            assert np.isclose(tof_to_wavelength(conv, a * dt),
                              a * tof_to_wavelength(conv, dt), rtol=1e-12)

    def test_negative_dt_rejected(self):
        conv = ToFConverter(flight_path=10.0)
        with pytest.raises(ValidationError):
            tof_to_wavelength(conv, -1e-6)

    @pytest.mark.parametrize("dt", [np.nan, [1e-3, np.nan], [np.inf], [-np.inf, 1e-3]])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="dt must be finite"):
            tof_to_wavelength(ToFConverter(flight_path=10.0), dt)

    def test_empty_dt_passes(self):
        assert tof_to_wavelength(ToFConverter(flight_path=10.0), []).shape == (0,)

    def test_array_input(self):
        conv = ToFConverter(flight_path=10.0)
        out = tof_to_wavelength(conv, np.array([0.0, 1e-3, 2e-3]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and np.all(np.diff(out) > 0)


class TestNormalize:
    def test_identity_when_counts_match_open_beam(self):
        ob = np.full((2, 3, 4), 50.0)
        counts = np.broadcast_to(ob, (3, 2, 3, 4)).copy()
        sino = normalize(make_scan(counts, ob))
        assert np.all(sino.values == 0.0)

    def test_one_over_e_gives_unit_attenuation(self):
        ob = np.full((1, 1, 2), 100.0)
        counts = np.full((1, 1, 1, 2), 100.0)
        counts[0, 0, 0, 1] = 100.0 / np.e
        sino = normalize(make_scan(counts, ob))
        assert np.isclose(sino.values[0, 0], 0.0, atol=1e-7)
        assert np.isclose(sino.values[0, 1], 1.0, rtol=1e-6)

    def test_zero_count_floor_value(self):
        # y=0 floored to 0.5 against y_open=100: p = log(200) = 5.29831736...
        ob = np.full((1, 1, 1), 100.0)
        counts = np.zeros((1, 1, 1, 1))
        sino = normalize(make_scan(counts, ob))
        assert np.isclose(sino.values[0, 0], 5.2983174, rtol=1e-6)

    def test_clamp_negative_default_on(self):
        ob = np.full((1, 1, 1), 10.0)
        counts = np.full((1, 1, 1, 1), 20.0)  # brighter than open beam
        clamped = normalize(make_scan(counts, ob))
        assert clamped.values[0, 0] == 0.0
        raw = normalize(make_scan(counts, ob), NormalizationOptions(clamp_negative=False))
        assert np.isclose(raw.values[0, 0], -np.log(2.0), rtol=1e-6)

    def test_all_zero_counts_stay_finite(self):
        sino = normalize(make_scan(np.zeros((2, 2, 2, 3)), np.zeros((2, 2, 3))))
        assert np.all(np.isfinite(sino.values))
        assert np.all(sino.values == 0.0)  # 0.5/0.5 = 1, log -> 0

    def test_monotone_in_counts(self):
        rng = np.random.default_rng(17)
        ob = rng.uniform(10, 100, size=(2, 2, 3))
        for _ in range(20):
            counts = rng.uniform(0, 120, size=(2, 2, 2, 3))
            bumped = counts + rng.uniform(0, 5, size=counts.shape)
            lo = normalize(make_scan(counts, ob), NormalizationOptions(clamp_negative=False))
            hi = normalize(make_scan(bumped, ob), NormalizationOptions(clamp_negative=False))
            assert np.all(hi.values <= lo.values + 1e-6)
