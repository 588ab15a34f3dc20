import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import (
    ENTRY_NAMES,
    MARGIN_TOL,
    EnvironmentSpec,
    check_physical_state,
    covariance_from_entries,
    diffusion_matrix,
    drift_matrix,
    independent_entries,
    temperature_from_thermal_c,
    thermal_c_from_temperature,
    validate_diffusion,
)


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestThermalEnvironment:
    def test_zero_temperature_no_cross(self):
        env = ge.thermal_environment(0.1, 1.0)
        assert env.d_xx == pytest.approx(0.05, abs=0)
        assert env.d_pxpx == pytest.approx(0.05, abs=0)
        assert env.d_xpx == 0.0
        assert env.d_pxpy == 0.0

    def test_benchmark_cross_coefficient(self):
        env = ge.thermal_environment(0.1, 1.0, d_xy=0.0, d_xpy=0.049)
        assert env.d_xpy == 0.049
        assert env.d_xy == 0.0
        assert env.d_xx == env.d_pxpx == 0.05

    def test_mass_frequency_scaling(self):
        env = ge.thermal_environment(0.1, 2.0, d_xy=0.01, d_xpy=0.0, m=1.0, omega=2.0)
        assert env.d_xx == pytest.approx(0.05, rel=1e-15)
        assert env.d_pxpx == pytest.approx(0.2, rel=1e-15)
        assert env.d_pxpy == pytest.approx(0.04, rel=1e-15)
        assert env.d_xpx == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, thermal_c=1.0),
            dict(lam=-0.1, thermal_c=1.0),
            dict(lam=0.1, thermal_c=0.99),
            dict(lam=0.1, thermal_c=1.0, m=0.0),
            dict(lam=0.1, thermal_c=1.0, omega=-1.0),
            dict(lam=0.1, thermal_c=1.0, d_xpy=math.nan),
            dict(lam=0.1, thermal_c=1.0, d_xy=math.inf),
            dict(lam=math.inf, thermal_c=1.0),
            dict(lam=0.1, thermal_c=math.inf),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ge.thermal_environment(**kwargs)

    def test_mirrored_coefficients(self):
        env = ge.thermal_environment(0.2, 1.3, d_xy=0.01, d_xpy=0.02)
        assert env.d_yy == env.d_xx
        assert env.d_ypy == env.d_xpx
        assert env.d_pypy == env.d_pxpx
        assert env.d_ypx == env.d_xpy

    def test_is_thermal(self):
        assert ge.thermal_environment(0.1, 1.2, 0.01, 0.02).is_thermal()
        lopsided = EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
            d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        assert not lopsided.is_thermal()


def test_environment_requires_positive_dissipation():
    with pytest.raises(ValueError):
        EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.0, thermal_c=1.0,
            d_xx=0.0, d_xpx=0.0, d_pxpx=0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )


class TestDriftDiffusion:
    def test_drift_structure(self):
        env = ge.thermal_environment(0.1, 1.0, m=2.0, omega=0.5)
        y = drift_matrix(env)
        block = np.array([[-0.1, 0.5], [-0.5, -0.1]])
        np.testing.assert_allclose(y[:2, :2], block, rtol=0, atol=0)
        np.testing.assert_allclose(y[2:, 2:], block, rtol=0, atol=0)
        assert np.all(y[:2, 2:] == 0) and np.all(y[2:, :2] == 0)

    @given(
        lam=st.floats(0.01, 1.0),
        omega=st.floats(0.5, 2.0),
        m=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_drift_eigenvalues(self, lam, omega, m):
        env = ge.thermal_environment(lam, 1.0, m=m, omega=omega)
        eigs = np.linalg.eigvals(drift_matrix(env))
        # every eigenvalue is a root of (s + lam)^2 + omega^2
        residuals = np.abs((eigs + lam) ** 2 + omega**2)
        assert np.max(residuals) <= 1e-10
        np.testing.assert_allclose(eigs.real, -lam, rtol=0, atol=1e-12)

    def test_diffusion_matrix_symmetric(self):
        env = ge.thermal_environment(0.1, 1.5, d_xy=0.01, d_xpy=0.049)
        d = diffusion_matrix(env)
        np.testing.assert_array_equal(d, d.T)
        assert d[0, 0] == env.d_xx
        assert d[0, 3] == env.d_xpy
        assert d[1, 2] == env.d_xpy  # sigma_yp_x mirrors sigma_xp_y


class TestValidateDiffusion:
    def test_zero_temperature_boundary_margin(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0))
        check = _check(report, "xx_pxpx")
        assert abs(check.margin) <= 1e-15
        assert check.passed
        assert report.passed
        assert report.semigroup_psd  # boundary case still passes with slack
        assert abs(report.semigroup_min_eigenvalue) <= 1e-15

    def test_excessive_cross_coefficient_fails(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0, d_xpy=0.06))
        check = _check(report, "xx_pypy")
        assert not check.passed
        assert check.margin == pytest.approx(0.0025 - 0.0036, rel=1e-12)
        assert not report.passed
        assert check in report.failures()

    def test_benchmark_cross_coefficient_passes(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 1.0, d_xpy=0.049))
        check = _check(report, "xx_pypy")
        assert check.passed
        assert check.margin == pytest.approx(0.0025 - 0.049**2, rel=1e-12)
        assert report.passed
        # all pairwise bounds hold, yet the full 4x4 coefficient matrix is
        # indefinite for this benchmark; the report keeps the two facts apart
        assert not report.semigroup_psd
        assert report.semigroup_min_eigenvalue < -1e-6

    def test_pure_thermal_full_matrix_psd(self):
        report = validate_diffusion(ge.thermal_environment(0.1, 2.0))
        assert report.passed
        assert report.semigroup_psd

    @given(lam=st.floats(1e-3, 10.0), thermal_c=st.floats(1.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_thermal_environments_always_pass(self, lam, thermal_c):
        report = validate_diffusion(ge.thermal_environment(lam, thermal_c))
        assert report.passed
        assert report.semigroup_psd


class TestCheckPhysicalState:
    def test_vacuum(self):
        report = check_physical_state(ge.presets.initial_state("vacuum"))
        assert report.physical
        assert report.nu_minus_sq == pytest.approx(0.25, abs=1e-15)
        assert report.nu_plus_sq == pytest.approx(0.25, abs=1e-15)

    def test_entangled_squeezed_preset_is_unphysical(self):
        sigma = ge.presets.initial_state("fig3")
        assert np.linalg.det(sigma.entries) == pytest.approx(-25.0 / 576.0, rel=1e-12)
        report = check_physical_state(sigma)
        assert not report.positive_semidefinite
        assert report.min_eigenvalue < -0.1
        assert not report.physical

    def test_squeezed_preset_is_physical_boundary(self):
        # pure squeezed: nu_- sits exactly at 1/2; the degenerate spectrum
        # carries sqrt(eps) noise, hence the loose tolerance
        report = check_physical_state(ge.presets.initial_state("fig1"))
        assert report.physical
        assert report.nu_minus_sq == pytest.approx(0.25, abs=1e-7)

    def test_entangled_mixed_preset_violates_uncertainty(self):
        report = check_physical_state(ge.presets.initial_state("fig4"))
        assert report.positive_semidefinite
        assert report.nu_minus_sq == pytest.approx(0.0, abs=1e-14)
        assert not report.uncertainty_ok
        assert not report.physical

    def test_accepts_raw_arrays(self):
        report = check_physical_state(0.5 * np.eye(4))
        assert report.physical
        assert report.symmetry_residual == 0.0

    @given(
        thermal_c=st.floats(1.0, 50.0),
        m=st.floats(0.5, 2.0),
        omega=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gibbs_family_is_physical(self, thermal_c, m, omega):
        mw = m * omega
        sigma = ge.CovarianceMatrix(
            0.5 * thermal_c * np.diag([1.0 / mw, mw, 1.0 / mw, mw])
        )
        assert check_physical_state(sigma).physical


class TestCovarianceMatrix:
    # an infinite entry makes numpy warn in the symmetry check before it raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rejects_asymmetry(self):
        bad = 0.5 * np.eye(4)
        bad = bad.copy()
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            ge.CovarianceMatrix(bad)
        for value in (math.nan, math.inf, -math.inf):
            for i, j in ((0, 0), (0, 1)):
                bad = 0.5 * np.eye(4)
                bad[i, j] = bad[j, i] = value
                with pytest.raises(ValueError, match="finite"):
                    ge.CovarianceMatrix(bad)
        with pytest.raises(ValueError, match="finite"):
            ge.CovarianceMatrix(np.full((4, 4), math.nan))

    def test_symmetrizes_small_drift(self):
        noisy = 0.5 * np.eye(4)
        noisy = noisy.copy()
        noisy[0, 1] = 1e-13
        sigma = ge.CovarianceMatrix(noisy)
        np.testing.assert_array_equal(sigma.entries, sigma.entries.T)
        assert sigma.entries[0, 1] == pytest.approx(5e-14, rel=1e-9)

    def test_strict_rejects_unphysical(self):
        with pytest.raises(ValueError, match="physical"):
            ge.CovarianceMatrix(ge.presets.initial_state("fig3").entries, strict=True)
        ge.CovarianceMatrix(0.5 * np.eye(4), strict=True)

    def test_entries_read_only(self):
        sigma = ge.presets.initial_state("vacuum")
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 2.0

    @given(data=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_block_roundtrip(self, data):
        values = dict(zip(ENTRY_NAMES, data))
        sigma = covariance_from_entries(values)
        rebuilt = np.block(
            [[sigma.block_a, sigma.block_c], [sigma.block_c.T, sigma.block_b]]
        )
        np.testing.assert_array_equal(rebuilt, sigma.entries)
        assert independent_entries(sigma) == pytest.approx(values)

    def test_unknown_entry_name(self):
        with pytest.raises(ValueError, match="unknown covariance entry"):
            covariance_from_entries({"sigma_zz": 1.0})


class TestTemperatureConversion:
    def test_zero_temperature(self):
        assert thermal_c_from_temperature(0.0) == 1.0
        assert temperature_from_thermal_c(1.0) == 0.0

    @given(temperature=st.floats(0.5, 50.0), omega=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, temperature, omega):
        # mild omega/2T ratios only: coth saturates to 1 exponentially fast,
        # so the low-temperature direction is not invertible in floats
        c = thermal_c_from_temperature(temperature, omega)
        assert c > 1.0
        back = temperature_from_thermal_c(c, omega)
        assert back == pytest.approx(temperature, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            thermal_c_from_temperature(-1.0)
        with pytest.raises(ValueError):
            temperature_from_thermal_c(0.5)
