import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import (
    ENTRY_NAMES,
    MARGIN_TOL,
    SYMMETRY_TOL,
    EnvironmentSpec,
    StateReport,
    _pivots,
    _rows,
    check_physical_state,
    covariance_from_entries,
    independent_entries,
    thermal_c_from_temperature,
    validate_diffusion,
)
from gaussent.cli import build_config
from gaussent.dynamics import _check_block, steady_covariance
from helpers import (
    check_block_oracle,
    diffusion_matrix,
    drift_matrix,
    ldl_pivots_oracle,
    min_eigenvalue_oracle,
    random_physical_cm,
    random_symplectic,
    semigroup_matrix,
    temperature_from_thermal_c,
    thermal_environment_oracle,
    two_mode_squeezer,
    validate_diffusion_oracle,
)


def _check(checks, name):
    return next(c for c in checks if c.name == name)


def _semigroup_min_eigenvalue(env):
    return float(np.linalg.eigvalsh(semigroup_matrix(env))[0])


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=10.0, thermal_c=1e308),
            dict(lam=0.1, thermal_c=1.0, m=1e-200, omega=1e-200),
            dict(lam=0.1, thermal_c=1.0, m=1e200, omega=1e200),
            dict(lam=5e-324, thermal_c=1.0),
        ],
    )
    def test_overflowing_coefficients_raise(self, kwargs):
        # valid parameters whose m*omega or coefficients overflow or underflow
        with pytest.raises(OverflowError, match="thermal diffusion coefficients"):
            ge.thermal_environment(**kwargs)

    def test_complex_parameters_are_rejected_not_truncated(self):
        env = ge.thermal_environment(0.1, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            for value in (np.complex128(1.2 + 1j), np.complex64(1.2), np.array(1.2 + 0j)):
                with pytest.raises(TypeError, match="parameters must be real"):
                    ge.thermal_environment(0.1, value)
                with pytest.raises(TypeError, match="parameters must be real"):
                    ge.thermal_environment(0.1, 1.2, d_xy=value)
                with pytest.raises(TypeError, match="parameters must be real"):
                    env._replace(d_xpy=value)
            with pytest.raises(TypeError):  # a Python complex is rejected as well
                ge.thermal_environment(0.1, 1.2 + 1j)
        # numpy reals and Python ints pass, as they did
        real = ge.thermal_environment(np.float64(0.1), np.int64(1), 0, np.float32(0.0))
        assert real == ge.thermal_environment(0.1, 1.0)

    def test_mirrored_coefficients(self):
        # the y-mode blocks of D mirror the x-mode ones; the oracle builds them
        # from the stored coefficients, as the runtime reads them
        env = ge.thermal_environment(0.2, 1.3, d_xy=0.01, d_xpy=0.02)
        d = diffusion_matrix(env)
        np.testing.assert_array_equal(d[2:, 2:], d[:2, :2])
        np.testing.assert_array_equal(d[:2, 2:], d[:2, 2:].T)
        assert d[1, 2] == env.d_xpy

    def test_is_thermal(self):
        assert ge.thermal_environment(0.1, 1.2, 0.01, 0.02).is_thermal()
        lopsided = EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
            d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        assert not lopsided.is_thermal()

    def test_near_gibbs_records_are_not_thermal(self):
        # an absolute tolerance below 1 once let each of these pass as thermal
        # and gave the zero-diffusion bath the threshold C*+ = 1
        no_diffusion = EnvironmentSpec(
            m=1.0, omega=1.0, lam=1e-13, thermal_c=1.0,
            d_xx=0.0, d_xpx=0.0, d_pxpx=0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        near = (
            no_diffusion,
            ge.thermal_environment(0.1, 1.2)._replace(d_pxpy=1e-13),
            ge.thermal_environment(1e-3, 1.0)._replace(d_xpx=9e-13),
        )
        for env in near:
            assert not env.is_thermal(), env
        with pytest.raises(ValueError, match="requires thermal"):
            ge.asymptotic_threshold(no_diffusion)
        with pytest.raises(ValueError, match="need a thermal env_base"):
            ge.SweepSpec(no_diffusion, ge.presets.initial_state("vacuum"))

    def test_thermal_exactly_when_thermal_environment_builds_the_record(self):
        # seeded baths over wide scales, numpy and signed-zero parameters
        # included, are thermal; one ulp off in any derived coefficient is not
        rng = random.Random(3030)
        kinds = (float, float, np.float32, np.int64)
        derived = ("d_xx", "d_xpx", "d_pxpx", "d_pxpy")
        checked = 0
        for _ in range(1000):
            kind = rng.choice(kinds)
            lam, c, m, omega = (10.0 ** rng.uniform(-8, 8) for _ in range(4))
            d_xy, d_xpy = (rng.choice([1, -1, 0.0, -0.0]) * 10.0 ** rng.uniform(-8, 8)
                           for _ in range(2))
            args = [lam, 1.0 + c, d_xy, d_xpy, m, omega]
            if kind is np.int64:
                args = [max(1, round(value)) if value > 0 else 0 for value in args]
            try:
                env = ge.thermal_environment(*map(kind, args))
            except OverflowError:
                continue
            assert env.is_thermal(), env
            for name in derived:
                for toward in (-math.inf, math.inf):
                    value = math.nextafter(getattr(env, name), toward)
                    if math.isfinite(value):
                        assert not env._replace(**{name: value}).is_thermal(), (env, name)
            checked += 1
        assert checked > 500
        # a signed zero equals zero: either sign of a zero coefficient is thermal
        signed = ge.thermal_environment(0.1, 1.2, -0.0, -0.0)
        assert signed.is_thermal()
        assert signed._replace(d_xpx=-0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0).is_thermal()

    def test_an_overflowing_recomputation_is_not_thermal(self):
        for fields in (dict(m=1e200, omega=1e200), dict(m=1e200, d_xy=1.0)):
            env = EnvironmentSpec(
                m=1.0, omega=1.0, lam=1.0, thermal_c=1.0,
                d_xx=1.0, d_xpx=0.0, d_pxpx=1.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
            )._replace(**fields)
            with pytest.raises(OverflowError):
                ge.thermal_environment(env.lam, env.thermal_c, env.d_xy, env.d_xpy, env.m, env.omega)
            assert env.is_thermal() is False


def test_thermal_environment_checks_once_what_it_checked_twice():
    # seeded baths, valid and not: the record, bits and types, or the error
    # type and message of the form that checked all ten fields again
    rng = random.Random(20261020)
    specials = [
        0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-200, 1e200, 1e308,
        np.float64(0.3), np.float32(1.5), np.int64(2), 3, np.complex128(1.0),
    ]

    def draw(low: float, high: float):
        if rng.random() < 0.1:
            return rng.choice(specials)
        return 10.0 ** rng.uniform(low, high)

    outcomes = set()
    for _ in range(4000):
        args = (draw(-4, 2), 1.0 + draw(-3, 3), rng.choice([1, -1]) * draw(-4, 0),
                rng.choice([1, -1]) * draw(-4, 0), draw(-3, 3), draw(-3, 3))
        try:
            expected = thermal_environment_oracle(*args)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                ge.thermal_environment(*args)
            assert str(raised.value) == str(exc)
            outcomes.add(type(exc).__name__)
        else:
            env = ge.thermal_environment(*args)
            assert type(env) is EnvironmentSpec
            assert repr(env) == repr(expected)
            assert list(map(type, env)) == list(map(type, expected)) == [float] * 10
            outcomes.add("record")
    assert outcomes >= {"record", "TypeError", "ValueError", "OverflowError"}


def test_numpy_and_integer_parameters_give_the_python_float_bath():
    # numpy keeps float32 (and float16) arithmetic on such scalars, so the bath
    # must be computed from float() of its parameters, and overflow unwarned
    floats = (0.1, 1.2, 0.01, 0.049, 1.5, 0.8)
    for kind, args in ((np.float32, floats), (np.float16, floats), (np.int64, (2, 3, 0, 1, 4, 5))):
        narrow = tuple(map(kind, args))
        env, wide = ge.thermal_environment(*narrow), ge.thermal_environment(*map(float, narrow))
        assert list(map(type, env)) == [float] * 10
        assert repr(env) == repr(wide)
        spec = EnvironmentSpec(*map(kind, range(1, 11)))
        assert list(map(type, spec)) == list(map(type, spec._replace(lam=kind(2)))) == [float] * 10
        assert spec == EnvironmentSpec._make(range(1, 11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^thermal diffusion coefficients overflow"):
            ge.thermal_environment(np.float32(1.5), 1.0, m=5e-324, omega=4.0)
    with pytest.raises(TypeError):
        ge.thermal_environment("0.1", 1.0)


def test_environment_requires_positive_dissipation():
    with pytest.raises(ValueError):
        EnvironmentSpec(
            m=1.0, omega=1.0, lam=0.0, thermal_c=1.0,
            d_xx=0.0, d_xpx=0.0, d_pxpx=0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )


def test_replace_and_make_validate():
    # a named tuple's _make, which _replace calls, does not go through __new__
    env = ge.thermal_environment(0.1, 1.0)
    with pytest.raises(ValueError, match="dissipation constant must be positive"):
        env._replace(lam=-1.0)
    with pytest.raises(ValueError, match="dissipation constant must be positive"):
        EnvironmentSpec._make([*env[:2], 0.0, *env[3:]])
    assert type(env._replace(lam=0.2)) is EnvironmentSpec
    assert env._replace(lam=0.2) == (*env[:2], 0.2, *env[3:])


def test_records_are_immutable_named_tuples():
    env = ge.thermal_environment(0.1, 1.0, d_xpy=0.049)
    state = ge.evolve(ge.presets.initial_state("fig1"), env, 7.25)
    records = [
        env,
        validate_diffusion(env)[0],
        check_physical_state(state),
        ge.metrics(state),
        build_config("steady", {}),
        ge.classify_phase(ge.presets.initial_state("fig1"), env, 50.0, 500),
        ge.SweepSpec(env, state, n_c=3),
    ]
    for record in records:
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields and tuple(record) == fields
        assert repr(record) == type(record).__name__ + "(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(record._fields, fields)
        ) + ")"
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], fields[0])
        assert not hasattr(record, "__dict__")


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
        env = ge.thermal_environment(0.1, 1.0)
        checks = validate_diffusion(env)
        check = _check(checks, "xx_pxpx")
        assert abs(check.margin) <= 1e-15
        assert check.passed
        assert all(c.passed for c in checks)
        # the full coefficient matrix sits on the PSD boundary
        assert abs(_semigroup_min_eigenvalue(env)) <= 1e-15

    def test_excessive_cross_coefficient_fails(self):
        checks = validate_diffusion(ge.thermal_environment(0.1, 1.0, d_xpy=0.06))
        check = _check(checks, "xx_pypy")
        assert not check.passed
        assert check.margin == pytest.approx(0.0025 - 0.0036, rel=1e-12)
        assert [c.name for c in checks if not c.passed] == ["xx_pypy", "yy_pxpx"]

    def test_benchmark_cross_coefficient_passes(self):
        env = ge.thermal_environment(0.1, 1.0, d_xpy=0.049)
        checks = validate_diffusion(env)
        check = _check(checks, "xx_pypy")
        assert check.passed
        assert check.margin == pytest.approx(0.0025 - 0.049**2, rel=1e-12)
        assert all(c.passed for c in checks)
        # all pairwise bounds hold, yet the full 4x4 coefficient matrix is
        # indefinite for this benchmark; the gate is the pairwise bounds
        assert _semigroup_min_eigenvalue(env) < -1e-6

    def test_overflowing_bounds_raise(self):
        # d_xx * d_pxpx and lam^2/4 both overflow, so the margin is inf - inf
        env = ge.thermal_environment(1e300, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="diffusion bounds are not finite"):
                validate_diffusion(env)

    def test_pure_thermal_full_matrix_psd(self):
        env = ge.thermal_environment(0.1, 2.0)
        assert all(c.passed for c in validate_diffusion(env))
        assert _semigroup_min_eigenvalue(env) >= -MARGIN_TOL

    @given(
        lam=st.floats(1e-3, 10.0),
        thermal_c=st.floats(1.0, 100.0),
        m=st.floats(1e-2, 1e2),
        omega=st.floats(1e-2, 1e2),
    )
    # zero temperature on a wide-scale bath: its xx_pxpx margin is -1.8e-12
    @example(
        lam=254.33690594811654, thermal_c=1.0, m=22.92299472423106, omega=0.021130766041079933
    )
    @settings(max_examples=80, deadline=None)
    def test_thermal_environments_always_pass(self, lam, thermal_c, m, omega):
        env = ge.thermal_environment(lam, thermal_c, m=m, omega=omega)
        assert all(c.passed for c in validate_diffusion(env))
        # the exact matrix is PSD; its float coefficients carry at most three
        # roundings each (3u relative, a 3u|M| shift by Weyl) and eigvalsh
        # is backward stable, here taken as a further 5u|M| for a 4x4
        eigenvalues = np.linalg.eigvalsh(semigroup_matrix(env))
        assert eigenvalues[0] >= -8 * 2.0**-53 * abs(eigenvalues).max()

    def test_bath_over_the_bound_fails(self):
        # |d_xpy| = 1e-6 is twice lam*C/2, yet every margin is below 1e-12
        env = ge.thermal_environment(1e-6, 1.0, d_xpy=1e-6)
        checks = validate_diffusion(env)
        assert max(abs(c.margin) for c in checks) < MARGIN_TOL
        assert [c.name for c in checks if not c.passed] == ["xx_pypy", "yy_pxpx"]
        assert _semigroup_min_eigenvalue(env) < -6e-7

    def test_bounds_scale_with_the_bath(self):
        # zero-temperature baths and baths with |d_xpy| = lam*C/2 exactly sit
        # on a bound and pass; a bath 1e-9 over it fails, at every scale
        rng = np.random.default_rng(20111021)
        for _ in range(20000):
            lam = 10.0 ** rng.uniform(-8.0, 4.0)
            m, omega = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            thermal_c = rng.uniform(1.0, 2.0)
            on_bound = 0.5 * lam * thermal_c
            for c, d_xpy, passed in (
                (1.0, 0.0, True),
                (thermal_c, on_bound, True),
                (thermal_c, on_bound * (1.0 + 1e-9), False),
            ):
                env = ge.thermal_environment(lam, c, 0.0, d_xpy, m, omega)
                assert all(check.passed for check in validate_diffusion(env)) == passed, env

    def test_margins_equal_minors_of_the_coefficient_matrix_bit_for_bit(self):
        # the margins are the 2x2 principal minors of P D P - (i lam/2) Omega
        # as complex-matrix arithmetic computes them, over random signs and
        # magnitudes from 1e-6 to 1e6 (so margins of both signs)
        pairs = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
        rows, cols = np.array(pairs).T
        rng = np.random.default_rng(20111021)
        for _ in range(2000):
            m, omega, lam, *d = 10.0 ** rng.uniform(-6.0, 6.0, size=9)
            signs = rng.choice([-1.0, 1.0], size=6)
            env = EnvironmentSpec(m, omega, lam, 1.0, *(signs * d))
            coef = semigroup_matrix(env)
            diag, off = coef.diagonal().real, coef[rows, cols]
            minors = diag[rows] * diag[cols] - off.real * off.real - off.imag * off.imag
            margins = [check.margin for check in validate_diffusion(env)]
            assert np.array(margins).tobytes() == minors.tobytes()


class TestCheckPhysicalState:
    def test_vacuum(self):
        # sigma + i Omega/2 = [[1/2, i/2], [-i/2, 1/2]] per mode: eigenvalues 0 and 1
        report = check_physical_state(ge.presets.initial_state("vacuum"))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_entangled_squeezed_preset_is_unphysical(self):
        sigma = ge.presets.initial_state("fig3")
        assert np.linalg.det(sigma.entries) == pytest.approx(-25.0 / 576.0, rel=1e-12)
        assert np.linalg.eigvalsh(sigma.entries)[0] < -0.1  # not even PSD
        report = check_physical_state(sigma)
        assert report.min_eigenvalue < -0.1
        assert not report.physical

    def test_squeezed_preset_is_physical_boundary(self):
        # pure squeezed: nu_- sits exactly at 1/2, so the smallest eigenvalue
        # is zero up to rounding
        report = check_physical_state(ge.presets.initial_state("fig1"))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_entangled_mixed_preset_violates_uncertainty(self):
        sigma = ge.presets.initial_state("fig4")
        assert np.linalg.eigvalsh(sigma.entries)[0] >= 0.0  # PSD, yet nu_- = 0
        report = check_physical_state(sigma)
        assert report.min_eigenvalue < -0.1
        assert not report.physical

    def test_two_mode_squeezed_vacua_are_physical(self):
        # pure states: the smallest eigenvalue is zero, and the squeezing
        # grows the entries to cosh(6)/2 ~ 100 at r = 3
        for r in np.linspace(0.05, 3.0, 60):
            s = two_mode_squeezer(float(r))
            report = check_physical_state(ge.CovarianceMatrix(0.5 * s @ s.T))
            assert report.physical, (r, report)

    def test_states_just_below_the_bound_are_unphysical(self):
        rng = np.random.default_rng(20240611)
        for _ in range(1000):
            s = random_symplectic(rng, max_squeeze=1.0)
            nu_minus, nu_plus = 0.5 - 1e-7, rng.uniform(0.5, 2.5)
            sigma = s @ np.diag([nu_minus, nu_minus, nu_plus, nu_plus]) @ s.T
            report = check_physical_state(ge.CovarianceMatrix(0.5 * (sigma + sigma.T)))
            assert not report.physical, report

    def test_squeezing_does_not_widen_the_slack(self):
        # the states above and pure states, each mode then squeezed along its
        # axes by up to e^12, so that entries reach ~1e11: the rescaling
        # undoes that squeezing, and the verdicts stay as before
        rng = np.random.default_rng(20240612)
        for _ in range(1000):
            a, b = rng.uniform(-12.0, 12.0, size=2)
            local = np.diag([math.exp(a), math.exp(-a), math.exp(b), math.exp(-b)])
            s = local @ random_symplectic(rng, max_squeeze=1.0)
            for nu_minus, physical in ((0.5 - 1e-7, False), (0.5, True)):
                nu_plus = rng.uniform(0.5, 2.5)
                sigma = s @ np.diag([nu_minus, nu_minus, nu_plus, nu_plus]) @ s.T
                report = check_physical_state(ge.CovarianceMatrix(0.5 * (sigma + sigma.T)))
                assert report.physical is physical, (a, b, report)

    @pytest.mark.parametrize(
        "diagonal",
        [
            # a pure squeezed x mode next to a y mode with
            # sigma_yy * sigma_pypy = 1e-4 < 1/4
            [5e11, 2e-12, 0.01, 0.01],
            [1e-300, 1e300, 1e-300, 1e-308],
            # sigma must be positive definite
            [1e12, -1e-12, 1.0, 1.0],
            [1e12, 0.0, 1.0, 1.0],
        ],
    )
    def test_badly_scaled_unphysical_states(self, diagonal):
        report = check_physical_state(ge.CovarianceMatrix(np.diag(diagonal)))
        assert not report.physical, report

    def test_rescaling_overflow_raises(self):
        # s = 1e150 on the x mode makes sigma_xy * s overflow; such a sigma is
        # never PSD
        sigma = covariance_from_entries(
            dict(sigma_xx=1e-300, sigma_pxpx=1e300, sigma_xy=1e200, sigma_yy=1.0, sigma_pypy=1.0)
        )
        with pytest.raises(OverflowError, match="rescaled"):
            check_physical_state(sigma)

    def test_rescaling_to_nan_raises(self):
        # s_x * s_y overflows, and the zero sigma_xy times it is NaN
        sigma = ge.CovarianceMatrix(np.diag([5e-324, 1e308, 5e-324, 1e308]))
        with pytest.raises(OverflowError, match="rescaled"):
            check_physical_state(sigma)

    def test_min_eigenvalue_is_finite_at_every_scale(self):
        # the last numpy linear algebra on a CLI path: it gives a number, never
        # a LinAlgError, which the CLI's ArithmeticError handler would not catch
        rng = np.random.default_rng(20)
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            values = tuple((scale * rng.standard_normal(10)).tolist())
            assert math.isfinite(StateReport(False, values).min_eigenvalue)
        state = ge.presets.initial_state("vacuum")  # sigma + i Omega/2 has eigenvalues 0 and 1
        assert abs(check_physical_state(state).min_eigenvalue) <= 1e-15

    def test_min_eigenvalue_matches_the_whole_matrix_sum(self):
        # the quote subtracts i/2 at the two lower-triangle entries that eigvalsh
        # reads; the oracle adds (i/2) Omega to the whole complex matrix.  Reports
        # of physical states, of random states with four positive variances
        # (rescaled) and of random states with one that is not (unrescaled), with
        # -0.0 entries, at scales 1e-100 to 1e100.  The two matrices are equal,
        # but the oracle's sum turns a -0.0 entry into 0.0, and the sign of a zero
        # steers LAPACK's Householder reflections: a few quotes move by up to 5
        # ulp of the largest entry, within eigvalsh's backward error
        rng = np.random.default_rng(33)
        diagonal = [0, 4, 7, 9]
        rescaled = identical = 0
        for k in range(12000):
            scale = 10.0 ** rng.uniform(-100.0, 100.0)
            if k % 3 == 0:
                values = random_physical_cm(rng, max_squeeze=2.0)[np.triu_indices(4)]
            else:
                values = rng.standard_normal(10)
                values[rng.random(10) < 0.3] = 0.0
                values = np.copysign(values, rng.choice([-1.0, 1.0], size=10))
                values[diagonal] = np.abs(values[diagonal]) + 0.01
                if k % 3 == 2:
                    values[diagonal[k % 4]] = rng.choice([-0.0, 0.0, -values[diagonal[k % 4]]])
            sigma = covariance_from_entries(dict(zip(ENTRY_NAMES, (scale * values).tolist())))
            report = check_physical_state(sigma)
            rescaled += report.rescaled is not sigma._values
            quote, oracle = report.min_eigenvalue, min_eigenvalue_oracle(report.rescaled)
            assert abs(quote - oracle) <= 8 * math.ulp(max(1.0, *map(abs, report.rescaled))), k
            identical += quote == oracle
        assert rescaled == 8000 and identical >= 11990

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


def _bits(values) -> tuple[str, ...]:
    return tuple(map(float.hex, values))


def _outcome(gate, *args):
    """What ``gate(*args)`` returns, or the type and message it raises."""
    try:
        return gate(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestGateKernels:
    """The physicality LDL^H, the Lyapunov residual check and the diffusion
    bounds against their earlier forms in ``tests/helpers.py``."""

    def test_pivots_equal_the_complex_loop_bit_for_bit(self):
        rng = np.random.default_rng(2025)
        upper = np.triu_indices(4)
        physical = [tuple(random_physical_cm(rng, max_squeeze=3.0)[upper].tolist())
                    for _ in range(17_000)]
        scaled = [tuple((np.array(v) * rng.uniform(0.9, 1.0)).tolist()) for v in physical]
        symmetric = [tuple(row) for row in rng.uniform(-2.0, 2.0, size=(17_000, 10)).tolist()]
        tmsv = dict(sigma_xx=1.8810978455418157, sigma_pxpx=1.8810978455418157,
                    sigma_yy=1.8810978455418155, sigma_pypy=1.8810978455418157,
                    sigma_xy=1.8134302039235093, sigma_pxpy=-1.8134302039235093)
        fixed = [ge.presets.initial_state(name)._values for name in ge.presets.PRESET_NAMES]
        fixed.append(covariance_from_entries(tmsv)._values)
        cases = rejected = 0
        for values in physical + scaled + symmetric + fixed:
            slack = MARGIN_TOL * max(1.0, *map(abs, values))
            for shift in (0.0, slack, -slack, 1e3 * slack):
                expected = ldl_pivots_oracle(values, shift)
                assert _bits(_pivots(values, shift)) == _bits(expected), (values, shift)
                assert (_pivots(values, shift)[-1] > 0.0) is (expected[-1] > 0.0)
                cases += 1
                rejected += not expected[-1] > 0.0
        assert cases >= 200_000
        assert 0.1 * cases < rejected < 0.5 * cases

    def test_an_overflowing_elimination_stops_at_the_same_pivot(self):
        # entries of random sign and magnitude up to 1e308 with no shift:
        # where an entry overflows, the complex loop's 0 * inf turns the
        # failing pivot into NaN, which the real arithmetic leaves at -inf
        rng = np.random.default_rng(2026)
        overflowed = 0
        for _ in range(5000):
            values = rng.standard_normal(10) * 10.0 ** rng.uniform(-300.0, 308.0, size=10)
            values[[0, 4, 7, 9]] = np.abs(values[[0, 4, 7, 9]])
            values = tuple(values.tolist())
            for shift in (0.0, MARGIN_TOL * max(1.0, *map(abs, values))):
                expected, pivots = ldl_pivots_oracle(values, shift), _pivots(values, shift)
                assert len(pivots) == len(expected), (values, shift)
                assert _bits(pivots[:-1]) == _bits(expected[:-1]), (values, shift)
                if _bits(pivots[-1:]) != _bits(expected[-1:]):
                    assert math.isnan(expected[-1]) and pivots[-1] == -math.inf, (values, shift)
                    overflowed += 1
                assert (_pivots(values, shift)[-1] > 0.0) is (expected[-1] > 0.0)
        assert overflowed

    def test_residual_check_and_diffusion_bounds_match_their_earlier_forms(self):
        # random baths, thermal and not, with cross coefficients near their
        # bounds, and both steady blocks checked against diffusion entries
        # nudged across the residual bound
        rng = np.random.default_rng(2027)
        decisions = {True: 0, False: 0}
        for k in range(20_000):
            m, omega, lam = (10.0 ** rng.uniform(-2.0, 2.0, size=3)).tolist()
            thermal_c = 1.0 + float(rng.exponential(0.5))
            edge = 1.0 + float(rng.choice([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11,
                                           0.1, -0.1]))
            if k % 2:
                env = ge.thermal_environment(lam, thermal_c, m=m, omega=omega)
                bound = 0.5 * lam * thermal_c
                env = env._replace(d_xpy=float(rng.choice([-1.0, 1.0])) * bound * edge,
                                   d_xy=float(rng.uniform(-1.2, 1.2)) * bound / (m * omega))
            else:
                d_xx, d_pxpx = (10.0 ** rng.uniform(-3.0, 1.0, size=2)).tolist()
                d_xpx = math.sqrt(max(0.0, d_xx * d_pxpx - 0.25 * lam * lam)) * edge
                env = EnvironmentSpec(m, omega, lam, thermal_c, d_xx, d_xpx, d_pxpx,
                                      *(rng.uniform(-1.2, 1.2, size=3) * d_xx).tolist())
            if k % 1000 == 0:  # margins that overflow
                env = env._replace(d_xy=1e200 if k % 2000 else -1e200)
            got = _outcome(lambda e: [tuple(c) for c in validate_diffusion(e)], env)
            expected = _outcome(validate_diffusion_oracle, env)
            if isinstance(expected, list):
                assert [(n, v.hex(), p) for n, v, p in got] == \
                    [(n, v.hex(), p) for n, v, p in expected], env
            else:
                assert got == expected, env
            try:
                v = steady_covariance(env)._values
            except ArithmeticError:
                continue
            for block, diffusion in (
                ((v[0], v[1], v[4]), (env.d_xx, env.d_xpx, env.d_pxpx)),
                ((v[2], v[3], v[6]), (env.d_xy, env.d_xpy, env.d_pxpy)),
            ):
                nudged = [d * (1.0 + 1e-13 * int(rng.integers(-40, 41))) for d in diffusion]
                for case in (diffusion, nudged):
                    expected = _outcome(check_block_oracle, env, block, case)
                    assert _outcome(_check_block, env, block, case) == expected, (env, case)
                    decisions[expected is None] += 1
        bad = (math.inf, 0.0, 1.0), (1.0, 0.0, 1.0)
        assert _outcome(_check_block, env, *bad) == _outcome(check_block_oracle, env, *bad)
        assert min(decisions.values()) > 1000, decisions


class TestCovarianceMatrix:
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

    def test_symmetrizing_large_entries_does_not_overflow(self):
        big = np.full((4, 4), 1.7e308)
        np.testing.assert_array_equal(ge.CovarianceMatrix(big).entries, big)
        # an asymmetry within SYMMETRY_TOL takes the averaging path
        big[0, 1], big[1, 0] = 0.25, 0.25 + 2.0**-41
        assert abs(big[0, 1] - big[1, 0]) <= SYMMETRY_TOL
        sigma = ge.CovarianceMatrix(big)
        assert sigma.entries[0, 1] == sigma.entries[1, 0] == 0.25 + 2.0**-42
        assert sigma.entries[2, 3] == 1.7e308

    def test_exactly_symmetric_input_is_stored_as_given(self):
        # halving an odd subnormal would round it: 0.5 * 5e-324 == 0
        tiny = np.eye(4)
        tiny[0, 2] = tiny[2, 0] = 5e-324
        assert ge.CovarianceMatrix(tiny).entries[0, 2] == 5e-324
        named = covariance_from_entries({"sigma_xx": 1.0, "sigma_xy": 5e-324})
        assert named.entries[0, 2] == named.entries[2, 0] == 5e-324

    def test_entries_read_only(self):
        sigma = ge.presets.initial_state("vacuum")
        with pytest.raises(ValueError):
            sigma.entries[0, 0] = 2.0

    def test_presets_are_shared_read_only_states(self):
        for name in ge.presets.PRESET_NAMES:
            state = ge.presets.initial_state(name)
            assert ge.presets.initial_state(name) is state
            assert type(state._values) is tuple
            for arr in (state.entries, np.asarray(state)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 2.0
        with pytest.raises(ValueError, match="^unknown initial-state preset 'fig9'; valid names: "):
            ge.presets.initial_state("fig9")

    def test_array_conversion_takes_the_copy_keyword(self):
        sigma = ge.presets.initial_state("fig1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            converted = np.array(sigma)
            view = np.asarray(sigma, dtype=float)
            copied = np.array(sigma, copy=True)
        for arr in (converted, view, copied):
            np.testing.assert_array_equal(arr, sigma.entries)
        assert not view.flags.writeable
        copied[0, 0] = -1.0
        assert copied.flags.writeable and sigma.entries[0, 0] != -1.0
        # numpy 1.x calls __array__ with no copy argument at all
        for arr in (sigma.__array__(), sigma.__array__(np.dtype(float))):
            np.testing.assert_array_equal(arr, sigma.entries)
            assert not arr.flags.writeable

    def test_a_write_to_one_entries_read_reaches_no_later_lookup(self):
        # presets are shared: a write to one entries array, even one made
        # writable, must reach no later lookup, whose arrays mirror _values,
        # which every computation reads
        for name in ge.presets.PRESET_NAMES:
            written = ge.presets.initial_state(name).entries
            old = written[0, 0]
            written.setflags(write=True)
            try:
                written[0, 0] = -1.0
                state = ge.presets.initial_state(name)
                for arr in (state.entries, np.asarray(state)):
                    np.testing.assert_array_equal(arr, _rows(state._values))
                    assert not arr.flags.writeable
            finally:
                written[0, 0] = old

    @given(data=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_block_roundtrip(self, data):
        values = dict(zip(ENTRY_NAMES, data))
        sigma = covariance_from_entries(values)
        rebuilt = covariance_from_entries(independent_entries(sigma))
        np.testing.assert_array_equal(rebuilt.entries, sigma.entries)
        np.testing.assert_array_equal(sigma.entries, sigma.entries.T)
        assert independent_entries(sigma) == pytest.approx(values)

    def test_unknown_entry_name(self):
        with pytest.raises(ValueError, match="unknown covariance entry"):
            covariance_from_entries({"sigma_zz": 1.0})

    def test_rejects_a_wrong_shape_and_entries_that_are_not_finite(self):
        shape = r"^covariance matrix must be 4x4, got shape \(3, 3\)$"
        with pytest.raises(ValueError, match=shape):
            ge.CovarianceMatrix(np.eye(3))
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^covariance matrix entries must be finite$"):
                covariance_from_entries({"sigma_xx": value})

    def test_equals_only_covariance_matrices(self):
        sigma = ge.CovarianceMatrix(0.5 * np.eye(4))
        assert sigma == ge.presets.initial_state("vacuum")
        assert sigma.__eq__(1) is NotImplemented
        assert not sigma == 1 and sigma != 1

    def test_text_entries_are_rejected_not_parsed(self):
        # float() and numpy's cast to float would parse them, where
        # thermal_environment and evolve raise TypeError for text
        for text in ("0.5", b"0.5", np.str_("0.5")):
            entries = dict.fromkeys(ENTRY_NAMES[1:], 0.0) | {"sigma_xx": text}
            with pytest.raises(TypeError, match="real number"):
                covariance_from_entries(entries)
        for matrix in ([["0.5"] * 4] * 4, (0.5 * np.eye(4)).astype(str), np.eye(4).astype(bytes)):
            with pytest.raises(TypeError, match="entries must be real"):
                ge.CovarianceMatrix(matrix)

    def test_text_in_object_arrays_is_rejected_but_numbers_are_not(self):
        # an object array's cast to float calls float() on each element
        for text in ((0.5 * np.eye(4)).astype(str), np.eye(4).astype(bytes)):
            matrix = text.astype(object)
            with pytest.raises(TypeError, match="entries must be real numbers, got dtype object"):
                ge.CovarianceMatrix(matrix)
            matrix[1:] = 0.5 * np.eye(4)[1:]  # one text row is enough
            with pytest.raises(TypeError, match="entries must be real"):
                ge.CovarianceMatrix(matrix)
        halves = np.diag([Fraction(1, 2)] * 4)
        assert halves.dtype == object
        assert ge.CovarianceMatrix(halves)._values == ge.CovarianceMatrix(0.5 * np.eye(4))._values

    def test_complex_entries_are_rejected_not_truncated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            with pytest.raises(TypeError, match="entries must be real"):
                ge.CovarianceMatrix(np.eye(4) * (0.5 + 2j))
            with pytest.raises(TypeError, match="entries must be real"):
                ge.CovarianceMatrix(np.eye(4, dtype=np.complex64))
            for value in (np.complex128(0.5 + 2j), np.complex64(0.5), np.array(0.5 + 0j)):
                entries = dict.fromkeys(ENTRY_NAMES[1:], 0.0) | {"sigma_xx": value}
                with pytest.raises(TypeError, match="'sigma_xx' must be real"):
                    covariance_from_entries(entries)
                matrix = (0.5 * np.eye(4)).astype(object)  # cast element by element
                matrix[2, 2] = value[()]
                with pytest.raises(TypeError, match="entries must be real numbers, got dtype"):
                    ge.CovarianceMatrix(matrix)


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

    def test_overflow(self):
        # omega/(2T) = 5e-309: coth is 2e308, past the largest float
        with pytest.raises(OverflowError, match="thermal parameter overflows"):
            thermal_c_from_temperature(1e308)

    def test_domain_errors(self):
        for temperature in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                thermal_c_from_temperature(temperature)
        # as thermal_environment rejects the same frequency, at T = 0 too
        for temperature in (1.0, 0.0):
            for omega in (-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="frequency must be positive and finite"):
                    thermal_c_from_temperature(temperature, omega)
        with pytest.raises(ValueError):
            temperature_from_thermal_c(0.5)
