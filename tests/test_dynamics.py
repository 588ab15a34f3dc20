import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import ENTRY_NAMES, EnvironmentSpec, covariance_from_entries
from gaussent.dynamics import (
    _check_block,
    _offsets,
    _propagate,
    _rotation,
    propagator,
    steady_covariance,
)
from gaussent.experiments import _column, _column_states, _congruences, _time_column
from helpers import (
    diffusion_matrix,
    drift_matrix,
    evolve_oracle,
    lyapunov_oracle,
    matrix_exp_oracle,
    ode_residual_oracle,
    propagate_oracle,
    random_physical_cm,
    rotation_instants,
)

LAM = st.floats(0.01, 1.0)
OMEGA = st.floats(0.5, 2.0)
MASS = st.floats(0.5, 2.0)


def _env(lam=0.1, c=1.0, d_xy=0.0, d_xpy=0.0, m=1.0, omega=1.0):
    return ge.thermal_environment(lam, c, d_xy, d_xpy, m, omega)


class TestPropagator:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(_prop(0.0), np.eye(4))

    def test_half_period(self):
        # at t = pi (omega = 1) each block is -exp(-lam*pi) * I
        m = _prop(math.pi)
        expected = -math.exp(-0.1 * math.pi)
        assert expected == pytest.approx(-0.7304026910486355, rel=1e-12)
        np.testing.assert_allclose(m[:2, :2], expected * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(m[2:, 2:], expected * np.eye(2), atol=1e-15)

    def test_long_time_decay(self):
        m = _prop(200.0)
        assert np.max(np.abs(m)) <= math.exp(-20.0) * (1 + 1e-12)

    def test_rejects_negative_time(self):
        for t in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                propagator(_env(), t)

    def test_block_structure(self):
        env = _env(lam=0.3, m=1.7, omega=0.8)
        m = propagator(env, 2.3)
        assert np.all(m[:2, 2:] == 0) and np.all(m[2:, :2] == 0)
        np.testing.assert_array_equal(m[:2, :2], m[2:, 2:])

    @given(lam=LAM, omega=OMEGA, m=MASS, t=st.floats(0.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_determinant(self, lam, omega, m, t):
        env = _env(lam=lam, m=m, omega=omega)
        det = np.linalg.det(propagator(env, t))
        assert det == pytest.approx(math.exp(-4.0 * lam * t), rel=1e-10, abs=1e-300)

    @given(lam=LAM, omega=OMEGA, m=MASS, t=st.floats(0.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_series_oracle(self, lam, omega, m, t):
        env = _env(lam=lam, m=m, omega=omega)
        oracle = matrix_exp_oracle(drift_matrix(env) * t)
        assert np.max(np.abs(propagator(env, t) - oracle)) <= 1e-12

    @given(lam=LAM, omega=OMEGA, m=MASS, s=st.floats(0.0, 20.0), t=st.floats(0.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_semigroup_property(self, lam, omega, m, s, t):
        env = _env(lam=lam, m=m, omega=omega)
        lhs = propagator(env, s) @ propagator(env, t)
        rhs = propagator(env, s + t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _prop(t):
    return propagator(_env(), t)


class TestSteadyCovariance:
    @given(lam=st.floats(0.02, 1.0), c=st.floats(1.0, 5.0), omega=OMEGA, m=MASS)
    @settings(max_examples=60, deadline=None)
    def test_thermal_diagonal(self, lam, c, omega, m):
        sigma = steady_covariance(_env(lam=lam, c=c, m=m, omega=omega))
        mw = m * omega
        assert sigma.entries[0, 0] == pytest.approx(0.5 * c / mw, rel=1e-10)
        assert sigma.entries[1, 1] == pytest.approx(0.5 * c * mw, rel=1e-10)
        assert sigma.entries[0, 1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sigma.entries[:2, 2:], 0.0, atol=1e-12)

    def test_momentum_position_cross(self):
        sigma = steady_covariance(_env(d_xpy=0.049))
        expected = 0.1 * 0.049 / (0.1**2 + 1.0)
        assert expected == pytest.approx(0.00485148514851485, rel=1e-12)
        assert sigma.entries[0, 3] == pytest.approx(expected, rel=1e-10)
        assert sigma.entries[1, 2] == pytest.approx(expected, rel=1e-10)

    def test_position_cross(self):
        sigma = steady_covariance(_env(d_xy=0.01))
        assert sigma.entries[0, 2] == pytest.approx(0.1, rel=1e-10)
        assert sigma.entries[1, 3] == pytest.approx(0.1, rel=1e-10)

    def test_residual_bound(self):
        env = _env(lam=0.05, c=1.7, d_xy=0.005, d_xpy=0.02)
        sigma = steady_covariance(env)
        y = drift_matrix(env)
        d = diffusion_matrix(env)
        residual = np.max(np.abs(y @ sigma.entries + sigma.entries @ y.T + 2 * d))
        assert residual <= 1e-12 * (1 + np.max(np.abs(d)))

    @pytest.mark.parametrize(
        "bath",
        [
            pytest.param(dict(m=m, omega=omega), id=f"{m}-{omega}")
            for m, omega in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]
        ]
        + [
            # steady entries up to 1.2e4 and a drift entry of -2.9e4
            pytest.param(
                dict(
                    lam=0.00155802009969208, c=353.4674449606105, d_xy=0.0014877321118279,
                    d_xpy=0.09562513753226638, m=0.16360936656934003, omega=424.2797507214071,
                ),
                id="wide-scale",
            )
        ],
    )
    def test_closed_form_cross_check(self, bath):
        env = _env(**{**dict(lam=0.1, c=1.4, d_xy=0.004, d_xpy=0.03), **bath})
        closed = steady_covariance(env)
        dense = lyapunov_oracle(drift_matrix(env), diffusion_matrix(env))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(closed.entries - dense)) <= 1e-12 * scale

    def test_overflowing_square_is_named(self):
        env = ge.thermal_environment(0.1, 1.0, m=1e-200, omega=1e200)
        with pytest.raises(OverflowError, match=r"omega\^2 overflows \(m=1e-200, omega=1e\+2"):
            steady_covariance(env)

    def test_underflowing_divisor_is_named(self):
        env = ge.thermal_environment(1e-200, 1.0, m=1e200, omega=1e-200)
        with pytest.raises(ZeroDivisionError, match=r"2\(lambda\^2 \+ omega\^2\) underflows"):
            steady_covariance(env)

    def test_result_is_wrapped_exactly_symmetric_and_read_only(self):
        sigma = steady_covariance(_env(lam=0.05, c=1.7, d_xy=0.005, d_xpy=0.02))
        assert np.isfinite(sigma.entries).all()
        np.testing.assert_array_equal(sigma.entries, sigma.entries.T)
        assert not sigma.entries.flags.writeable
        assert ge.CovarianceMatrix(sigma.entries) == sigma

    def test_non_finite_solve_raises_without_a_numpy_warning(self):
        # lam^2 underflows and (d_xx + b/m)/lam overflows
        env = EnvironmentSpec(
            m=1.0, omega=1.0, lam=1e-310, thermal_c=1.0,
            d_xx=1.0, d_xpx=0.0, d_pxpx=1.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="Lyapunov solve is not finite") as excinfo:
                steady_covariance(env)
        assert excinfo.type is ArithmeticError

    @pytest.mark.parametrize("m,omega", [(1.0, 1.0), (0.5, 2.0), (3e3, 2e-3)])
    def test_each_residual_entry_is_checked(self, m, omega):
        # nudging one diffusion entry leaves the exact solve of the others in
        # place, so only the residual entry that reads it can catch it
        env = ge.thermal_environment(0.1, 1.3, d_xy=0.01, d_xpy=0.04, m=m, omega=omega)
        sigma = steady_covariance(env).entries
        for block, diffusion in (
            ((sigma[0, 0], sigma[0, 1], sigma[1, 1]), (env.d_xx, env.d_xpx, env.d_pxpx)),
            ((sigma[0, 2], sigma[0, 3], sigma[1, 3]), (env.d_xy, env.d_xpy, env.d_pxpy)),
        ):
            _check_block(env, block, diffusion)
            for k in range(3):
                if diffusion[k] == 0.0:
                    continue
                nudged = list(diffusion)
                nudged[k] *= 1.0 + 1e-9
                with pytest.raises(ArithmeticError, match="residual .* exceeds") as excinfo:
                    _check_block(env, block, nudged)
                assert excinfo.type is ArithmeticError
        with pytest.raises(ArithmeticError, match="not finite") as excinfo:
            _check_block(env, (math.inf, 0.0, 1.0), (1.0, 0.0, 1.0))
        assert excinfo.type is ArithmeticError


class TestEvolve:
    def test_fixed_point(self):
        env = _env(d_xpy=0.049)
        fixed = steady_covariance(env)
        for t in (1.0, 10.0, 100.0):
            out = ge.evolve(fixed, env, t)
            assert np.max(np.abs(out.entries - fixed.entries)) <= 1e-12

    def test_zero_time_is_identity(self):
        initial = ge.presets.initial_state("fig1")
        assert ge.evolve(initial, _env(), 0.0) is initial

    def test_converges_to_steady(self):
        env = _env(d_xpy=0.049)
        initial = ge.presets.initial_state("fig1")
        out = ge.evolve(initial, env, 200.0 / 0.1)
        fixed = steady_covariance(env)
        assert np.max(np.abs(out.entries - fixed.entries)) <= 1e-8

    def test_rejects_negative_time(self):
        for t in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                ge.evolve(ge.presets.initial_state("vacuum"), _env(), t)

    def test_overflow_raises(self):
        env = ge.thermal_environment(0.1, 1.0, m=1e-200, omega=1e200)
        with pytest.raises(OverflowError, match="phase"):
            ge.evolve(ge.presets.initial_state("vacuum"), env, 1e200)
        # m*omega = 1e100 rotates sigma_xx = 1e200 into p_x as ~1e400; the
        # float arithmetic reports it once, with no numpy warning
        env = ge.thermal_environment(0.1, 1.0, m=1e100)
        initial = ge.CovarianceMatrix(np.diag([1e200, 1.0, 1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"not finite at t = 1\.0$"):
                ge.evolve(initial, env, 1.0)

    @given(
        lam=st.floats(0.02, 0.5),
        c=st.floats(1.0, 3.0),
        s=st.floats(0.0, 20.0),
        t=st.floats(0.0, 20.0),
        data=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_flow_composition(self, lam, c, s, t, data):
        env = _env(lam=lam, c=c, d_xpy=0.02)
        initial = covariance_from_entries(dict(zip(ENTRY_NAMES, data)))
        two_step = ge.evolve(ge.evolve(initial, env, s), env, t)
        one_step = ge.evolve(initial, env, s + t)
        assert np.max(np.abs(two_step.entries - one_step.entries)) <= 1e-11

    def test_preserves_mode_exchange_symmetry(self):
        # equal unimodal blocks and a symmetric cross block stay that way
        env = _env(d_xy=0.003, d_xpy=0.049)
        initial = ge.presets.initial_state("fig3")
        for t in np.linspace(0.5, 40.0, 9):
            state = ge.evolve(initial, env, float(t))
            e = state.entries
            np.testing.assert_allclose(e[:2, :2], e[2:, 2:], atol=1e-12)
            np.testing.assert_allclose(e[:2, 2:], e[:2, 2:].T, atol=1e-12)

    def test_matches_matmul_oracle_and_is_exactly_symmetric(self):
        rng = np.random.default_rng(20261020)
        states = [ge.presets.initial_state(name) for name in ge.presets.PRESET_NAMES]
        states += [
            ge.CovarianceMatrix(random_physical_cm(rng, max_squeeze))
            for max_squeeze in (1.0, 2.0)
            for _ in range(100)
        ]
        for mw in (1e-3, 1.0, 1e3):
            for m, omega in ((mw, 1.0), (1.0, mw)):
                env = _env(d_xpy=0.049, m=m, omega=omega)
                fixed = steady_covariance(env)
                for t in (0.1, 7.25, 500.0):
                    mat = propagator(env, t)
                    for initial in states:
                        out = ge.evolve(initial, env, t).entries
                        assert np.array_equal(out, out.T)
                        expected = evolve_oracle(initial.entries, mat, fixed.entries)
                        # each entry against its Cauchy-Schwarz scale sqrt(s_ii s_jj)
                        root = np.sqrt(np.abs(expected.diagonal()))
                        assert np.all(np.abs(out - expected) <= 1e-14 * np.outer(root, root))



def _hexes(entries) -> list[str]:
    return [float.hex(v) for v in np.ravel(np.array(entries, dtype=float)).tolist()]


class TestPropagate:
    @staticmethod
    def _draw(rng, shape):
        # magnitudes up to 1e300, where products overflow to inf and inf - inf is NaN
        scale = 10.0 ** rng.choice([0.0, 3.0, 150.0, 300.0], size=shape)
        return rng.uniform(-2.0, 2.0, size=shape) * scale

    def test_floats_match_the_congruence_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2811)
        outcomes = set()
        for _ in range(2000):
            initial, fixed = (tuple(self._draw(rng, 10).tolist()) for _ in range(2))
            rot = tuple(self._draw(rng, 4).tolist())
            out = _propagate(_offsets(initial, fixed), fixed, rot)
            assert all(type(v) is float for v in out)
            assert _hexes(out) == _hexes(propagate_oracle(initial, fixed, rot))
            outcomes.update("nan" if math.isnan(v) else v if math.isinf(v) else 0 for v in out)
        assert outcomes == {0, math.inf, -math.inf, "nan"}

    def test_columns_match_the_congruence_oracle_bit_for_bit(self):
        # the batched congruences of experiments._column: float states with a
        # rotation column
        rng = np.random.default_rng(2813)
        n, outcomes = 300, set()
        for _ in range(20):
            initial, fixed = (tuple(self._draw(rng, 10).tolist()) for _ in range(2))
            rot = self._draw(rng, (4, n))
            with np.errstate(all="ignore"):
                out = _congruences(_offsets(initial, fixed), fixed, rot)
                expected = np.array(propagate_oracle(initial, fixed, rot))
            assert out.shape == (10, n)
            assert _hexes(out) == _hexes(expected)
            kinds = np.where(np.isnan(out), 2.0, np.sign(out) * np.isinf(out))
            outcomes.update(kinds.ravel().tolist())
        assert outcomes == {0.0, 1.0, -1.0, 2.0}  # finite, inf, -inf and NaN


#: The entries of the local blocks A and B, in ``ENTRY_NAMES`` order.
LOCAL = np.array([("x" in name) != ("y" in name) for name in ENTRY_NAMES])

#: (t_max, n_t) time grids: two plain ones, one whose instants nearly all
#: round to 0, so its leading t = 0 instants go past index 0, and one that
#: ends at the largest float
GRIDS = ((50.0, 50), (7.25, 3), (5e-324, 20), (sys.float_info.max, 4))


def _grid(env, t_max, n_t):
    return _time_column(env.lam, env.omega, env.m, t_max, n_t)


class TestEvolveColumn:
    def test_matches_scalar_evolve_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        states = [ge.presets.initial_state(name) for name in ge.presets.PRESET_NAMES]
        states += [
            ge.CovarianceMatrix(random_physical_cm(rng, max_squeeze))
            for max_squeeze in (1.0, 2.0)
            for _ in range(100)
        ]
        # m*omega = 1e-3, 1 and 1e3, through m and through omega; at omega = 1e3
        # the phase overflows on the largest-float grid, so that grid is left out
        for m, omega in ((1e-3, 1.0), (1.0, 1.0), (1.0, 1e3)):
            env = _env(d_xpy=0.049, m=m, omega=omega)
            fixed = steady_covariance(env)
            # states that share entries with s_inf, whose offsets are then
            # +0.0, or -0.0 where s_inf's entry is 0.0 and the state's -0.0
            signed = tuple(-0.0 if v == 0.0 else v for v in fixed._values)
            assert 0.0 in signed
            shared = [fixed, ge.CovarianceMatrix._of(signed)] + [
                ge.CovarianceMatrix._of(
                    tuple(np.where(mask, fixed._values, other._values).tolist())
                )
                for other in states[:3]
                for mask in (LOCAL, ~LOCAL)
            ]
            for t_max, n_t in GRIDS[: 3 if omega > 1.0 else 4]:
                times, _, n_zero = _grid(env, t_max, n_t)
                zeros = [k for k, t in enumerate(times) if t == 0.0]
                assert list(range(n_zero)) == zeros
                assert len(zeros) == (10 if t_max == 5e-324 else 1)
                for initial in states + shared:
                    steady, column_times, entries = _column(initial, env, t_max, n_t)
                    assert steady == fixed and column_times is times
                    scalar = [ge.evolve(initial, env, t) for t in times]
                    # the t = 0 instants hold initial's entries, bit for bit
                    start = np.array(initial._values).view(np.uint64)
                    for k in zeros:
                        assert np.array_equal(entries[:, k].view(np.uint64), start)
                    states_t = list(_column_states(entries))
                    assert all(type(v) is float for state in states_t for v in state._values)
                    # uint64 views tell -0.0 from 0.0, which == does not
                    out = np.array([state._values for state in states_t])
                    expected = np.array([state._values for state in scalar])
                    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
                    out = np.array([state.entries for state in states_t])
                    assert np.array_equal(out, out.transpose(0, 2, 1))
                    assert not any(state.entries.flags.writeable for state in states_t)
                    # the checked constructor stores the same bits
                    assert all(ge.CovarianceMatrix(state.entries) == state for state in states_t)

    def test_overflow_raises_without_a_numpy_warning(self):
        # m*omega = 1e100 rotates sigma_xx = 1e200 into p_x as ~1e400; a column
        # has no negative instant (t_max > 0), so ge.evolve alone meets one
        env = ge.thermal_environment(0.1, 1.0, m=1e100)
        initial = ge.CovarianceMatrix(np.diag([1e200, 1.0, 1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"not finite at t = 0\.5050505050505051$"):
                ge.classify_phase(initial, env, 50.0, 100)
            with pytest.raises(OverflowError, match=r"not finite at t = 1\.0$"):
                _column(initial, env, 2.0, 3)
            # the phase check of the scalar path comes first, as the column is built
            far = ge.thermal_environment(0.1, 1.0, m=1e-200, omega=1e200)
            with pytest.raises(OverflowError, match="phase"):
                _grid(far, 1e200, 2)


class TestRotationColumn:
    """The rotations of ``experiments._time_column``, with its instants and
    the number of its leading t = 0 instants."""

    def test_equals_scalar_rotation_bit_for_bit_and_is_read_only(self):
        for m, omega in ((1e-3, 1.0), (1.0, 1.0), (1.0, 1e3), (2.0, 0.7)):
            env = _env(m=m, omega=omega)
            for t_max, n_t in GRIDS[: 3 if omega > 1.0 else 4]:
                times, rot, n_zero = _grid(env, t_max, n_t)
                with np.errstate(over="ignore"):
                    grid = np.linspace(0.0, t_max, n_t)
                assert type(times) is tuple and all(type(t) is float for t in times)
                assert _hexes(times) == _hexes(grid)
                expected = np.array([_rotation(env.lam, env.omega, env.m, t) for t in times]).T
                assert rot.shape == (4, n_t)
                assert np.array_equal(rot.view(np.uint64), expected.view(np.uint64))
                assert type(n_zero) is int and n_zero == sum(t == 0.0 for t in times)
                assert 0.0 not in times[n_zero:] and not rot.flags.writeable

    def test_no_caller_can_make_a_cached_column_writable(self):
        # every caller gets the same cached column: a write would reach them all
        env = _env()
        times, rot, _ = column = _grid(env, 2.0, 3)
        for array in (rot, rot.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
            assert not array.flags.writeable
        assert type(rot.base.base) is bytes
        with pytest.raises(TypeError):
            times[0] = 5.0
        again = _grid(env, 2.0, 3)
        expected = np.array([_rotation(env.lam, env.omega, env.m, t) for t in (0.0, 1.0, 2.0)]).T
        assert again is column and again[0] == (0.0, 1.0, 2.0)
        assert np.array_equal(again[1].view(np.uint64), expected.view(np.uint64))
        assert again[2] == 1

    def test_bath_temperature_shares_one_entry(self, monkeypatch):
        # the column is keyed on the oscillator and the grid, not on the bath's
        # temperature or diffusion: a second bath builds no rotation
        initial = ge.presets.initial_state("fig1")
        cold, warm = _env(c=1.0, d_xpy=0.049), _env(c=1.5, d_xy=0.01)
        _time_column.cache_clear()
        instants = rotation_instants(monkeypatch)
        for env in (cold, warm):
            column = _grid(env, 50.0, 100)
            _column(initial, env, 50.0, 100)
            assert len(instants) == 100
        assert _grid(cold, 50.0, 100) is column

    def test_distinct_dynamics_and_grids_get_their_own_columns(self):
        # each of lam, omega, m, t_max and n_t is part of the key
        envs = [_env(), _env(lam=0.2), _env(omega=2.0), _env(m=2.0)]
        grids = [(2.0, 3), (2.5, 3), (2.0, 4)]
        seen = set()
        for env in envs:
            for t_max, n_t in grids:
                times, rot, _ = _grid(env, t_max, n_t)
                expected = [_rotation(env.lam, env.omega, env.m, t) for t in times]
                assert times == tuple(np.linspace(0.0, t_max, n_t).tolist())
                assert np.array_equal(rot, np.array(expected).T)
                seen.add((times, rot.tobytes()))
        assert len(seen) == len(envs) * len(grids)

    def test_errors_are_not_cached(self, monkeypatch):
        far = _env(m=1e-200, omega=1e200)
        _time_column.cache_clear()
        instants = rotation_instants(monkeypatch)
        for k in range(1, 4):
            with pytest.raises(OverflowError, match="phase"):
                _grid(far, 1e200, 2)
            assert instants == [0.0, 1e200] * k  # the overflowing instant is the last
        assert _time_column.cache_info().currsize == 0


def _residual(initial, env, t_max, n_steps):
    return ode_residual_oracle(
        lambda t: ge.evolve(initial, env, t).entries,
        drift_matrix(env),
        diffusion_matrix(env),
        t_max,
        n_steps,
    )


class TestOdeResidual:
    def test_fixed_point_residual(self):
        env = _env(d_xpy=0.049)
        assert _residual(steady_covariance(env), env, 5.0, 50) <= 1e-10

    def test_magnitude_at_benchmark_resolution(self):
        env = _env(d_xpy=0.049)
        initial = ge.presets.initial_state("fig1")
        assert _residual(initial, env, 10.0, 1000) <= 1e-3  # dt = 0.01

    def test_second_order_convergence(self):
        env = _env(d_xpy=0.049)
        initial = ge.presets.initial_state("fig1")
        coarse = _residual(initial, env, 10.0, 1000)
        fine = _residual(initial, env, 10.0, 2000)
        assert 3.5 <= coarse / fine <= 4.5

    def test_needs_three_samples(self):
        initial = ge.presets.initial_state("vacuum")
        _residual(initial, _env(), 1.0, 2)  # three samples is the minimum
        with pytest.raises(ValueError):
            _residual(initial, _env(), 1.0, 1)
