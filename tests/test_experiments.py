import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gaussent as ge
from gaussent import experiments
from gaussent.cli import main
from gaussent.core import (
    MARGIN_TOL,
    EnvironmentSpec,
    thermal_c_from_temperature,
    validate_diffusion,
)
from gaussent.dynamics import propagator, steady_covariance
from gaussent.entanglement import asymptotic_simon, asymptotic_threshold, simon_function
from gaussent.experiments import (
    EVENT_MERGE_TOL,
    EVENT_TIME_TOL,
    PhaseClassification,
    PhaseDiagram,
    SweepResult,
    _merge_events,
)
from helpers import (
    diffusion_matrix,
    drift_matrix,
    lyapunov_oracle,
    merge_events_oracle,
    phase_status_oracle,
    random_physical_cm,
    reference_bath,
    refine_crossing_oracle,
    rotation_instants,
    simon_oracle_exact,
    sweep_rows_oracle,
)


@pytest.fixture(scope="module")
def fig1_initial():
    return ge.presets.initial_state("fig1")


@pytest.fixture(scope="module")
def fig3_initial():
    return ge.presets.initial_state("fig3")


class TestClassifyPhase:
    def test_benchmark_generates_entanglement(self, fig1_initial):
        phase = ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, 500)
        assert phase.label in ("generation_persistent", "collapse_revival")
        assert phase.event_times
        assert phase.event_times[0] > 0.0
        assert phase.s_initial_sign == 0  # S(0) = 0, classed separable
        assert phase.s_infinity_sign == -1

    def test_high_temperature_ends_separable(self, fig1_initial):
        phase = ge.classify_phase(fig1_initial, reference_bath(1.5), 50.0, 500)
        assert phase.s_infinity_sign == 1
        # crossings come in a generate/decay pair: transient entanglement
        assert phase.label == "generation_transient"
        assert len(phase.event_times) == 2

    @pytest.mark.parametrize("c", [1.0, 1.3, 2.5])
    def test_vacuum_in_uncorrelated_bath_stays_separable(self, c):
        env = ge.thermal_environment(0.1, c)
        phase = ge.classify_phase(ge.presets.initial_state("vacuum"), env, 60.0, 400)
        assert phase.label == "remains_separable"
        assert phase.event_times == ()
        assert phase.s_infinity_sign >= 0

    def test_entangled_initial_low_temperature_stays_entangled(self, fig3_initial):
        phase = ge.classify_phase(fig3_initial, reference_bath(1.0), 50.0, 500)
        assert phase.s_initial_sign == -1
        assert phase.s_infinity_sign == -1
        assert phase.label in ("remains_entangled", "collapse_revival")

    def test_entangled_initial_sudden_death(self, fig3_initial):
        phase = ge.classify_phase(fig3_initial, reference_bath(2.0), 50.0, 500)
        assert phase.label == "sudden_death"
        assert len(phase.event_times) == 1
        assert phase.s_infinity_sign == 1

    def test_events_bracket_true_sign_changes(self, fig1_initial):
        env = reference_bath(1.5)
        phase = ge.classify_phase(fig1_initial, env, 50.0, 500)
        for event in phase.event_times:
            lo = max(0.0, event - 1e-6)
            hi = event + 1e-6
            s_lo = simon_function(ge.evolve(fig1_initial, env, lo))
            s_hi = simon_function(ge.evolve(fig1_initial, env, hi))
            assert (s_lo < 0) != (s_hi < 0)

    def test_stable_under_grid_refinement(self, fig3_initial):
        env = reference_bath(1.2)
        coarse = ge.classify_phase(fig3_initial, env, 50.0, 250)
        fine = ge.classify_phase(fig3_initial, env, 50.0, 500)
        step = 50.0 / 249
        for event in coarse.event_times:
            assert any(abs(event - other) <= step for other in fine.event_times)

    def test_merge_keeps_odd_clusters_and_drops_even_ones(self):
        tol = EVENT_MERGE_TOL
        odd = [1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol]  # a chain: each gap below tol
        even = [2.0, 2.0 + 0.5 * tol]
        lone = [3.0]
        merged = _merge_events(odd + even + lone)
        assert merged == [0.5 * (odd[0] + odd[-1]), 3.0]
        assert _merge_events(even) == []
        assert _merge_events([1.0, 1.0 + 2.0 * tol]) == [1.0, 1.0 + 2.0 * tol]

    def test_merge_matches_the_crossing_triples(self):
        # crossings alternate the sign class, so merging bare times by the
        # parity of a cluster equals merging (t, before, after) triples
        rng = np.random.default_rng(7)
        for _ in range(500):
            gaps = rng.choice([0.3, 0.9, 1.5, 40.0], size=rng.integers(0, 12)) * EVENT_MERGE_TOL
            times = (1.0 + np.cumsum(gaps)).tolist()
            before = bool(rng.integers(2))
            triples = [
                (t, before ^ (k % 2 == 1), before ^ (k % 2 == 0)) for k, t in enumerate(times)
            ]
            expected = [t for t, _, _ in merge_events_oracle(triples, EVENT_MERGE_TOL)]
            assert _merge_events(times) == expected

    def test_non_thermal_bath_takes_the_sign_of_the_steady_state(self, fig1_initial):
        # d_xx != d_pxpx: no Gibbs asymptote, so no closed form for S at infinity
        signs = []
        for d_xpy in (0.0, 0.054):
            env = EnvironmentSpec(
                m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
                d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=d_xpy, d_pxpy=0.0,
            )
            assert not env.is_thermal()
            phase = ge.classify_phase(fig1_initial, env, 50.0, 500)
            exact = simon_oracle_exact(lyapunov_oracle(drift_matrix(env), diffusion_matrix(env)))
            assert abs(exact) > 1e-4
            assert phase.s_infinity_sign == (1 if exact > 0 else -1)
            # asymptotic_simon reads the same steady state, for any bath
            value = asymptotic_simon(env)
            assert value == pytest.approx(float(exact), abs=1e-12)
            assert phase.s_infinity_sign == (1 if value > 0 else -1)
            signs.append(phase.s_infinity_sign)
        assert signs == [1, -1]

    def test_thermal_bath_takes_the_sign_of_the_steady_state(self):
        # at C = C* the closed form reads +2.8e-17 and the steady state 0.0;
        # the sign comes from the steady state the column relaxes to
        env = ge.thermal_environment(0.1, 1.027612282028327, 0.0, 0.013875)
        assert asymptotic_threshold(env) == env.thermal_c
        s_inf = simon_function(steady_covariance(env))
        phase = ge.classify_phase(ge.presets.initial_state("vacuum"), env, 50.0, 100)
        assert phase.s_infinity_sign == (s_inf > 0) - (s_inf < 0)
        # one crossing leaves the last sample entangled, while S at infinity sits on
        # the boundary, which counts as separable: the record shows the short horizon
        assert len(phase.event_times) == 1 and phase.s_infinity_sign == 0
        last_entangled = (phase.s_initial_sign < 0) ^ len(phase.event_times) % 2
        assert last_entangled != (phase.s_infinity_sign < 0)

    @pytest.mark.parametrize("t_max", [1e12, 1e300])
    def test_a_crossing_in_a_wide_bracket_is_resolved_to_the_tolerance(self, t_max):
        # vacuum turns entangled near t = 4e-8, inside a first bracket of
        # t_max / 99, where the float spacing is far above EVENT_TIME_TOL
        vacuum, env = ge.presets.initial_state("vacuum"), reference_bath(1.0)
        reference = ge.classify_phase(vacuum, env, 50.0, 100)
        phase = ge.classify_phase(vacuum, env, t_max, 100)
        assert phase.label == reference.label == "generation_persistent"
        (event,), (expected,) = phase.event_times, reference.event_times
        tol = EVENT_TIME_TOL
        assert abs(event - expected) <= tol
        before, after = (ge.evolve(vacuum, env, t) for t in (event - tol, event + tol))
        assert simon_function(after) < 0.0 <= simon_function(before)

    def test_float_max_grid_ends_warn_nothing(self, fig1_initial):
        # np.linspace overflows an inner product of these ranges, and pytest
        # raises its RuntimeWarning; the grids are finite and end where asked
        top, env = sys.float_info.max, reference_bath(1.0)
        spec = ge.SweepSpec(env, fig1_initial, t_max=top, n_t=4, c_max=top, n_c=4)
        times = experiments._time_column(env.lam, env.omega, env.m, top, 4)[0]
        for grid in (np.array(times), spec.thermal_cs()):
            assert np.isfinite(grid).all() and grid[-1] == top
        phase = ge.classify_phase(fig1_initial, env, top, 4)
        assert phase.label == "generation_persistent"

    def test_a_time_grid_is_built_once(self, fig1_initial, monkeypatch, capsys):
        # CLI sweep at its defaults (500 x 20, fig1): the surface and the
        # classifications of all 20 columns read one time column, so _rotation
        # runs once per instant of the grid, then once per bisection step
        times = rotation_instants(monkeypatch)
        experiments._time_column.cache_clear()
        assert main(["sweep", "--set", "initial=fig1"]) == 0
        capsys.readouterr()
        assert len(times) == 500 + 1296
        assert times[:500] == np.linspace(0.0, 50.0, 500).tolist()
        # the library sweep at the same defaults reads that column, whose
        # instants are its times: only its 1,296 bisection steps rotate
        spec = ge.SweepSpec(env_base=reference_bath(1.0), initial=fig1_initial)
        assert ge.sweep(spec).times.tolist() == times[:500]
        assert len(times) == 1796 + 1296

    @pytest.mark.parametrize("size", [np.array, np.int64, np.int32])
    def test_numpy_integer_grid_sizes_give_the_int_results(self, fig1_initial, size):
        # a 0-d array passes operator.index, and the cache is keyed on the int
        phase = ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, 100)
        assert ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, size(100)) == phase
        spec = ge.SweepSpec(reference_bath(1.0), fig1_initial, 50.0, 10, 1.0, 1.5, 2)
        expected = ge.sweep(spec)
        result = ge.sweep(spec._replace(n_t=size(10), n_c=size(2)))
        for name in ("times", "thermal_cs", "simon", "log_neg", "defined"):
            assert np.array_equal(getattr(result, name), getattr(expected, name), equal_nan=True)
        assert result.classifications == expected.classifications

    def test_rejects_bad_grid(self, fig1_initial):
        with pytest.raises(ValueError):
            ge.classify_phase(fig1_initial, reference_bath(1.0), -1.0, 500)
        with pytest.raises(ValueError):
            ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, 1)
        for t_max in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t_max must be positive and finite"):
                ge.classify_phase(fig1_initial, reference_bath(1.0), t_max, 500)
        with pytest.raises(TypeError, match="^n_t must be an integer, got 100.0$"):
            ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, 100.0)
        phase = ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, np.int64(500))
        assert phase == ge.classify_phase(fig1_initial, reference_bath(1.0), 50.0, 500)
        # a grid is cached by (t_max, n_t): an unhashable 0-d array still works
        for t_max in (np.array(50.0), np.float64(50.0), 50):
            assert ge.classify_phase(fig1_initial, reference_bath(1.0), t_max, 500) == phase


def _bisection_columns():
    """(initial, env, t_max, n_t) of 320 seeded columns, presets and random
    states on random baths and grids, then the named edge cases."""
    rng = np.random.default_rng(2820)
    presets = [ge.presets.initial_state(name) for name in ge.presets.PRESET_NAMES]
    for k in range(320):
        if k % 2:
            initial = presets[k // 2 % len(presets)]
        else:
            initial = ge.CovarianceMatrix(random_physical_cm(rng, 1.5))
        lam, c = float(rng.choice([0.02, 0.1, 0.3])), float(rng.uniform(1.0, 2.0))
        m, omega = (1.0, 1.0) if k % 3 else (float(x) for x in rng.uniform(0.5, 2.0, 2))
        bound = 0.5 * lam * c
        d_xy = float(rng.uniform(-1.0, 1.0)) * bound / (m * omega) if k % 5 == 0 else 0.0
        d_xpy = float(rng.uniform(-1.0, 1.0)) * bound
        env = ge.thermal_environment(lam, c, d_xy, d_xpy, m, omega)
        t_max = float(rng.choice([5.0, 50.0, 400.0, 5000.0]))
        yield initial, env, t_max, int(rng.choice([2, 9, 40, 100, 300]))
    vacuum, fig1, fig3 = (ge.presets.initial_state(n) for n in ("vacuum", "fig1", "fig3"))
    # crossings near t = 4e-8 in first brackets far wider than EVENT_TIME_TOL
    yield vacuum, reference_bath(1.0), 1e12, 100
    yield vacuum, reference_bath(1.0), 1e300, 100
    # a crossing near t = 6.8e7, where bisection reaches the float spacing
    yield fig1, ge.thermal_environment(1e-7, 1.0, d_xpy=4.9e-8), 1e9, 1000
    # most instants round to 0 and take the initial state
    yield ge.presets.initial_state("fig2"), reference_bath(1.0), 5e-324, 100
    yield fig1, reference_bath(1.0), sys.float_info.max, 4
    # overflow on the grid, at a bisection step's state and at its S
    huge = ge.CovarianceMatrix(np.diag([1e200, 1.0, 1.0, 1.0]))
    yield huge, ge.thermal_environment(0.1, 1.0, m=1e100), 50.0, 100
    yield fig3, ge.thermal_environment(1.0, 1.0, m=1e-300), 400.0, 2
    light = ge.thermal_environment(0.1, 1.1326131950883198, m=6.890214336533412e-97)
    yield fig3, light, 2 * math.pi, 3


class TestBisectionSteps:
    def test_records_and_simon_calls_match_the_evolve_oracle(self, monkeypatch):
        # each bisection step propagates from constants formed once per
        # bracket; the oracle calls evolve at each step
        package_refine, simon = experiments._refine_crossing, experiments.simon_function
        calls = [0]

        def counted(sigma):
            calls[0] += 1
            return simon(sigma)

        monkeypatch.setattr(experiments, "simon_function", counted)
        errors, steps, columns = set(), 0, list(_bisection_columns())
        for initial, env, t_max, n_t in columns:
            outcomes = []
            for refine in (package_refine, refine_crossing_oracle):
                monkeypatch.setattr(experiments, "_refine_crossing", refine)
                calls[0] = 0
                try:
                    outcome = experiments.classify_phase(initial, env, t_max, n_t)
                except ArithmeticError as exc:
                    outcome = type(exc), str(exc)
                outcomes.append((outcome, calls[0]))
            assert outcomes[0] == outcomes[1], (initial, env, t_max, n_t)
            outcome, count = outcomes[0]
            if isinstance(outcome, PhaseClassification):
                steps += count - n_t  # S is read once per instant, then per step
            else:
                errors.add(outcome[1].split(" at t = ")[0].split(" (")[0])
        assert len(columns) >= 300 and steps > 8000
        assert errors == {
            "evolved covariance matrix is not finite",
            "Simon function is not finite",
        }

    def test_brackets_are_the_sign_changes_of_s_of_evolve(self, monkeypatch):
        # the column path hands _refine_crossing the brackets that S of evolve
        # at every instant gives; a bracket's midpoint stands in for its refinement
        brackets = []

        def recorded(initial, env, fixed, t_lo, t_hi, lo_entangled):
            brackets.append((t_lo, t_hi, lo_entangled))
            return 0.5 * (t_lo + t_hi)

        monkeypatch.setattr(experiments, "_refine_crossing", recorded)
        counts = [0, 0]
        for initial, env, t_max, n_t in _bisection_columns():
            with np.errstate(over="ignore"):
                times = np.linspace(0.0, t_max, n_t).tolist()
            try:
                classes = [simon_function(ge.evolve(initial, env, t)) < 0.0 for t in times]
                expected = [
                    (times[k], times[k + 1], classes[k])
                    for k in range(n_t - 1)
                    if classes[k] != classes[k + 1]
                ]
            except OverflowError as exc:
                expected = type(exc), str(exc)
            brackets.clear()
            try:
                experiments.classify_phase(initial, env, t_max, n_t)
                found = brackets[:]
            except OverflowError as exc:
                found = type(exc), str(exc)
            assert found == expected, (initial, env, t_max, n_t)
            counts[isinstance(found, list) and bool(found)] += 1
        assert counts[1] >= 100 and sum(counts) >= 300


class TestSweep:
    def test_benchmark_surface(self, fig1_initial):
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0),
            initial=fig1_initial,
            t_max=50.0,
            n_t=200,
            c_min=1.0,
            c_max=1.5,
            n_c=6,
        )
        result = ge.sweep(spec)
        assert result.simon.shape == (200, 6)
        assert len(result.classifications) == 6
        # low-temperature column: entangled (L > 0) at late times
        late = result.times > 30.0
        assert np.all(result.log_neg[late, 0] > 0.1)
        # high-temperature column: separable at late times
        assert np.all(result.simon[late, -1] > 0)
        assert np.all(result.log_neg[late, -1] == 0.0)
        assert result.defined.all()

    def test_rows_are_t_major(self, fig1_initial):
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0), initial=fig1_initial,
            t_max=1.0, n_t=3, c_min=1.0, c_max=1.2, n_c=2,
        )
        rows = sweep_rows_oracle(ge.sweep(spec))
        assert len(rows) == 6
        times = [row[0] for row in rows]
        assert times == sorted(times)
        assert [row[1] for row in rows[:2]] == [1.0, 1.2]

    def test_degenerate_grid(self, fig1_initial):
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0), initial=fig1_initial,
            t_max=1.0, n_t=2, c_min=1.0, c_max=1.0, n_c=1,
        )
        rows = sweep_rows_oracle(ge.sweep(spec))
        assert len(rows) == 2
        expected = ge.metrics(fig1_initial).log_negativity
        assert rows[0][3] == pytest.approx(expected, abs=1e-15)

    def test_mixed_state_preset_surface(self):
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0),
            initial=ge.presets.initial_state("fig2"),
            t_max=50.0,
            n_t=120,
            c_min=1.0,
            c_max=1.5,
            n_c=4,
        )
        result = ge.sweep(spec)
        late = result.times > 30.0
        assert np.all(result.log_neg[late, 0] > 0.0)
        assert np.all(result.simon[late, -1] > 0.0)

    def test_undefined_degree_propagates(self, fig3_initial):
        # the entangled presets start outside the physical set: L is undefined
        # at t = 0 and the marker must survive into the grid
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0), initial=fig3_initial,
            t_max=50.0, n_t=120, c_min=1.0, c_max=1.0, n_c=1,
        )
        result = ge.sweep(spec)
        assert not result.defined[0, 0]
        assert math.isnan(result.log_neg[0, 0])
        assert result.defined[-1, 0]

    def test_pointwise_ppt_consistency(self, fig1_initial):
        spec = ge.SweepSpec(
            env_base=reference_bath(1.0), initial=fig1_initial,
            t_max=50.0, n_t=150, c_min=1.0, c_max=1.5, n_c=5,
        )
        for _, _, s, degree, defined in sweep_rows_oracle(ge.sweep(spec)):
            if not defined or abs(s) <= 1e-12:
                continue
            assert (s < 0) == (degree > 0)

    def test_spec_validation(self, fig1_initial):
        with pytest.raises(ValueError, match="c_min"):
            ge.SweepSpec(env_base=reference_bath(1.0), initial=fig1_initial, c_min=0.5)
        with pytest.raises(ValueError, match="thermal"):
            lopsided = EnvironmentSpec(
                m=1.0, omega=1.0, lam=0.1, thermal_c=1.0,
                d_xx=0.06, d_xpx=0.0, d_pxpx=0.05, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0,
            )
            ge.SweepSpec(env_base=lopsided, initial=fig1_initial)
        for key, value in (
            ("n_t", 1),
            ("n_c", 0),
            ("t_max", math.inf),
            ("t_max", math.nan),
            ("c_max", math.inf),
            ("c_max", math.nan),
            ("c_min", math.nan),
        ):
            with pytest.raises(ValueError, match=f"^{key} must"):
                ge.SweepSpec(env_base=reference_bath(1.0), initial=fig1_initial, **{key: value})
        for key, value in (("n_t", 100.0), ("n_t", "100"), ("n_c", 2.0), ("n_c", None)):
            with pytest.raises(TypeError, match=f"^{key} must be an integer, got {value!r}$"):
                ge.SweepSpec(env_base=reference_bath(1.0), initial=fig1_initial, **{key: value})
        spec = ge.SweepSpec(reference_bath(1.0), fig1_initial, n_t=np.int64(100), n_c=np.int32(2))
        assert ge.sweep(spec).simon.shape == (100, 2)

    def test_spec_is_validated_however_built(self, fig1_initial):
        spec = ge.SweepSpec(reference_bath(1.0), fig1_initial)
        assert ge.SweepSpec._fields == (
            "env_base", "initial", "t_max", "n_t", "c_min", "c_max", "n_c"
        )
        assert tuple(spec)[2:] == (50.0, 500, 1.0, 1.5, 20)
        assert spec._replace(n_c=3) == ge.SweepSpec(reference_bath(1.0), fig1_initial, n_c=3)
        with pytest.raises(ValueError, match="^n_t must be at least 2, got 1$"):
            spec._replace(n_t=1)
        with pytest.raises(ValueError, match="^c_min must be >= 1, got 0.5$"):
            ge.SweepSpec._make([reference_bath(1.0), fig1_initial, 50.0, 500, 0.5, 1.5, 20])

    def test_results_equal_only_themselves(self, fig1_initial):
        # their arrays have no truth value: comparing fields would raise
        spec = ge.SweepSpec(reference_bath(1.0), fig1_initial, n_t=100, n_c=2)
        grid = (0.1, 1.0, [0.0, 0.049], [1.0, 1.2])
        pairs = (
            (ge.sweep(spec), ge.sweep(spec)),
            (ge.asymptotic_phase_diagram(*grid), ge.asymptotic_phase_diagram(*grid)),
        )
        for record, twin in pairs:
            assert record == record and not record != record
            assert record != twin and not record == twin
            assert hash(record) == hash(record) and len({record, twin}) == 2
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            assert not hasattr(record, "__dict__")
        assert SweepResult._fields == (
            "spec", "times", "thermal_cs", "simon", "log_neg", "defined", "classifications"
        )
        assert PhaseDiagram._fields == ("d_xpy_values", "thermal_cs", "entangled", "unphysical")
        assert PhaseClassification._fields == (
            "label", "event_times", "s_initial_sign", "s_infinity_sign"
        )

    def test_cells_equal_scalar_metrics_bit_for_bit(self):
        # presets, seeded physical states and lenient unphysical ones (random
        # symmetric matrices), on the benchmark bath and an m*omega != 1 bath
        rng = np.random.default_rng(20261018)
        states = [ge.presets.initial_state(name) for name in ge.presets.PRESET_NAMES]
        for _ in range(4):
            noise = rng.normal(size=(4, 4))
            states.append(ge.CovarianceMatrix(0.5 * (noise + noise.T)))
        states += [ge.CovarianceMatrix(random_physical_cm(rng, 1.5)) for _ in range(4)]
        baths = (
            reference_bath(1.0), ge.thermal_environment(0.1, 1.0, 0.0, 0.049, m=2.0, omega=0.7)
        )
        complex_pairs = nonpositive = 0
        for env in baths:
            for initial in states:
                spec = ge.SweepSpec(env_base=env, initial=initial, n_t=100, n_c=3)
                result = ge.sweep(spec)
                for t, c, s, degree, defined in sweep_rows_oracle(result):
                    expected = ge.metrics(ge.evolve(spec.initial, spec.environment_at(c), t))
                    assert s == expected.simon_s
                    assert degree == expected.log_negativity
                    assert defined == (expected.log_negativity is not None)
                    # with Delta~ > 0 only the NaN of a complex pair keeps L undefined
                    complex_pairs += math.isnan(expected.nu_tilde_minus_sq) and (
                        expected.seralian_tilde > 0.0
                    )
                    nonpositive += expected.nu_tilde_minus_sq <= 0.0
        # both undefined-L branches are compared: a negative discriminant
        # (NaN nu~_-^2) and a real nu~_-^2 <= 0
        assert complex_pairs > 0
        assert nonpositive > 0

    def test_overflow_raises_what_the_per_cell_order_raises(self):
        big_c = np.diag([0.5, 0.5, 0.5, 0.5]) + 1e77 * np.eye(4)[[2, 3, 0, 1]]
        fig1 = ge.presets.initial_state("fig1")
        cases = (
            # det C = 1e154 at t = 0: S ~ det C^2 is finite, Delta~^2 ~ 4 det C^2 is not
            (ge.CovarianceMatrix(big_c), reference_bath(1.0), "^PT symplectic"),
            # det A = det B = 1e160 at t = 0: S overflows first
            (ge.CovarianceMatrix(1e80 * np.eye(4)), reference_bath(1.0), "^Simon function"),
            # a huge steady state: the discriminant overflows at a later cell, and
            # at C = 5e77 S overflows at a still later one
            (fig1, ge.thermal_environment(0.1, 2e77, 0.0, 1e76), "^PT symplectic"),
            (fig1, ge.thermal_environment(0.1, 5e77, 0.0, 1e76), "^PT symplectic"),
        )
        for initial, env, message in cases:
            spec = ge.SweepSpec(
                env_base=env, initial=initial, n_t=100,
                c_min=env.thermal_c, c_max=env.thermal_c, n_c=1,
            )
            with pytest.raises(OverflowError) as scalar:
                for t in np.linspace(0.0, spec.t_max, spec.n_t).tolist():
                    ge.metrics(ge.evolve(initial, env, t))
            with pytest.raises(OverflowError, match=message) as column:
                ge.sweep(spec)
            assert str(column.value) == str(scalar.value)


class TestPhaseDiagram:
    def test_zero_row_is_all_separable(self):
        diagram = ge.asymptotic_phase_diagram(
            0.1, 1.0, [0.0], np.linspace(1.0, 1.5, 11)
        )
        assert not diagram.entangled.any()
        assert not diagram.unphysical.any()

    def test_benchmark_cells(self):
        diagram = ge.asymptotic_phase_diagram(0.1, 1.0, [0.049], [1.05, 1.2])
        assert diagram.entangled[0, 0]  # 1.05 < threshold 1.0975
        assert not diagram.entangled[0, 1]
        assert not diagram.unphysical.any()

    def test_constraint_violations_excluded(self):
        # lam/2 * c >= d_xpy fails for c < 1.2 at d_xpy = 0.06, lam = 0.1
        diagram = ge.asymptotic_phase_diagram(0.1, 1.0, [0.06], [1.0, 1.1, 1.3])
        assert diagram.unphysical[0, 0]
        assert diagram.unphysical[0, 1]
        assert not diagram.unphysical[0, 2]
        assert not diagram.entangled[0, 0]
        cells = zip(diagram.unphysical[0], diagram.entangled[0])
        statuses = [phase_status_oracle(*cell) for cell in cells]
        assert statuses == ["unphysical", "unphysical", "separable"]

    def test_boundary_matches_analytic_threshold(self):
        cs = np.linspace(1.0, 1.3, 61)
        cell = cs[1] - cs[0]
        d_rows = [0.02, 0.035, 0.049]
        diagram = ge.asymptotic_phase_diagram(0.1, 1.0, d_rows, cs)
        for i, d_xpy in enumerate(d_rows):
            threshold = asymptotic_threshold(ge.thermal_environment(0.1, 1.3, 0.0, d_xpy))
            assert threshold == pytest.approx(
                1 + 2 * d_xpy / math.sqrt(1.01), abs=1e-15
            )
            physical = ~diagram.unphysical[i]
            entangled_cs = cs[diagram.entangled[i] & physical]
            separable_cs = cs[~diagram.entangled[i] & physical]
            if len(entangled_cs):
                assert entangled_cs.max() <= threshold
                assert threshold - entangled_cs.max() <= cell
            assert separable_cs.min() >= threshold - cell

    def test_matches_per_cell_bounds_and_asymptote(self):
        # negative d_xpy rows too: the diffusion bound is on |d_xpy|
        lam, omega, m = 0.1, 0.8, 1.5
        d_rows = np.linspace(-0.08, 0.08, 17)
        cs = np.linspace(1.0, 1.6, 13)
        diagram = ge.asymptotic_phase_diagram(lam, omega, d_rows, cs, m=m)
        for i, d_xpy in enumerate(d_rows):
            # the row's C*, as asymptotic_threshold gives it, bit for bit
            env = ge.thermal_environment(lam, 1.0, 0.0, float(d_xpy), m, omega)
            expected = ~diagram.unphysical[i] & (cs < asymptotic_threshold(env))
            assert np.array_equal(diagram.entangled[i], expected), d_xpy
            for j, c in enumerate(cs):
                env = ge.thermal_environment(lam, float(c), 0.0, float(d_xpy), m, omega)
                checks = validate_diffusion(env)
                margin = next(check.margin for check in checks if check.name == "xx_pypy")
                if abs(margin) > MARGIN_TOL:
                    passed = all(check.passed for check in checks)
                    assert diagram.unphysical[i, j] == (not passed), (d_xpy, c)
                s_inf = asymptotic_simon(env)
                if not diagram.unphysical[i, j] and abs(s_inf) > 1e-12:
                    assert diagram.entangled[i, j] == (s_inf < 0.0), (d_xpy, c)
        assert diagram.unphysical[0, 0] and diagram.unphysical[-1, 0]

    @pytest.mark.parametrize("d_xy", [0.02, -0.03, 0.09])
    def test_position_cross_rows_match_per_cell_bounds_and_asymptote(self, d_xy):
        # the d_xy bound (lam/2) c >= m omega |d_xy| joins the d_xpy one, and
        # each row's C*+ is asymptotic_threshold's, bit for bit
        lam, omega, m = 0.1, 0.8, 1.5
        d_rows = np.linspace(-0.12, 0.12, 13)
        cs = np.linspace(1.0, 4.0, 61)
        diagram = ge.asymptotic_phase_diagram(lam, omega, d_rows, cs, m=m, d_xy=d_xy)
        for i, d_xpy in enumerate(d_rows.tolist()):
            env = ge.thermal_environment(lam, 1.0, d_xy, d_xpy, m, omega)
            expected = ~diagram.unphysical[i] & (cs < asymptotic_threshold(env))
            assert np.array_equal(diagram.entangled[i], expected), d_xpy
            for j, c in enumerate(cs.tolist()):
                env = ge.thermal_environment(lam, c, d_xy, d_xpy, m, omega)
                checks = validate_diffusion(env)
                if all(abs(check.margin) > MARGIN_TOL for check in checks):
                    passed = all(check.passed for check in checks)
                    assert diagram.unphysical[i, j] == (not passed), (d_xpy, c)
                s_inf = asymptotic_simon(env)
                if not diagram.unphysical[i, j] and abs(s_inf) > 1e-12:
                    assert diagram.entangled[i, j] == (s_inf < 0.0), (d_xpy, c)
        assert diagram.entangled.any() and diagram.unphysical.any()
        assert (~diagram.entangled & ~diagram.unphysical).any()

    def test_position_cross_past_its_bound_leaves_no_physical_cell(self):
        # (lam/2) c <= 0.075 < |d_xy| = 0.3 on the whole grid, as for steady
        diagram = ge.asymptotic_phase_diagram(0.1, 1.0, [0.0, 0.049], [1.0, 1.5], d_xy=0.3)
        assert diagram.unphysical.all() and not diagram.entangled.any()

    def test_text_input_is_rejected_not_parsed(self):
        # numpy's cast to float would parse it, where thermal_environment raises
        for d_grid, c_grid, name in (
            (["0.0", "0.04"], [1.0, 1.2], "d_xpy_grid"),
            ([0.0, 0.04], ["1.0", "1.2"], "c_grid"),
            ([b"0.0"], np.array([1.0]).astype(bytes), "d_xpy_grid"),
        ):
            with pytest.raises(TypeError, match=f"{name} must be real"):
                ge.asymptotic_phase_diagram(0.1, 1.0, d_grid, c_grid)

    def test_text_in_object_arrays_is_rejected_but_numbers_are_not(self):
        for d_grid, c_grid, name in (
            (np.array(["0.0", "0.04"], dtype=object), [1.0, 1.2], "d_xpy_grid"),
            ([0.0, 0.04], np.array([1.0, b"1.2"], dtype=object), "c_grid"),
        ):
            with pytest.raises(TypeError, match=f"{name} must be real numbers, got dtype object"):
                ge.asymptotic_phase_diagram(0.1, 1.0, d_grid, c_grid)
        exact = ge.asymptotic_phase_diagram(
            0.1, 1.0, np.array([Fraction(0), Fraction(1, 25)]), np.array([1, Fraction(6, 5)])
        )
        floats = ge.asymptotic_phase_diagram(0.1, 1.0, [0.0, 0.04], [1.0, 1.2])
        for got, want in zip(exact, floats):
            assert np.array_equal(got, want)

    def test_complex_input_is_rejected_not_truncated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            with pytest.raises(TypeError, match="d_xpy_grid must be real"):
                ge.asymptotic_phase_diagram(0.1, 1.0, np.array([0.01 + 1j]), [1.0])
            with pytest.raises(TypeError, match="c_grid must be real"):
                ge.asymptotic_phase_diagram(0.1, 1.0, [0.01], np.array([1.2], dtype=np.complex64))
            with pytest.raises(TypeError, match="c_grid must be real"):
                ge.asymptotic_phase_diagram(0.1, 1.0, [0.01], [1.0 + 0j])
            with pytest.raises(TypeError, match="parameters must be real"):
                ge.asymptotic_phase_diagram(0.1, 1.0, [0.01], [1.0], d_xy=np.complex128(0.01))

    def test_rejects_what_environments_reject(self):
        for args in (
            (0.0, 1.0, [0.0], [1.0]),
            (0.1, -1.0, [0.01], [1.0]),
            (0.1, 1.0, [0.01], [0.99, 1.2]),
            (0.1, 1.0, [0.01], [1.0, math.nan]),
            (0.1, 1.0, [0.01], [1.0, math.inf]),
            (0.1, 1.0, [math.nan], [1.0]),
            # an empty grid is validated too
            (-1.0, 1.0, [], [1.0]),
            (0.1, math.nan, [], []),
        ):
            with pytest.raises(ValueError):
                ge.asymptotic_phase_diagram(*args)
        with pytest.raises(ValueError):
            ge.asymptotic_phase_diagram(0.1, 1.0, [0.01], [1.0], m=0.0)

    @pytest.mark.parametrize(
        "d_xpy_grid,c_grid,message",
        [
            (0.01, 1.0, r"d_xpy_grid must be 1-D, got shape \(\)"),
            ([0.0, 0.01], 1.2, r"c_grid must be 1-D, got shape \(\)"),
            ([[0.0, 0.01]], [1.0, 1.2], r"d_xpy_grid must be 1-D, got shape \(1, 2\)"),
            ([0.0, 0.01], [[1.0], [1.2]], r"c_grid must be 1-D, got shape \(2, 1\)"),
        ],
    )
    def test_grids_must_be_one_dimensional(self, d_xpy_grid, c_grid, message):
        with pytest.raises(ValueError, match=message):
            ge.asymptotic_phase_diagram(0.1, 1.0, d_xpy_grid, c_grid)


def test_complex_scalars_are_rejected_not_truncated(fig1_initial):
    # float() and math keep a numpy complex's real part with only a
    # ComplexWarning; every public scalar entry raises TypeError instead, as
    # thermal_environment and asymptotic_phase_diagram do
    env = reference_bath(1.0)
    spec = ge.SweepSpec(env, fig1_initial, 5.0, 3, 1.0, 1.5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning included
        for value in (np.complex128(5 + 1j), np.complex64(5.0), np.array(5 + 0j)):
            with pytest.raises(TypeError, match="t_max must be real"):
                ge.classify_phase(fig1_initial, env, value, 100)
            with pytest.raises(TypeError, match="propagation time must be real"):
                ge.evolve(fig1_initial, env, value)
            with pytest.raises(TypeError, match="propagation time must be real"):
                propagator(env, value)
            with pytest.raises(TypeError, match="temperature and frequency must be real"):
                thermal_c_from_temperature(value)
            with pytest.raises(TypeError, match="temperature and frequency must be real"):
                thermal_c_from_temperature(1.0, value)
            for field in ("t_max", "c_min", "c_max"):
                with pytest.raises(TypeError, match=f"^{field} must be real"):
                    spec._replace(**{field: value})
        for call in (
            lambda: ge.classify_phase(fig1_initial, env, 5 + 1j, 100),
            lambda: ge.evolve(fig1_initial, env, 5 + 1j),
            lambda: thermal_c_from_temperature(1 + 1j),
            lambda: spec._replace(c_max=1.5 + 2j),
        ):
            with pytest.raises(TypeError):  # a Python complex fails the range checks
                call()
    # real numpy scalars and Python ints give the float results
    assert ge.evolve(fig1_initial, env, np.float32(5.0)) == ge.evolve(fig1_initial, env, 5)
    assert thermal_c_from_temperature(np.float64(2.0), np.int64(1)) == thermal_c_from_temperature(2.0)
    assert spec._replace(t_max=np.float64(5.0), c_max=np.int64(2)).c_max == 2
