"""The benchmark's four seeded workloads: input generation, requests, output checks.

Each workload draws its inputs from ``--seed`` alone and hands gaussent only
the generated argv lists or values.  It exposes them as ``requests``: calls
that each make one request ("query") and return its output.  A pass runs
every request once.  A "column" is the work for one value of the thermal
parameter (or, for ``point``, one bath's group of queries).  Output checks run
outside the timed passes against the references in ``oracles``.

- ``surface``: CLI ``sweep`` at its default 500 x 20 grid for fig1..fig4, with a
  seeded bath.  Loads dynamics.evolve and simon_function per cell plus the
  classify_phase resample of every column, and CSV formatting.
- ``classify``: library ``classify_phase`` on seeded columns at n_t = 100.
  Loads event detection and bisection; bypasses the CLI.
- ``point``: thousands of small CLI queries (metrics, evolve, steady).  Loads
  argument parsing, config validation, the Lyapunov solve and JSON.
- ``phase-map``: CLI ``phase-diagram`` on a seeded ~40k-cell grid.  Loads
  thermal_environment, asymptotic_simon and CSV rows; no propagation at all.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import gaussent
import gaussent.cli
import oracles
from helpers import random_physical_cm

PRESETS = ("vacuum", "fig1", "fig2", "fig3", "fig4")
SURFACE_PRESETS = ("fig1", "fig2", "fig3", "fig4")
#: Commands of one bath's group of point queries: mostly metrics.
COMMAND_MIX = ("metrics",) * 16 + ("evolve",) * 3 + ("steady",)

#: Absolute tolerance, per unit of scale = (1 + max|entry|)^k, for values
#: compared with an oracle: entries (k = 1), S (k = 4) and nu~^2 (k = 2).
#: Observed errors are below 1e-13 for each; the bounds leave 100x headroom.
ENTRY_TOL = 1e-11
SIMON_TOL = 1e-11
NU_SQ_TOL = 1e-11


#: Upper-triangle (i, j) of each CLI covariance key.
_ENTRY_INDEX = {
    "sigma_xx": (0, 0), "sigma_xpx": (0, 1), "sigma_xy": (0, 2), "sigma_xpy": (0, 3),
    "sigma_pxpx": (1, 1), "sigma_ypx": (1, 2), "sigma_pxpy": (1, 3),
    "sigma_yy": (2, 2), "sigma_ypy": (2, 3), "sigma_pypy": (3, 3),
}


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    sound: bool = True
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, *, sound: bool = True) -> None:
        self.failed += 1
        self.sound &= sound
        if len(self.notes) < 20:
            self.notes.append(note)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one in-process CLI request; return its exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = gaussent.cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _sets(**values) -> list[str]:
    argv = []
    for key, value in values.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return argv


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one from each of n equal slices of [lo, hi], in random order.

    Stratified inputs spread alike from seed to seed, so the work, and the
    percentiles of per-request times, stay comparable across seeds.
    """
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _initial_states(
    rng: random.Random, np_rng: np.random.Generator, n: int
) -> list[tuple[str | None, np.ndarray]]:
    """n initial states: half the presets in turn, half random physical ones, shuffled."""
    names = list(PRESETS)
    rng.shuffle(names)
    states = [
        (name, np.array(gaussent.presets.initial_state(name).entries))
        for name in (names[k % len(names)] for k in range(n // 2))
    ]
    states += [(None, random_physical_cm(np_rng, max_squeeze=0.8)) for _ in range(n - n // 2)]
    rng.shuffle(states)
    return states


def _initial_argv(name: str | None, entries: np.ndarray) -> list[str]:
    if name is not None:
        return _sets(initial=name)
    return _sets(**{key: float(entries[i, j]) for key, (i, j) in _ENTRY_INDEX.items()})


def _scale(mat: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(mat)))


def _nu_sq_tol(sigma: np.ndarray, gap: float) -> float:
    """Error bound for nu~_-^2 = half - sqrt(half^2 - det sigma).

    The square root amplifies rounding by 1/gap, gap = nu~_+^2 - nu~_-^2, up to
    about sqrt(machine epsilon) when the PT spectrum is degenerate (pure states
    such as fig1 at t = 0).
    """
    scale2 = _scale(sigma) ** 2
    cap = 1e-6 * scale2
    return NU_SQ_TOL * scale2 + (min(cap, 1e-13 * scale2 * scale2 / gap) if gap > 0 else cap)


def _check_degree(
    report: CheckReport,
    where: str,
    sigma: np.ndarray,
    defined: bool,
    degree: float,
    nu_minus_sq: float | None = None,
) -> None:
    """Compare a log-negativity (and nu~_-^2 if given) with the eigenvalue oracle."""
    minus, plus = oracles.pt_nu_sq(sigma)
    tol = _nu_sq_tol(sigma, abs(plus - minus))
    if abs(minus.imag) <= tol and abs(minus.real) <= tol:
        return  # nu~_-^2 indistinguishable from 0: defined-ness is not decidable
    oracle_defined = abs(minus.imag) <= tol and minus.real > tol
    if defined != oracle_defined:
        report.fail(f"{where}: defined={defined}, oracle nu~^2={minus:.6g}", sound=False)
    elif defined and nu_minus_sq is not None and abs(nu_minus_sq - minus.real) > tol:
        report.fail(f"{where}: nu~^2={nu_minus_sq!r}, oracle {minus.real!r}", sound=False)
    elif defined:
        expected = oracles.log_negativity(sigma)
        # d/dx of -log2(4x)/2 is -1/(2 x ln 2)
        if abs(degree - expected) > tol / (2.0 * math.log(2.0) * minus.real):
            report.fail(f"{where}: L={degree!r}, oracle {expected!r}", sound=False)


class Workload:
    name = ""
    #: Module imported during set-up, before the first call.
    entry = "gaussent"
    requests: list[Callable[[], object]]

    def columns(self, times: list[float]) -> list[float]:
        """Per-column seconds from one pass's per-request seconds."""
        raise NotImplementedError

    def check(self, outputs: list) -> CheckReport:
        """Check one pass's outputs, in request order."""
        raise NotImplementedError


class Surface(Workload):
    name = "surface"
    entry = "gaussent.cli"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.lam, self.t_max, self.c_min = 0.1, 50.0, 1.0
        self.d_xpy = rng.uniform(0.03, 0.0495)  # diffusion bound at c = 1: d_xpy <= lam/2
        self.c_max = rng.uniform(1.2, 2.0)
        self.n_t, self.n_c = (40, 3) if smoke else (500, 20)
        grid = _sets(n_t=self.n_t, n_c=self.n_c) if smoke else []
        self.requests = [
            partial(_cli, ["sweep", *_sets(initial=name, d_xpy=self.d_xpy, c_max=self.c_max), *grid])
            for name in SURFACE_PRESETS
        ]

    def columns(self, times: list[float]) -> list[float]:
        return [t / self.n_c for t in times]

    def check(self, outputs: list) -> CheckReport:
        report = CheckReport()
        times = np.linspace(0.0, self.t_max, self.n_t)
        cs = np.linspace(self.c_min, self.c_max, self.n_c)
        y = oracles.drift(self.lam, 1.0)
        steady = [oracles.steady_state(y, oracles.thermal_diffusion(self.lam, c, self.d_xpy)) for c in cs]
        np_rng = np.random.default_rng(self.seed)
        n_cells = self.n_t * self.n_c
        for name, (code, text) in zip(SURFACE_PRESETS, outputs):
            report.attempted += n_cells
            lines = text.splitlines()
            if code != 0 or not lines or lines[0] != "t,c,S,L,defined" or len(lines) != n_cells + 1:
                report.failed += n_cells
                report.sound = False
                report.notes.append(f"{name}: exit {code}, {len(lines)} lines")
                continue
            rows = [line.split(",") for line in lines[1:]]
            sigma0 = np.array(gaussent.presets.initial_state(name).entries)
            samples = set(np_rng.choice(n_cells, size=min(50, n_cells), replace=False).tolist())
            samples.add(0)
            for k, row in enumerate(rows):
                i, j = divmod(k, self.n_c)
                where = f"{name} cell {k}"
                try:
                    t, c, s, degree = map(float, row[:4])
                    defined = row[4] == "1"
                except (ValueError, IndexError):
                    report.fail(f"{where}: unreadable row {row}", sound=False)
                    continue
                if (
                    len(row) != 5
                    or t != times[i]
                    or c != cs[j]
                    or not math.isfinite(s)
                    or row[4] not in ("0", "1")
                    or defined != math.isfinite(degree)
                    or (defined and degree < 0.0)
                ):
                    report.fail(f"{where}: malformed row", sound=False)
                    continue
                if k not in samples:
                    continue
                sigma = oracles.evolve(sigma0, y, steady[j], t)
                exact = oracles.simon_exact(sigma)
                if abs(s - exact) > SIMON_TOL * _scale(sigma) ** 4:
                    report.fail(f"{where}: S={s!r}, oracle {exact!r}", sound=False)
                    continue
                _check_degree(report, where, sigma, defined, degree)
        return report


class Classify(Workload):
    name = "classify"

    #: The reference grid is this many times finer than the classified one.
    REFINE = 50

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        self.lam, self.omega, self.t_max, self.n_t = 0.1, 1.0, 50.0, 100
        n = 6 if smoke else 500
        # the surface studies' regime: C in [1, 1.5] and strong cross
        # diffusion, up to the bound d_xpy <= lam/2 at C = 1
        self.inputs = [
            (c, fraction * 0.5 * self.lam, entries)
            for c, fraction, (_, entries) in zip(
                _stratified(rng, n, 1.0, 1.5),
                _stratified(rng, n, 0.6, 0.99),
                _initial_states(rng, np_rng, n),
            )
        ]
        self.requests = [
            partial(
                self._classify,
                gaussent.CovarianceMatrix(entries),
                gaussent.thermal_environment(self.lam, c, 0.0, d_xpy),
            )
            for c, d_xpy, entries in self.inputs
        ]

    def _classify(self, initial, env) -> tuple:
        # looked up on the package at call time, so the traced run sees it
        result = gaussent.classify_phase(initial, env, self.t_max, self.n_t)
        return result.label, result.event_times, result.s_initial_sign, result.s_infinity_sign

    def columns(self, times: list[float]) -> list[float]:
        return list(times)

    def check(self, outputs: list) -> CheckReport:
        """Soundness against exact S; completeness against a finer reference grid.

        A column whose events are real sign changes of S, but which misses
        crossings the finer grid sees, is counted as failed without making
        the run unsound: that is the known grid dependence of classify_phase.
        """
        report = CheckReport()
        y = oracles.drift(self.lam, self.omega)
        fine = np.linspace(0.0, self.t_max, self.REFINE * (self.n_t - 1) + 1)
        mats = oracles.propagators(y, fine)
        for k, ((c, d_xpy, sigma0), (label, events, s0_sign, sinf_sign)) in enumerate(
            zip(self.inputs, outputs)
        ):
            report.attempted += 1
            where = f"column {k} (c={c!r}, d_xpy={d_xpy!r})"
            s_inf = oracles.steady_state(y, oracles.thermal_diffusion(self.lam, c, d_xpy))
            s0 = oracles.sign_class(oracles.simon_exact(sigma0))
            sinf = oracles.sign_class(oracles.simon_exact(s_inf))
            start_entangled = s0_sign < 0
            unsound = []
            if s0 != 0 and s0 != s0_sign:
                unsound.append(f"initial sign {s0_sign}, exact {s0}")
            if sinf != 0 and sinf != sinf_sign:
                unsound.append(f"asymptotic sign {sinf_sign}, exact {sinf}")
            if label != oracles.label_for(start_entangled, len(events)):
                unsound.append(f"label {label} inconsistent with {len(events)} events")
            if any(not 0.0 < t < self.t_max for t in events) or list(events) != sorted(events):
                unsound.append(f"event times out of order or range: {events}")
            start_class = s0 < 0 if s0 != 0 else start_entangled
            for t in events:
                # sign class of S on both sides of the event; at t <= 0 it is
                # the start class.  Where S is within the boundary band on
                # either side (a state that starts on or grazes the boundary)
                # its floating-point sign is rounding, so the event stands.
                sides = []
                for side in (t - 5e-7, t + 5e-7):
                    if side <= 0.0:
                        sides.append(-1 if start_class else 1)
                        continue
                    sigma = oracles.evolve(sigma0, y, s_inf, side)
                    s = oracles.simon_grid(sigma[None])[0]
                    sides.append(oracles.sign_class(s, _scale(sigma) ** 4))
                if sides[0] == sides[1] != 0:
                    unsound.append(f"no sign change of S at event t={t!r}")
            if unsound:
                report.fail(f"{where}: " + "; ".join(unsound), sound=False)
                continue
            classes = oracles.trajectory_simon(sigma0, s_inf, mats) < 0.0
            classes[0] = start_class  # a boundary start follows the package's sign
            n_ref = int(np.count_nonzero(classes[1:] != classes[:-1]))
            ref_label = oracles.label_for(bool(classes[0]), n_ref)
            if (ref_label, n_ref) != (label, len(events)):
                report.fail(
                    f"{where}: {label} with {len(events)} events, "
                    f"{self.REFINE}x finer grid: {ref_label} with {n_ref}"
                )
        return report


class Point(Workload):
    name = "point"
    entry = "gaussent.cli"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        n_baths = 1 if smoke else 100
        self.queries = []  # (bath index, command, bath, t, initial entries)
        self.requests = []
        for b, bath in enumerate(
            zip(
                _stratified(rng, n_baths, 0.05, 0.2),
                _stratified(rng, n_baths, 0.5, 2.0),
                _stratified(rng, n_baths, 1.0, 2.0),
                _stratified(rng, n_baths, 0.0, 0.99),
            )
        ):
            lam, omega, c, fraction = bath
            bath = (lam, omega, c, fraction * 0.5 * lam * c)
            bath_argv = [
                "--format", "json", *_sets(**{"lambda": lam}, omega=omega, c=c, d_xpy=bath[3])
            ]
            commands = list(COMMAND_MIX)
            rng.shuffle(commands)
            times = _stratified(rng, len(commands), 0.0, 60.0)
            states = _initial_states(rng, np_rng, len(commands))
            for command, t, (name, entries) in zip(commands, times, states):
                argv = [command, *bath_argv]
                if command != "steady":
                    argv += _sets(t=t) + _initial_argv(name, entries)
                self.queries.append((b, command, bath, t, entries))
                self.requests.append(partial(_cli, argv))
        self.n_baths = n_baths

    def columns(self, times: list[float]) -> list[float]:
        per_bath = [0.0] * self.n_baths
        for query, elapsed in zip(self.queries, times):
            per_bath[query[0]] += elapsed
        return per_bath

    def check(self, outputs: list) -> CheckReport:
        report = CheckReport()
        steady_cache: dict[tuple, np.ndarray] = {}
        for k, ((_, command, bath, t, sigma0), (code, text)) in enumerate(
            zip(self.queries, outputs)
        ):
            report.attempted += 1
            where = f"query {k} ({command})"
            lam, omega, c, d_xpy = bath
            y = oracles.drift(lam, omega)
            if bath not in steady_cache:
                d = oracles.thermal_diffusion(lam, c, d_xpy, omega=omega)
                steady_cache[bath] = oracles.steady_state(y, d)
            s_inf = steady_cache[bath]
            try:
                result = json.loads(text)["result"] if code == 0 else None
            except (ValueError, KeyError):
                result = None
            if result is None:
                report.fail(f"{where}: exit {code}, unreadable output", sound=False)
                continue
            if command in ("steady", "evolve"):
                expected = s_inf if command == "steady" else oracles.evolve(sigma0, y, s_inf, t)
                got = np.zeros((4, 4))
                for key, (i, j) in _ENTRY_INDEX.items():
                    got[i, j] = got[j, i] = result["entries"][key]
                err = float(np.max(np.abs(got - expected)))
                if err > ENTRY_TOL * _scale(expected):
                    report.fail(f"{where}: entries differ from the oracle by {err:.3e}", sound=False)
                continue
            sigma = oracles.evolve(sigma0, y, s_inf, t)
            exact = oracles.simon_exact(sigma)
            s = result["simon_s"]
            if abs(s - exact) > SIMON_TOL * _scale(sigma) ** 4:
                report.fail(f"{where}: S={s!r}, oracle {exact!r}", sound=False)
                continue
            if result["separable"] != (s >= 0.0) or result["boundary"] != (abs(s) <= 1e-12):
                report.fail(f"{where}: flags disagree with S={s!r}", sound=False)
                continue
            degree = result["log_negativity"]
            _check_degree(
                report,
                where,
                sigma,
                bool(result["defined"]),
                math.nan if degree is None else degree,
                result["nu_tilde_minus_sq"],
            )
        return report


class PhaseMap(Workload):
    name = "phase-map"
    entry = "gaussent.cli"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.lam = rng.uniform(0.05, 0.2)
        self.omega = rng.uniform(0.5, 2.0)
        # d_xpy up to the diffusion bound at c_max: every status occurs, and
        # the unphysical cells, which skip the Simon evaluation, stay a fixed
        # quarter of the grid whatever the seed
        self.c_max = 2.0
        self.d_max = 0.5 * self.lam * self.c_max
        self.n = 12 if smoke else 200
        argv = [
            "phase-diagram",
            *_sets(**{"lambda": self.lam}, omega=self.omega, d_xpy_min=0.0, d_xpy_max=self.d_max),
            *_sets(n_d=self.n, c_min=1.0, c_max=self.c_max, n_c=self.n),
        ]
        self.requests = [partial(_cli, argv)]

    def columns(self, times: list[float]) -> list[float]:
        return [t / self.n for t in times]

    def check(self, outputs: list) -> CheckReport:
        report = CheckReport(attempted=self.n * self.n)
        (code, text), = outputs
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != "d_xpy,c,status" or len(lines) != self.n**2 + 1:
            report.failed, report.sound = report.attempted, False
            report.notes.append(f"exit {code}, {len(lines)} lines")
            return report
        d_grid = np.linspace(0.0, self.d_max, self.n)
        c_grid = np.linspace(1.0, self.c_max, self.n)
        expected, on_threshold = oracles.phase_status(self.lam, self.omega, d_grid, c_grid)
        expected, on_threshold = expected.ravel(), on_threshold.ravel()
        d_expected = np.repeat(d_grid, self.n)
        c_expected = np.tile(c_grid, self.n)
        for k, line in enumerate(lines[1:]):
            try:
                d_text, c_text, status = line.split(",")
                on_grid = float(d_text) == d_expected[k] and float(c_text) == c_expected[k]
            except ValueError:
                on_grid = False
            if not on_grid:
                report.fail(f"cell {k}: unreadable or off the grid: {line!r}", sound=False)
            elif status != expected[k] and not (on_threshold[k] and status != "unphysical"):
                report.fail(f"cell {k} ({line}): expected {expected[k]}", sound=False)
        return report


WORKLOADS = {cls.name: cls for cls in (Surface, Classify, Point, PhaseMap)}
