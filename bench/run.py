#!/usr/bin/env python3
"""spectrosens benchmark.

Drives the package through its public functions only, checks every output
against an independent path or an identity, and prints each metric by name
with its unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload point --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see bench/README.md for why each exists):

* ``point``    closed loop, one client calling ``pipeline.evaluate_point``
  on seeded operating points, routes full/adiabatic/both in rotating order,
  plus, untimed, a few probes that are known to fail;
* ``sweep``    ``cli.run_sweep`` + ``cli.write_csv`` on a seeded 2-D
  detuning x rate grid, one pass at workers=1 then one at workers=2;
* ``validate`` closed loop over seeded points, each checked by the Monte-Carlo,
  quadrature and finite-difference oracles.

``--trace 0`` measures the end-to-end metrics with tracing off; their timings
are scaled to a reference machine speed by a calibration kernel timed between
requests, and the unscaled values are printed as ``raw.*``.  ``--trace 1``
runs the same seed once untraced and once with every layer wrapped by
``bench/tracing.py`` and reports the per-layer metrics; the spans are written
to ``bench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("point", "sweep", "validate")
ROUTES = ("full", "adiabatic", "both")
SETUP_PROBES = 5           # fresh processes timed for setup_s; median reported

# point: reaction-rate bands in MHz (log-uniform draws) and the failure probes
RATE_BANDS = {"slow": (1e-7, 1e-5), "default": (5e-5, 2e-4), "fast": (1.0, 10.0)}
POINT_COUNT = 2000                  # operating points drawn; 3 requests each
# Detunings are drawn in +-POINT_DETUNING_MHZ.  At fast rates and detunings
# below about -90 MHz the adiabatic route fails with FitResidualExceeded, so
# timed requests stay inside +-80 MHz and the defect is kept in view by the
# in-range probe at DEFECT_DETUNING_MHZ.
POINT_DETUNING_MHZ = 80.0
DEFECT_DETUNING_MHZ = -100.0
# Probes run once per point run, outside the timed loop and the request
# count: a NaN detuning and two seeded picks from PROBES, each of which should
# end in a typed ModelError, and one fast-band point at DEFECT_DETUNING_MHZ on
# the adiabatic route, which should give a result.  The probe_* report lines
# say how each ended.
PROBES = [
    {"detuning_a_mhz": float("inf")},
    {"rate_a_mhz": -1e-4},
    {"gamma_mhz": 0.0},
    {"density_per_m3": -1e20},
    {"power_mw": "1 mW"},
    {"probe_power_mw": 1.0},
]
ROUTE_DEVIATION_TOL = 0.02          # acceptance-3 tolerance, adiabatic regime
# Most negative sigma2 eigenvalue allowed, relative to max|sigma2|.  The
# finite-difference cumulants of the full route carry errors of a few 1e-3
# in D, and at slow, unequal rates they leave eigenvalues near -3e-4; the
# report counts every strictly negative one (sigma2_not_psd).
PSD_TOL = 1e-3

# sweep: grid shape (detuning x rate) and rows re-evaluated with cli.run_point
SWEEP_SHAPE = (3, 4)
SWEEP_SAMPLED_ROWS = 3

# validate: oracle settings and tolerances
VALIDATE_COUNT = 500
MC_TRAJECTORIES = 10_000
MC_PULL_TOL = 5.0                   # max |MC - expectation| / stderr
QUAD_TOL = 1e-6
FD_TOL = 1e-6

REGIMES = {"PSNL", "CL", "IR", "Unclassified"}


# ---------------------------------------------------------------------------
# package import and inputs (this is what setup_s times)
# ---------------------------------------------------------------------------

def import_package():
    if not os.path.isfile(os.path.join(SRC, "spectrosens", "__init__.py")):
        sys.exit("bench: src/spectrosens not found; run from a source checkout")
    sys.path.insert(0, SRC)
    import numpy as np
    from spectrosens import (adiabatic, cli, errors, estimation, oracles,
                             params, pipeline, propagation)
    return dict(np=np, adiabatic=adiabatic, cli=cli, errors=errors,
                estimation=estimation, oracles=oracles, params=params,
                pipeline=pipeline, propagation=propagation)


def _log_uniform(rng, low, high):
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def make_inputs(pkg, workload, seed):
    """Seeded inputs of one workload; the same seed gives the same inputs."""
    np = pkg["np"]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "point":
        requests = []
        bands = list(RATE_BANDS)
        for block in range(POINT_COUNT // 3):
            for band_index in rng.permutation(3):
                rate = _log_uniform(rng, *RATE_BANDS[bands[band_index]])
                config = {"detuning_a_mhz": float(rng.uniform(
                              -POINT_DETUNING_MHZ, POINT_DETUNING_MHZ)),
                          "rate_a_mhz": rate,
                          "rate_b_mhz": rate * _log_uniform(rng, 0.5, 2.0)}
                shift = len(requests) // 3 % 3
                for k in range(3):
                    requests.append((config, ROUTES[(shift + k) % 3],
                                     bands[band_index]))
        probes = [{"detuning_a_mhz": float("nan")}]
        probes += [PROBES[i] for i in rng.choice(len(PROBES), 2, replace=False)]
        rate = _log_uniform(rng, *RATE_BANDS["fast"])
        defect = {"detuning_a_mhz": DEFECT_DETUNING_MHZ, "rate_a_mhz": rate,
                  "rate_b_mhz": rate * _log_uniform(rng, 0.5, 2.0)}
        return {"requests": requests, "probes": probes, "defect": defect}
    if workload == "sweep":
        det_lo, det_hi = rng.uniform(-100.0, -20.0), rng.uniform(20.0, 100.0)
        rate_lo = _log_uniform(rng, 1e-6, 1e-5)
        rate_hi = _log_uniform(rng, 1e-1, 10.0)
        axes = [f"detuning,linear,{det_lo:.6g},{det_hi:.6g},{SWEEP_SHAPE[0]}",
                f"rate,log,{rate_lo:.6g},{rate_hi:.6g},{SWEEP_SHAPE[1]}"]
        rows = SWEEP_SHAPE[0] * SWEEP_SHAPE[1]
        sampled = sorted(int(i) for i in rng.choice(rows, SWEEP_SAMPLED_ROWS,
                                                     replace=False))
        return {"config": pkg["params"].default_config(), "axes": axes,
                "sampled": sampled}
    points = []
    for index in range(VALIDATE_COUNT):
        rate = _log_uniform(rng, 1e-6, 1e-2)
        points.append(({"detuning_a_mhz": float(rng.uniform(-100.0, 100.0)),
                        "rate_a_mhz": rate,
                        "rate_b_mhz": rate * _log_uniform(rng, 0.5, 2.0)},
                       int(np.random.SeedSequence([seed, index])
                           .generate_state(1)[0])))
    return points


def validate_inputs(pkg, workload, inputs):
    """Run every generated configuration through ``params.from_config``, as a
    user does before evaluating; the point probes it rejects are run again
    by ``run_probes``."""
    from_config = pkg["params"].from_config
    if workload == "point":
        configs = list({id(c): c for c, _, _ in inputs["requests"]}.values())
        configs += inputs["probes"] + [inputs["defect"]]
    elif workload == "sweep":
        configs = [inputs["config"]]
    else:
        configs = [config for config, _ in inputs]
    for config in configs:
        try:
            from_config(config)
        except pkg["errors"].ModelError:
            pass


def setup(workload, seed):
    pkg = import_package()
    inputs = make_inputs(pkg, workload, seed)
    validate_inputs(pkg, workload, inputs)
    return pkg, inputs


def children_cpu_seconds():
    """CPU time (user + system) of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload, seed):
    """Median CPU time of a fresh interpreter doing import + inputs.  CPU
    time, not wall time: this shared virtual machine loses its CPU to the
    hypervisor for a quarter of the time in some minutes and not in others,
    and that stolen time is not charged to the process."""
    times = []
    for _ in range(SETUP_PROBES):
        start = children_cpu_seconds()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe", "--workload", workload,
                        "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(children_cpu_seconds() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

# Median duration of the calibration kernel on the reference machine (the
# 2-core box the baseline was measured on).  Each request's time is scaled by
# CALIBRATION_REF_S / (kernel time around it).
CALIBRATION_REF_S = 0.013
CALIBRATION_SHARE = 0.1


def make_calibration(np):
    """A fixed kernel owned by the benchmark, in the proportions of the
    package's hot paths (small complex eigensolves, small Kronecker products,
    per-trajectory Philox generators with exponential draws).  It does not
    change when the package changes, so timing it between requests measures
    how fast the machine runs at that moment."""
    matrix = np.random.default_rng(0).normal(size=(16, 16)) + 0j
    block = matrix[:4, :4]

    def calibrate():
        start = time.perf_counter()
        for i in range(40):
            np.linalg.eigvals(matrix)
            np.kron(block, block)
            rng = np.random.Generator(
                np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
            for _ in range(25):
                rng.exponential(1.0)
        return time.perf_counter() - start
    return calibrate


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

class Calibrations(list):
    """Calibration kernel times of one run.  The kernel runs before the first
    request and after each request, for about CALIBRATION_SHARE of that
    request's time and at least once, so long requests sample the machine
    as densely as short ones.  A request's speed is taken from the samples on
    both sides of it, which cover the interval it ran in."""

    def __init__(self, calibrate):
        super().__init__()
        self.calibrate = calibrate
        self.previous = None

    def sample(self, seconds):
        """Median kernel time over about CALIBRATION_SHARE * seconds."""
        count = max(1, round(CALIBRATION_SHARE * seconds / CALIBRATION_REF_S))
        times = [self.calibrate() for _ in range(count)]
        self.extend(times)
        return statistics.median(times)

    def measure(self, run):
        """Run ``run()``, which returns an Outcome, and set its speed relative
        to the reference, CALIBRATION_REF_S / kernel time around it."""
        before = self.previous if self.previous is not None else self.sample(0)
        out = run()
        self.previous = self.sample(out.seconds)
        out.speed = CALIBRATION_REF_S / (0.5 * (before + self.previous))
        return out


class Outcome:
    """One request: wall time, result or error name, whether the error was a
    typed ModelError, and the machine speed measured around it."""

    __slots__ = ("index", "seconds", "value", "error", "typed", "speed")

    def __init__(self, index, seconds, value=None, error=None, typed=False,
                 speed=1.0):
        self.index, self.seconds, self.value = index, seconds, value
        self.error, self.typed, self.speed = error, typed, speed


def attempt(pkg, index, fn, *args, speed=None):
    if speed is not None:
        return speed.measure(lambda: attempt(pkg, index, fn, *args))
    value, error, typed = None, None, False
    start = time.perf_counter()
    try:
        value = fn(*args)
    except pkg["errors"].ModelError as exc:
        error, typed = type(exc).__name__, True
    except Exception as exc:  # counted as an untyped failure, run continues
        error = type(exc).__name__
    return Outcome(index, time.perf_counter() - start, value, error, typed)


def run_probes(pkg, inputs):
    """The probes once each, untimed and outside the request count; returns
    (out-of-range outcomes, outcome of the in-range defect probe)."""
    request = point_request(pkg)
    probes = [attempt(pkg, i, request, probe, "full")
              for i, probe in enumerate(inputs["probes"])]
    return probes, attempt(pkg, 0, request, inputs["defect"], "adiabatic")


def point_request(pkg):
    from_config = pkg["params"].from_config
    evaluate_point = pkg["pipeline"].evaluate_point

    def request(config, route):
        return evaluate_point(from_config(config), route)
    return request


def sweep_request(pkg):
    cli = pkg["cli"]

    def request(inputs, workers):
        rows = cli.run_sweep(inputs["config"], inputs["axes"], "full",
                             workers=workers)
        buffer = io.StringIO()
        cli.write_csv(rows, buffer)
        return rows, buffer.getvalue()
    return request


def validate_request(pkg, counters):
    """Three oracle checks of one point; returns the three discrepancies
    (MC pull, quadrature error, finite-difference error)."""
    np, adiabatic, oracles = pkg["np"], pkg["adiabatic"], pkg["oracles"]
    propagation, estimation = pkg["propagation"], pkg["estimation"]
    from_config = pkg["params"].from_config

    def request(config, mc_seed):
        params = from_config(config)
        j0 = params.derived.photon_flux_j0

        mc = oracles.McConfig(n_trajectories=MC_TRAJECTORIES, seed=mc_seed)
        rate, stderr = oracles.telegraph_mc_diffusion(params, mc)
        t_r = adiabatic.reaction_time(params)
        _, horizon = mc.resolve(t_r)
        # exact mean of the finite-horizon estimator of a stationary telegraph
        # signal: the infinite-horizon term times 1 - (t_R/T)(1 - e^{-T/t_R})
        finite = 1.0 - t_r / horizon * (1.0 - math.exp(-horizon / t_r))
        expected = finite * adiabatic.chemical_rate_term(params, j0,
                                                          method="weak_field")
        pull = float(np.max(np.abs(rate - expected) / stderr))

        # the weak-field rate is exactly D1*J + D2*J^2/2, so two evaluations
        # give D1 and D2 and the closed form must equal the quadrature
        s_plus, s_minus = adiabatic.effective_cross_sections(params)
        z = propagation.z_optimal(params, s_plus)

        def rate_fn(j):
            counters["rate_calls"] += 1
            return adiabatic.adiabatic_rate(params, j, method="weak_field")
        r_full, r_half = rate_fn(j0), rate_fn(0.5 * j0)
        d2 = 4.0 * (r_full - 2.0 * r_half) / j0**2
        d1 = (r_full - 0.5 * d2 * j0**2) / j0
        closed = propagation.covariance_closed_form(params, s_plus, d1, d2, z)
        quad = oracles.quadrature_covariance(params, rate_fn, s_plus, z)
        quad_err = float(np.max(np.abs(closed - quad)) / np.max(np.abs(quad)))

        # density derivative of the two homodyne port means at balanced LO
        rho = params.sample.density_rho_m
        phase_lo = rho * s_minus * z
        signal = estimation.signal_vector(params, s_plus, s_minus)
        fd_err = 0.0
        for port in (0, 1):
            def mean(rho_value, port=port):
                counters["f_calls"] += 1
                p = params.with_density(rho_value)
                n_p, phase = propagation.propagate_mean(p, s_plus, s_minus, z)
                return estimation.homodyne_means(n_p, phase, phase_lo)[port]
            derivative, _ = oracles.fd_pipeline_derivative(mean, rho)
            fd_err = max(fd_err, abs(derivative - signal[port]) / abs(signal[port]))
        return pull, quad_err, float(fd_err)
    return request


# ---------------------------------------------------------------------------
# workload loops
# ---------------------------------------------------------------------------

def loop_point(pkg, inputs, seconds, limit=None, tracer=None, speed=None):
    request = point_request(pkg)
    if tracer is not None:
        request = tracer.wrap("bench.request", request)
    outcomes = []
    start = time.perf_counter()
    for index, (config, route, _) in enumerate(inputs["requests"]):
        if limit is None:
            if outcomes and time.perf_counter() - start >= seconds:
                break
        elif index >= limit:
            break
        if tracer is not None:
            tracer.request_id = index
        outcomes.append(attempt(pkg, index, request, config, route,
                                speed=speed))
    return outcomes, time.perf_counter() - start


def loop_sweep(pkg, inputs, seconds, limit=None, tracer=None, workers=(1, 2),
               speed=None):
    request = sweep_request(pkg)
    if tracer is not None:
        request = tracer.wrap("bench.request", request)
    passes = []             # (workers, Outcome)
    start = time.perf_counter()
    index = 0
    while True:
        for w in workers:
            if tracer is not None:
                tracer.request_id = index
            passes.append((w, attempt(pkg, index, request, inputs, w,
                                      speed=speed)))
            index += 1
        done = len(passes) // len(workers)
        if limit is None:
            if time.perf_counter() - start >= seconds:
                break
        elif done >= limit:
            break
    return passes, time.perf_counter() - start


def loop_validate(pkg, inputs, seconds, counters, limit=None, tracer=None,
                  speed=None):
    request = validate_request(pkg, counters)
    if tracer is not None:
        request = tracer.wrap("bench.request", request)
    outcomes = []
    start = time.perf_counter()
    for index, (config, mc_seed) in enumerate(inputs):
        if limit is None:
            if outcomes and time.perf_counter() - start >= seconds:
                break
        elif index >= limit:
            break
        if tracer is not None:
            tracer.request_id = index
        outcomes.append(attempt(pkg, index, request, config, mc_seed,
                                speed=speed))
    return outcomes, time.perf_counter() - start


def warm_up(pkg, workload, inputs):
    """One untimed request, so lazy imports and first-call costs are paid
    before timing (users pay them in setup, which setup_s measures)."""
    if workload == "point":
        point_request(pkg)(pkg["params"].default_config(), "both")
    elif workload == "sweep":
        for workers in (1, 2):
            pkg["cli"].run_sweep(inputs["config"], [inputs["axes"][0]], "full",
                                 workers=workers)
    else:
        validate_request(pkg, {"rate_calls": 0, "f_calls": 0})(*inputs[-1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _finite(np, *values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def check_point(pkg, inputs, outcomes):
    np, adiabatic = pkg["np"], pkg["adiabatic"]
    problems, deviations, negative = [], [], []
    for out in outcomes:
        if out.value is None:
            continue
        config, route, _ = inputs["requests"][out.index]
        res, rep = out.value, out.value.report
        where = f"point request {out.index} ({route}, {config})"
        if res.route != route:
            problems.append(f"{where}: route label {res.route!r}")
        if not _finite(np, res.s_plus, res.s_minus, res.expansion.D1,
                       res.expansion.D2, res.sigma2, res.spectral_gap,
                       rep.rel_full, rep.rel_intensity, rep.rel_phase,
                       rep.rel_psn, *rep.diagnostics.values()):
            problems.append(f"{where}: non-finite value")
            continue
        sigma2 = np.asarray(res.sigma2)
        scale = np.max(np.abs(sigma2))
        lowest = np.min(np.linalg.eigvalsh(sigma2)) / scale
        if lowest < 0:
            negative.append(lowest)
        if (not np.allclose(sigma2, sigma2.T, rtol=0, atol=1e-12 * scale)
                or lowest < -PSD_TOL):
            problems.append(f"{where}: sigma2 eigenvalue {lowest:.2e} of "
                            f"max|sigma2|, not positive semi-definite")
        if rep.regime not in REGIMES:
            problems.append(f"{where}: regime {rep.regime!r}")
        if route == "both":
            if not _finite(np, res.route_deviation):
                problems.append(f"{where}: route_deviation missing")
                continue
            mol = pkg["params"].from_config(config).molecule
            adiabatic_regime = (mol.rate_a + mol.rate_b
                                <= adiabatic.ADIABATIC_GATE * mol.decay_gamma)
            deviations.append((res.route_deviation, adiabatic_regime))
            if adiabatic_regime and res.route_deviation > ROUTE_DEVIATION_TOL:
                problems.append(f"{where}: route_deviation "
                                f"{res.route_deviation:.3g} > {ROUTE_DEVIATION_TOL}")
    return problems, deviations, negative


SWEEP_VALUES = ["s_plus_m2", "s_minus_m2", "sigma_plus_ratio",
                "sigma_minus_ratio", "sens_full", "sens_intensity",
                "sens_phase", "sens_psn", "regime"]


def check_sweep(pkg, inputs, passes):
    problems = []
    texts = {out.value[1] for _, out in passes if out.value is not None}
    if len(texts) > 1:
        problems.append("sweep: CSV bytes differ between passes/worker counts")
    first = next((out.value[0] for w, out in passes
                  if w == 1 and out.value is not None), None)
    if first is None:
        return problems + ["sweep: no workers=1 pass completed"]
    for i in inputs["sampled"]:
        row = first[i]
        if row["status"] != "ok":
            continue
        config = dict(inputs["config"], detuning_a_mhz=row["detuning_mhz"],
                      rate_a_mhz=row["rate_a_mhz"], rate_b_mhz=row["rate_b_mhz"])
        record = pkg["cli"].run_point(config, "full")
        bad = [k for k in SWEEP_VALUES if record[k] != row[k]]
        if bad:
            problems.append(f"sweep row {i}: differs from run_point in {bad}")
    return problems


def check_validate(outcomes):
    problems = []
    for out in outcomes:
        if out.value is None:
            continue
        pull, quad_err, fd_err = out.value
        if not pull <= MC_PULL_TOL:
            problems.append(f"validate request {out.index}: MC pull {pull:.2f}")
        if not quad_err <= QUAD_TOL:
            problems.append(f"validate request {out.index}: quadrature vs "
                            f"closed form {quad_err:.2e}")
        if not fd_err <= FD_TOL:
            problems.append(f"validate request {out.index}: finite difference "
                            f"vs signal_vector {fd_err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile, n).  With fewer than 11 samples it is the maximum (p100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def machine_context(np):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


class Report:
    """Named metrics printed as ``name = value unit`` lines."""

    def __init__(self):
        self.lines = []

    def add(self, name, value, unit, note=""):
        self.lines.append(f"{name} = {value:.6g} {unit}"
                          + (f"  ({note})" if note else ""))

    def latency(self, prefix, seconds):
        if not seconds:
            self.lines.append(f"{prefix}_ms_p50 = n/a (no completed requests)")
            return
        ms = [s * 1e3 for s in seconds]
        self.add(f"{prefix}_ms_p50", statistics.median(ms), "ms", f"n={len(ms)}")
        value, pct, n = tail(ms)
        self.add(f"{prefix}_ms_tail", value, "ms", f"p{pct:.1f}, n={n}")


def sweep_rows(passes):
    """One Outcome per CSV row: every row is a request, and a row whose status
    is not ok failed (with a ModelError, the only kind the sweep catches)."""
    rows = []
    for _, out in passes:
        if out.value is None:
            rows += [out] * (SWEEP_SHAPE[0] * SWEEP_SHAPE[1])
            continue
        for row in out.value[0]:
            status = row["status"]
            rows.append(Outcome(out.index, 0.0, value=row) if status == "ok"
                        else Outcome(out.index, 0.0, error=status.split(":")[-1],
                                     typed=True))
    return rows


def failure_summary(outcomes):
    names = {}
    for out in outcomes:
        if out.error is not None:
            key = out.error + ("" if out.typed else " (untyped)")
            names[key] = names.get(key, 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(names.items())) or "none"


def end_to_end(pkg, workload, inputs, args):
    """Untraced run; returns (problems, attempted, failed, metrics, report)."""
    report = Report()
    warm_up(pkg, workload, inputs)
    speed = Calibrations(make_calibration(pkg["np"]))
    if workload == "point":
        outcomes, _ = loop_point(pkg, inputs, args.seconds, speed=speed)
        problems, deviations, negative = check_point(pkg, inputs, outcomes)
        ok = [o for o in outcomes if o.value is not None]
        for route in ROUTES:
            report.latency(f"point_{route}",
                           [o.seconds for o in ok
                            if inputs["requests"][o.index][1] == route])
        gated = [d for d, regime in deviations if regime]
        report.add("route_dev_max", max(gated, default=float("nan")), "ratio",
                   f"both requests with r_A+r_B <= gamma/10, n={len(gated)}")
        report.add("route_dev_max_all", max((d for d, _ in deviations),
                                            default=float("nan")), "ratio",
                   f"all both requests, n={len(deviations)}")
        report.add("sigma2_not_psd", len(negative), "count",
                   f"lowest eigenvalue {min(negative, default=0.0):.2e} of "
                   f"max|sigma2|, tolerance {PSD_TOL:g}")
        probes, defect = run_probes(pkg, inputs)
        untyped = sum(1 for o in probes if o.error is not None and not o.typed)
        accepted = sum(1 for o in probes if o.error is None)
        report.add("probe_untyped", untyped, "count",
                   f"of {len(probes)} out-of-range inputs: "
                   f"{failure_summary(probes)}")
        report.add("probe_accepted", accepted, "count",
                   "out-of-range inputs that returned a result")
        report.add("probe_in_range_failed", int(defect.error is not None),
                   "count", f"adiabatic route at {inputs['defect']}: "
                   f"{failure_summary([defect])}")
        attempted, timed, samples = outcomes, outcomes, ok
        points = len(ok)
    elif workload == "sweep":
        passes, _ = loop_sweep(pkg, inputs, args.seconds, speed=speed)
        problems = check_sweep(pkg, inputs, passes)
        rows = SWEEP_SHAPE[0] * SWEEP_SHAPE[1]
        for w in (1, 2):
            times = [o.seconds for pw, o in passes if pw == w and o.value]
            report.add(f"sweep_w{w}_points_per_s",
                       rows / statistics.median(times), "1/s",
                       f"{rows}-point grid, median of {len(times)} passes")
        attempted = sweep_rows(passes)
        timed = [o for _, o in passes]
        samples = [Outcome(a.index, a.seconds + b.seconds,
                           speed=(a.seconds * a.speed + b.seconds * b.speed)
                           / (a.seconds + b.seconds))
                   for a, b in zip(timed[::2], timed[1::2])]
        points = sum(1 for o in attempted if o.value is not None)
    else:
        counters = {"rate_calls": 0, "f_calls": 0}
        outcomes, _ = loop_validate(pkg, inputs, args.seconds, counters,
                                    speed=speed)
        problems = check_validate(outcomes)
        ok = [o for o in outcomes if o.value is not None]
        report.latency("validate", [o.seconds for o in ok])
        if ok:
            report.add("validate_mc_pull_max", max(o.value[0] for o in ok),
                       "sigma", f"tolerance {MC_PULL_TOL}")
            report.add("validate_quad_err_max", max(o.value[1] for o in ok),
                       "ratio", f"tolerance {QUAD_TOL:g}")
            report.add("validate_fd_err_max", max(o.value[2] for o in ok),
                       "ratio", f"tolerance {FD_TOL:g}")
        attempted, timed, samples = outcomes, outcomes, ok
        points = len(ok)

    failed = sum(1 for o in attempted if o.error is not None)
    report.add("fail_ratio", failed / max(len(attempted), 1), "ratio",
               f"{failed}/{len(attempted)}: {failure_summary(attempted)}")
    report.add("machine_speed", statistics.median(o.speed for o in timed),
               "ratio", f"median over requests, {len(speed)} kernel runs")
    metrics, raw = {}, {}
    for out, factor in ((metrics, lambda o: o.speed), (raw, lambda o: 1.0)):
        busy = sum(o.seconds * factor(o) for o in timed)
        out["points_per_s"] = (points / busy, "1/s")
        if samples:
            ms = [o.seconds * factor(o) * 1e3 for o in samples]
            out["latency_ms_p50"] = (statistics.median(ms), "ms")
            out["latency_ms_tail"] = (tail(ms)[0], "ms")
    for name, (value, unit) in sorted(raw.items()):
        report.add("raw." + name, value, unit, "not scaled")
    return problems, len(attempted), failed, metrics, report


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

PER_POINT_COUNTS = [
    ("liouvillian.build_two_sided.calls_per_point", "liouvillian.build_two_sided"),
    ("kernel.kron.calls_per_point", "kernel.kron"),
    ("kernel.eigvals.calls_per_point", "kernel.eigvals"),
    ("fcs.dominant_eigenvalue.calls_per_point", "fcs.dominant_eigenvalue"),
    ("fcs.diffusion_rate.calls_per_point", "fcs.diffusion_rate"),
    ("adiabatic.conditioned_cgf.calls_per_point", "adiabatic.conditioned_cgf"),
    ("adiabatic.adiabatic_rate.calls_per_point", "adiabatic.adiabatic_rate"),
]
PER_POINT_SELF_MS = [
    ("liouvillian.build_two_sided.self_ms_per_point", "liouvillian.build_two_sided"),
    ("kernel.kron.self_ms_per_point", "kernel.kron"),
    ("kernel.eigvals.self_ms_per_point", "kernel.eigvals"),
    ("fcs.dominant_eigenvalue.self_ms_per_point", "fcs.dominant_eigenvalue"),
    ("pipeline.evaluate_point.self_ms", "pipeline.evaluate_point"),
]
PER_POINT_TOTAL_MS = [
    ("fcs.fit_diffusion_expansion.ms_per_point", "fcs.fit_diffusion_expansion"),
    ("fcs.cross_sections.ms_per_point", "fcs.cross_sections"),
    ("adiabatic.conditioned_cgf.ms_per_point", "adiabatic.conditioned_cgf"),
    ("propagation.covariance_closed_form.ms_per_point",
     "propagation.covariance_closed_form"),
    ("estimation.sensitivity_report.ms_per_point", "estimation.sensitivity_report"),
]
PER_CALL_MS = [
    ("params.from_config.ms", "params.from_config"),
    ("cli.write_csv.ms", "cli.write_csv"),
    ("oracles.telegraph_mc_diffusion.ms", "oracles.telegraph_mc_diffusion"),
    ("oracles.quadrature_covariance.ms", "oracles.quadrature_covariance"),
]


def per_layer(pkg, workload, inputs, args):
    """Untraced then traced run of the same requests; returns (problems,
    attempted, failed, metrics, report)."""
    from tracing import REQUEST, Tracer

    report = Report()
    tracer = Tracer()
    tracer.install()
    try:
        validate_inputs(pkg, workload, inputs)      # params.from_config in setup
    finally:
        tracer.uninstall()
    warm_up(pkg, workload, inputs)
    half = args.seconds / 2.0
    counters = {"rate_calls": 0, "f_calls": 0}
    metrics = {}

    if workload == "point":
        plain, plain_s = loop_point(pkg, inputs, half)
        tracer.install()
        try:
            traced, traced_s = loop_point(pkg, inputs, half, limit=len(plain),
                                          tracer=tracer)
        finally:
            tracer.uninstall()
        problems = check_point(pkg, inputs, plain + traced)[0]
        outcomes, requests = plain + traced, {o.index for o in traced}
        points = len(traced)
    elif workload == "sweep":
        plain, plain_s = loop_sweep(pkg, inputs, half)
        w1 = [o.seconds for w, o in plain if w == 1]
        w2 = [o.seconds for w, o in plain if w == 2]
        metrics["cli.scaling_eff"] = (
            statistics.median(w1) / (2.0 * statistics.median(w2)), "ratio")
        plain_w1 = sum(w1)
        tracer.install()
        try:
            traced, _ = loop_sweep(pkg, inputs, half, limit=len(w1),
                                   tracer=tracer, workers=(1,))
        finally:
            tracer.uninstall()
        problems = check_sweep(pkg, inputs, plain + traced)
        plain_s, traced_s = plain_w1, sum(o.seconds for _, o in traced)
        outcomes = sweep_rows(plain + traced)
        requests = {o.index for _, o in traced}
        points = len(traced) * SWEEP_SHAPE[0] * SWEEP_SHAPE[1]
    else:
        plain, plain_s = loop_validate(pkg, inputs, half, counters)
        counters = {"rate_calls": 0, "f_calls": 0}
        tracer.install()
        try:
            traced, traced_s = loop_validate(pkg, inputs, half, counters,
                                             limit=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        problems = check_validate(plain + traced)
        outcomes, requests = plain + traced, {o.index for o in traced}
        points = len(traced)

    summary = tracer.summary(requests)
    setup_summary = tracer.summary({-1})
    points = max(points, 1)
    for metric, span in PER_POINT_COUNTS:
        metrics[metric] = (summary[span][0] / points, "count")
    for metric, span in PER_POINT_SELF_MS:
        metrics[metric] = (summary[span][2] * 1e3 / points, "ms")
    for metric, span in PER_POINT_TOTAL_MS:
        metrics[metric] = (summary[span][1] * 1e3 / points, "ms")
    for metric, span in PER_CALL_MS:
        source = setup_summary if span == "params.from_config" else summary
        calls, total, _ = source[span]
        metrics[metric] = (total * 1e3 / calls if calls else 0.0, "ms")
    mc_calls, mc_total, _ = summary["oracles.telegraph_mc_diffusion"]
    metrics["oracles.mc_trajectories_per_s"] = (
        mc_calls * MC_TRAJECTORIES / mc_total if mc_total else 0.0, "1/s")
    quad_calls = summary["oracles.quadrature_covariance"][0]
    fd_calls = summary["oracles.fd_pipeline_derivative"][0]
    # two rate evaluations per request extract D1 and D2; the rest are the
    # quadrature's own
    metrics["oracles.quadrature_covariance.rate_calls"] = (
        (counters["rate_calls"] - 2 * quad_calls) / quad_calls
        if quad_calls else 0.0, "count")
    metrics["oracles.fd_pipeline_derivative.f_calls"] = (
        counters["f_calls"] / fd_calls if fd_calls else 0.0, "count")
    metrics.setdefault("cli.scaling_eff", (0.0, "ratio"))
    metrics["cli.run_sweep.self_ms_per_point"] = (
        summary["cli.run_sweep"][2] * 1e3 / points, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    # share of request wall time that the layers' self times account for
    request_total, _, request_self = summary[REQUEST]
    metrics["trace.attributed_share"] = (
        1.0 - request_self / request_total if request_total else 0.0, "ratio")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}.npz")
    tracer.dump(path)
    report.lines.append(f"spans = {len(tracer.spans()['name'])} written to "
                        f"{os.path.relpath(path, ROOT)}")
    failed = sum(1 for o in outcomes if o.error is not None)
    return problems, len(outcomes), failed, metrics, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(args):
    pkg, inputs = setup(args.workload, args.seed)
    report_ctx = machine_context(pkg["np"])
    if args.trace:
        problems, attempted, failed, metrics, report = per_layer(
            pkg, args.workload, inputs, args)
    else:
        setup_s = time_setup(args.workload, args.seed)
        problems, attempted, failed, metrics, report = end_to_end(
            pkg, args.workload, inputs, args)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(f"workload = {args.workload}  seed = {args.seed}  "
          f"seconds = {args.seconds}  trace = {args.trace}")
    print("context = " + json.dumps(report_ctx, sort_keys=True))
    for line in report.lines:
        print(line)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Run the three workloads, each in its own process, and merge."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: workload {workload} printed no result", file=sys.stderr)
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v
                        for k, v in result["metrics"].items()})
        status = status or proc.returncode
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status or (0 if correct else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
