import importlib
import importlib.util
import pathlib

from spectrosens import pipeline
from spectrosens.params import from_config

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Layers that one evaluate_point(params, "both") runs through.
POINT_PATH_SPANS = [
    "liouvillian.build_two_sided",
    "fcs.dominant_eigenvalue",
    "fcs.first_cumulants",
    "fcs.second_cumulant_matrix",
    "fcs.cross_sections",
    "fcs.diffusion_rate",
    "fcs.fit_diffusion_expansion",
    "adiabatic.adiabatic_rate",
    "propagation.z_optimal",
    "propagation.covariance_closed_form",
    "estimation.sensitivity_report",
    "kernel.eigvals",
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists, so a removal
    in the package cannot silently break a traced benchmark run."""
    tracing = _load_tracing()
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert not missing


def test_tracer_records_every_point_layer():
    """Each point-path layer is reached through a name the tracer patches,
    so a refactor cannot silently zero a per-layer benchmark metric."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        pipeline.evaluate_point(from_config({}), "both")
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert [name for name in POINT_PATH_SPANS if summary[name][0] == 0] == []
    # the unit dissipators are built once, at import
    assert summary["kernel.kron"][0] == 0
