"""In-memory span recorder that wraps spectrosens functions from outside.

Each wrapped call records one span: its name, start, end, parent span and the
request id the benchmark set before the call.  Self time (span time minus the
time of its child spans) is accumulated as spans close, which is exact for the
single-threaded call tree of one process.  A function is patched under every
name it has in every loaded spectrosens module (``fcs.build_two_sided`` and
``pipeline.build_two_sided`` alike); the two numpy kernels are patched on the
numpy modules themselves, which is where the package looks them up.  Sweep
workers forked while the tracer is installed record into their own copy of
it, so their spans are lost.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  The span name is "<layer>.<function>".
TARGETS = [
    ("spectrosens.params", "from_config", "params.from_config"),
    ("spectrosens.liouvillian", "build_two_sided", "liouvillian.build_two_sided"),
    ("spectrosens.fcs", "dominant_eigenvalue", "fcs.dominant_eigenvalue"),
    ("spectrosens.fcs", "first_cumulants", "fcs.first_cumulants"),
    ("spectrosens.fcs", "second_cumulant_matrix", "fcs.second_cumulant_matrix"),
    ("spectrosens.fcs", "cross_sections", "fcs.cross_sections"),
    ("spectrosens.fcs", "diffusion_rate", "fcs.diffusion_rate"),
    ("spectrosens.fcs", "fit_diffusion_expansion", "fcs.fit_diffusion_expansion"),
    ("spectrosens.adiabatic", "conditioned_cgf", "adiabatic.conditioned_cgf"),
    ("spectrosens.adiabatic", "conditioned_first_cumulants",
     "adiabatic.conditioned_first_cumulants"),
    ("spectrosens.adiabatic", "chemical_rate_term", "adiabatic.chemical_rate_term"),
    ("spectrosens.adiabatic", "adiabatic_rate", "adiabatic.adiabatic_rate"),
    ("spectrosens.propagation", "z_optimal", "propagation.z_optimal"),
    ("spectrosens.propagation", "covariance_closed_form",
     "propagation.covariance_closed_form"),
    ("spectrosens.estimation", "sensitivity_report", "estimation.sensitivity_report"),
    ("spectrosens.pipeline", "evaluate_point", "pipeline.evaluate_point"),
    ("spectrosens.oracles", "telegraph_mc_diffusion", "oracles.telegraph_mc_diffusion"),
    ("spectrosens.oracles", "quadrature_covariance", "oracles.quadrature_covariance"),
    ("spectrosens.oracles", "fd_pipeline_derivative", "oracles.fd_pipeline_derivative"),
    ("spectrosens.cli", "run_sweep", "cli.run_sweep"),
    ("spectrosens.cli", "write_csv", "cli.write_csv"),
    ("numpy", "kron", "kernel.kron"),
    ("numpy.linalg", "eigvals", "kernel.eigvals"),
]

REQUEST = "bench.request"


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and
    restore the functions named in ``TARGETS``."""

    def __init__(self):
        self.names = []
        self.request_id = -1
        self._span = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")
        self._self = array("d")
        self._stack = []          # open spans: [span id, child time]
        self._next_id = 0
        self._patches = []        # (owner, attribute, original)

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self._span.append(span_id)
                self._parent.append(parent)
                self._name.append(name_id)
                self._request.append(self.request_id)
                self._start.append(start)
                self._end.append(end)
                self._self.append(end - start - frame[1])

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spectrosens" or n.startswith("spectrosens.")]
        for module_name, attr, span_name in TARGETS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = self.wrap(span_name, original)
            owners = [home] if module_name.startswith("numpy") else modules
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def spans(self):
        """All closed spans as numpy arrays, in closing order."""
        return {
            "span": np.frombuffer(self._span, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "request": np.frombuffer(self._request, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "self": np.frombuffer(self._self, dtype=np.float64).copy(),
        }

    def summary(self, requests=None):
        """{span name: (calls, total s, self s)}, optionally only for the
        given request ids."""
        s = self.spans()
        keep = np.ones(len(s["name"]), dtype=bool)
        if requests is not None:
            keep = np.isin(s["request"], np.asarray(sorted(requests)))
        names = s["name"][keep]
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        total = np.bincount(names, weights=(s["end"] - s["start"])[keep],
                            minlength=count)
        own = np.bincount(names, weights=s["self"][keep], minlength=count)
        out = {}
        for i, name in enumerate(self.names):
            c, t, o = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + int(calls[i]), t + float(total[i]), o + float(own[i]))
        return out

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
