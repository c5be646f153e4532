"""Outside-in tracer: wraps ncergo's entry points from the benchmark's own
files, without touching the package.

Each wrapped function is replaced at every place it is bound: in its
defining module and in every ncergo module that imported it by name
(`ncergo.certify.spectral_projection_below`, `ncergo.cli.witness_convergence`,
...).  Methods are replaced on the classes that define them.  LAPACK entry
points are replaced on the `numpy.linalg` and `scipy.linalg` namespaces,
which is where ncergo looks them up; numpy's internal calls (the SVD inside
`norm(., 2)`) bypass the namespace and are not double counted.

Spans are kept in memory as parallel lists (name id, start, end, parent)
and written out by `save`.  Per-name totals are kept as they close:
calls, inclusive seconds (outermost call of a name only, so recursion is
not counted twice) and self seconds (duration minus direct children).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

LAPACK = ("lapack.svd", "lapack.eigh", "lapack.qr", "lapack.norm2", "lapack.schur")


def _ncergo_targets():
    """(span name, owner, attribute) for every wrapped entry point."""
    import numpy.linalg
    import scipy.linalg
    from ncergo import (algebra, certify, cli, ergodic, serialize, singular,
                        stepfn, superops)

    targets = [
        ("lapack.svd", numpy.linalg, "svd"),
        ("lapack.eigh", numpy.linalg, "eigh"),
        ("lapack.eigh", numpy.linalg, "eigvalsh"),
        ("lapack.qr", numpy.linalg, "qr"),
        ("lapack.norm2", numpy.linalg, "norm"),
        ("lapack.schur", scipy.linalg, "schur"),
        ("algebra.element", algebra.Element, "__init__"),
        ("superops.to_matrix", superops.SuperOperator, "to_matrix"),
    ]
    for cls in (superops.UnitaryConjugation, superops.Pinching,
                superops.BlockExpectation, superops.ConvexCombination,
                superops.Composition, superops.Power, superops.ExplicitMatrix):
        targets.append(("superops.apply", cls, "apply"))
    for cls in (ergodic.UnitaryFlow, ergodic.InterpolationFlow):
        targets.append(("ergodic.flow_apply", cls, "apply"))
    functions = {
        algebra: ("projection_from_ranges", "projection_meet", "range_bases",
                  "trace_deficiency"),
        stepfn: ("integral_dominates",),
        singular: ("mu", "lp_norm", "k_functional", "clip_decompose",
                   "submajorizes", "measure_metric",
                   "spectral_projection_below", "enlarge_projection"),
        superops: ("verify_ds", "check_positivity", "check_selfadjointness",
                   "audit_submajorization"),
        ergodic: ("validate_family", "box_average", "net_average_trace",
                  "cesaro_limit_oracle", "besicovitch_average"),
        certify: ("witness_convergence", "certify_cauchy", "extract_limit",
                  "bilateral_to_onesided"),
        serialize: ("element_from_dict", "algebra_from_dict"),
        cli: ("main", "cmd_certify", "cmd_average"),
    }
    for module, names in functions.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            targets.append((f"{layer}.{name}", module, name))
    return targets


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self.span_name, self.span_start, self.span_end, self.span_parent = [], [], [], []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.bytes_written = 0
        self.target_hits: dict = {}
        self._stack: list = []  # open spans: [span index, seconds of direct children]
        self._depth = defaultdict(int)
        self._patched: list = []

    # -- span bookkeeping -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, label: str):
        tracer = self
        nid = self._id(name)
        self.target_hits[label] = 0

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.target_hits[label] += 1
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1][0] if tracer._stack else -1)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            start = time.perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.span_end[idx] = end
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer._depth[name] == 0:
                    tracer.incl[name] += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _norm_wrapper(self, fn, label: str):
        """np.linalg.norm is a LAPACK call only for the matrix 2-norm."""
        traced = self._wrap("lapack.norm2", fn, label)

        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return traced(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        norm.__wrapped__ = fn
        return norm

    def _write_wrapper(self, fn):
        tracer = self

        def _write(path, text):
            if tracer.active:
                tracer.bytes_written += len(text.encode())
            return fn(path, text)

        _write.__wrapped__ = fn
        return _write

    # -- installation ---------------------------------------------------------

    def install(self):
        from ncergo import cli
        for name, owner, attr in _ncergo_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            wrapper = (self._norm_wrapper(original, label) if name == "lapack.norm2"
                       else self._wrap(name, original, label))
            self._rebind(owner, attr, original, wrapper, name.startswith("lapack."))
        self._rebind(cli, "_write", cli._write, self._write_wrapper(cli._write), True)

    def _rebind(self, owner, attr, original, wrapper, only_owner: bool):
        places = [(owner, attr)]
        if not only_owner and not isinstance(owner, type):
            for modname, module in list(sys.modules.items()):
                if (modname == "ncergo" or modname.startswith("ncergo.")) and module is not owner:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            places.append((module, key))
        for obj, key in places:
            setattr(obj, key, wrapper)
            self._patched.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def unhit(self):
        """Wrapped targets (owner.attribute) that no traced job reached."""
        return sorted(label for label, hits in self.target_hits.items() if hits == 0)

    def lapack_seconds(self) -> float:
        return sum(self.incl[n] for n in LAPACK)

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.span_name, dtype=np.int32),
                            start=np.asarray(self.span_start),
                            end=np.asarray(self.span_end),
                            parent=np.asarray(self.span_parent, dtype=np.int64))
