"""Per-layer tracing from outside the program: wrappers at layer boundaries.

``Tracer.install`` replaces each boundary function or method with a wrapper
and ``uninstall`` puts the originals back, so an untraced pass runs the
program untouched.  A module-level function is replaced under every name a
caller resolves at call time: in its own module and in every program module
(the CLI, the package ``__init__`` files) that bound it with
``from ... import``.  Operators such as ``Cyc.__mul__`` are patched on the
class.

Timed boundaries keep a stack, so each span's self time is its duration
minus the part its child spans cover.  Coarse boundaries (pipeline stages,
loop operators, cache, serialisation) are also kept as span records --
name, start, end, parent span, operation id -- and written out when the run
ends.  Hot boundaries (rational-function normalisation, class and matrix
products, series products) are called up to millions of times per
operation; they are aggregated instead of recorded, and the hottest
(cyclotomic and scalar operators) are only counted.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

from orbiqrr import cache, cli
from orbiqrr.exactalg import cyclotomic, scalar, series
from orbiqrr.genus0 import correlators, jfunction, lefschetz
from orbiqrr import fockquant, givental, linalg, loopops, serre
from orbiqrr.orbtarget import model

# (owner, attribute, span name, recorded as a span)
TIMED = (
    (series.TruncSeries, "__mul__", "series.mul", False),
    (series, "series_invert", "series.mul", False),
    (model.CohClass, "mul", "orbtarget.class_mul", False),
    (linalg, "mat_mul", "linalg.mat_mul", False),
    (loopops, "log_delta", "loopops.log_delta", True),
    (loopops, "delta_operator", "loopops.delta_operator", True),
    (loopops, "check_delta_symplectomorphism", "loopops.check_symplectic", True),
    (jfunction, "j_closed_form_Pn", "jfunction.closed_form", True),
    (lefschetz, "hypergeometric_modification", "lefschetz.hypergeometric", True),
    (lefschetz, "nonequivariant_limit", "lefschetz.nonequiv_limit", True),
    (lefschetz, "small_expansion", "lefschetz.small_expansion", True),
    (lefschetz, "mirror_map", "lefschetz.mirror_map", True),
    (lefschetz, "extract_invariants", "lefschetz.extract", True),
    (lefschetz, "quintic_pipeline", "lefschetz.quintic_pipeline", True),
    (correlators, "build_point_table", "correlators.build_table", True),
    (correlators, "check_universal_equation", "correlators.check", True),
    (serre, "check_serre_cone", "serre.cone_check", True),
    (serre, "serre_M_operator", "serre.m_twist", True),
    (fockquant, "quantize_monomial", "fockquant.quantize", True),
    (fockquant, "commutator_cocycle", "fockquant.cocycle", True),
    (fockquant, "string_residual", "fockquant.string_residual", True),
    (cache.ArtifactCache, "load", "cache.load", True),
    (cli, "series_rows", "cli.serialize", True),
    (cli, "operator_obj", "cli.serialize", True),
)

COUNTED = (
    (cyclotomic.Cyc, "__add__", "cyclotomic.add"),
    (cyclotomic.Cyc, "inverse", "cyclotomic.inverse"),
    (scalar.Scalar, "__add__", "scalar.add"),
    (givental.GiventalElement, "add_to", "givental.add_to"),
)


def _bits(rf) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for c in rf.num + rf.den for x in c.coeffs), default=0)


class Tracer:
    """Counters, maxima and self times of one traced pass, plus its span records."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.maxima = defaultdict(int)
        self.spans = []              # (op, span, parent, name, start, end)
        self._stack = []             # per open timed span: [child seconds, id of the
                                     # innermost recorded span, itself included]
        self._next_span = 0
        self._op = None
        self._restore = []

    # -- spans

    def _enter(self, record: bool):
        stack = self._stack
        if record:
            self._next_span += 1
            stack.append([0.0, self._next_span])
        else:
            stack.append([0.0, stack[-1][1] if stack else None])
        return perf_counter()

    def _leave(self, name: str, start: float, record: bool):
        end = perf_counter()
        child, span = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][0] += dur
        if record:
            parent = self._stack[-1][1] if self._stack else None
            self.spans.append((self._op, span, parent, name, start, end))

    def operation(self, op_id: int, fn, *args):
        """Run one benchmark operation as a root span named 'op'."""
        self._op = op_id
        start = self._enter(True)
        try:
            return fn(*args)
        finally:
            self._leave("op", start, True)

    def timed(self, name: str, fn, record: bool):
        counts, enter, leave = self.counts, self._enter, self._leave

        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = enter(record)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, start, record)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- boundaries with their own counters

    def _cyc_mul(self, fn):
        counts, maxima = self.counts, self.maxima

        def mul(a, b):
            if a.order == 1 and b.order == 1:
                counts["cyclotomic.mul_rational"] += 1
            else:
                counts["cyclotomic.mul_cyclotomic"] += 1
                order = a.order if a.order > b.order else b.order
                if order > maxima["cyclotomic.max_order"]:
                    maxima["cyclotomic.max_order"] = order
            return fn(a, b)

        return mul

    def _cyc_is_zero(self, prop):
        counts, get = self.counts, prop.fget

        def is_zero(c):
            counts["cyclotomic.is_zero"] += 1
            return get(c)

        return property(is_zero)

    def _scalar_mul(self, fn):
        counts, maxima = self.counts, self.maxima

        def mul(a, b):
            counts["scalar.mul"] += 1
            out = fn(a, b)
            for rf in out.ell:
                # lambda-degree in units of lambda^(1/lam_den), scaled by 1/lam_den below
                deg = max(len(rf.num), len(rf.den)) - 1
                if deg * 1.0 / out.lam_den > maxima["scalar.max_lambda_degree"]:
                    maxima["scalar.max_lambda_degree"] = deg * 1.0 / out.lam_den
                bits = _bits(rf)
                if bits > maxima["scalar.max_coeff_bits"]:
                    maxima["scalar.max_coeff_bits"] = bits
            return out

        return mul

    def _ratfunc_init(self, fn):
        counts, enter, leave = self.counts, self._enter, self._leave

        def init(rf, num, den, _reduced=False):
            if _reduced:
                return fn(rf, num, den, True)
            counts["scalar.ratfunc_normalize"] += 1
            start = enter(False)
            try:
                return fn(rf, num, den)
            finally:
                leave("scalar.ratfunc_normalize", start, False)

        return init

    def _gcd(self, fn):
        counts = self.counts

        def gcd(a, b):
            g = fn(a, b)
            counts["scalar.gcd_calls"] += 1
            if len(g) > 1:
                counts["scalar.gcd_nonconstant"] += 1
            return g

        return gcd

    def _get_or_compute(self, fn):
        counts = self.counts

        def get_or_compute(cache_obj, request, compute):
            payload, status = fn(cache_obj, request, compute)
            if cache_obj.directory:
                counts["cache.lookups"] += 1
                counts["cache.hits"] += status == "cached"
            return payload, status

        return get_or_compute

    def _store(self, fn):
        counts, timed = self.counts, self.timed("cache.store", fn, True)

        def store(cache_obj, key, payload):
            timed(cache_obj, key, payload)
            if cache_obj.directory:
                counts["cache.bytes_written"] += os.path.getsize(cache_obj._path(key))

        return store

    def _emit(self, fn):
        counts, timed = self.counts, self.timed("cli.serialize", fn, True)

        def emit(obj, fmt):
            text = timed(obj, fmt)
            counts["cli.output_bytes"] += len(text) + 1
            return text

        return emit

    # -- installation

    def _replace(self, owner, attr, new):
        """Install ``new`` for ``owner.attr`` under every name that resolves to it."""
        old = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, new)
            self._restore.append((owner, attr, old))
            return
        # the benchmark's own modules call the program through module attributes
        for mod in [m for name, m in sys.modules.items() if name.startswith("orbiqrr")]:
            for name, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, name, new)
                    self._restore.append((mod, name, old))

    def install(self):
        for owner, attr, name, record in TIMED:
            self._replace(owner, attr, self.timed(name, owner.__dict__[attr], record))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self.counted(name, owner.__dict__[attr]))
        Cyc, Scalar, RatFunc = cyclotomic.Cyc, scalar.Scalar, scalar.RatFunc
        self._replace(Cyc, "__mul__", self._cyc_mul(Cyc.__dict__["__mul__"]))
        self._replace(Cyc, "is_zero", self._cyc_is_zero(Cyc.__dict__["is_zero"]))
        self._replace(Scalar, "__mul__", self._scalar_mul(Scalar.__dict__["__mul__"]))
        self._replace(RatFunc, "__init__", self._ratfunc_init(RatFunc.__dict__["__init__"]))
        self._replace(scalar, "_cgcd", self._gcd(scalar._cgcd))
        AC = cache.ArtifactCache
        self._replace(AC, "get_or_compute", self._get_or_compute(AC.__dict__["get_or_compute"]))
        self._replace(AC, "store", self._store(AC.__dict__["store"]))
        self._replace(cli, "emit", self._emit(cli.emit))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results

    def metrics(self) -> dict:
        c, s, m = self.counts, self.self_s, self.maxima
        gcds = c["scalar.gcd_calls"]
        out = {name: c[name] for name in (
            "cyclotomic.mul_rational", "cyclotomic.mul_cyclotomic", "cyclotomic.add",
            "cyclotomic.inverse", "cyclotomic.is_zero", "scalar.ratfunc_normalize",
            "scalar.gcd_calls", "scalar.mul", "scalar.add", "series.mul",
            "orbtarget.class_mul", "givental.add_to", "linalg.mat_mul",
            "cache.bytes_written", "cli.output_bytes")}
        out.update({name: m[name] for name in (
            "cyclotomic.max_order", "scalar.max_lambda_degree", "scalar.max_coeff_bits")})
        if c["cyclotomic.mul_rational"] and not out["cyclotomic.max_order"]:
            out["cyclotomic.max_order"] = 1
        out["scalar.gcd_cancel_ratio"] = c["scalar.gcd_nonconstant"] / gcds if gcds else 0.0
        out["lefschetz.small_expansion_calls"] = c["lefschetz.small_expansion"]
        out["cache.hit_ratio"] = (c["cache.hits"] / c["cache.lookups"]
                                  if c["cache.lookups"] else 0.0)
        for name in ("scalar.ratfunc_normalize", "series.mul", "orbtarget.class_mul",
                     "linalg.mat_mul", "loopops.log_delta", "loopops.delta_operator",
                     "loopops.check_symplectic", "jfunction.closed_form",
                     "lefschetz.hypergeometric", "lefschetz.nonequiv_limit",
                     "lefschetz.mirror_map", "lefschetz.extract", "lefschetz.small_expansion",
                     "correlators.build_table", "correlators.check", "serre.cone_check",
                     "serre.m_twist", "fockquant.quantize", "fockquant.cocycle",
                     "fockquant.string_residual", "cache.load", "cache.store",
                     "cli.serialize"):
            out[name + "_s"] = s[name]
        return out


def count_metrics(metrics: dict) -> dict:
    """The metrics that count work (all but the times): two traced passes over
    the same requests must agree on each of them exactly."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}
