"""Spans around the calls into each layer of fermigauss, and per-layer metrics.

Each span wraps a layer function at the module attribute its caller looks
up, so the program itself is not changed. A span records its name, layer,
start, end, parent span and thread; spans are kept in memory and turned into
metrics after the run. A span that starts on a worker thread with no open
span of its own takes the main thread's innermost open span (the verifier
blocked in its thread pool) as parent.

A layer's self time is the time of its spans minus the part of each span
that its child spans cover. If any function of a layer cannot be found (it
was renamed or removed), the layer is reported as absent and its functions
are left alone; the traced run goes on without it.
"""

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path


def _draws(name):
    return lambda args, result: {"draws": int(args[name])}


def _one_draw(args, result):
    return {"draws": 1}


def _matrices(name):
    return lambda args, result: {"matrices": len(args[name])}


def _mcmc(args, result):
    retained = int(result.samples.shape[0])
    proposals = result.chains * (int(args["burn_in"]) + result.per_chain * int(args["thin"]))
    return {"retained": retained, "proposals": proposals, "acceptance": float(result.acceptance_rate)}


def _workers(args, result):
    return {"workers": int(args.get("workers", 1))}


def _report_bytes(args, result):
    return {"bytes": Path(result).stat().st_size}


CLI, VERIFY, REPORTS, SELBERG = "cli", "verify", "reports", "selberg"
CLASS_D, HAAR, MCMC = "ensembles.class_d", "ensembles.haar", "ensembles.mcmc"
ASSEMBLE, FOCK_SCALAR = "fock.assemble", "fock.scalar"
EXPNORM, GAUSS_SCALAR = "gaussian.expnorm", "gaussian.scalar"

_VERIFIERS = (
    "verify_resolution_mc",
    "verify_resolution_quadrature",
    "verify_canonical_triviality",
    "verify_nc_failure",
    "verify_nc_modified",
    "operator_identity_suite",
    "selberg_consistency_suite",
    "radial_quadrature_nodes",
    "class_d_lambda_samples",
)
_SELBERG_FUNCTIONS = (
    "vandermonde",
    "selberg_integral_log",
    "laguerre_selberg_log",
    "radial_gaussian_integral_log",
    "cartesian_gaussian_integral_log",
    "angular_volume_log",
    "norm_const_det_log",
    "norm_const_gauss_log",
)

#: (module, attribute, layer, counter). The counter maps the call's bound
#: arguments and its result to counts; it runs after the span has ended.
TARGETS = (
    ("fermigauss.cli", "run", CLI, None),
    *(("fermigauss.cli", name, VERIFY, _workers) for name in _VERIFIERS),
    ("fermigauss.cli", "random_polar_rotation", CLASS_D, None),
    ("fermigauss.verify", "random_polar_rotation", CLASS_D, None),
    ("fermigauss.verify", "sample_class_d_batch", CLASS_D, _draws("count")),
    ("fermigauss.verify", "sample_class_d", CLASS_D, _one_draw),
    ("fermigauss.ensembles", "sample_class_d", CLASS_D, _one_draw),
    ("fermigauss.verify", "sample_haar_unitary_batch", HAAR, _draws("count")),
    ("fermigauss.verify", "sample_radial_mcmc", MCMC, _mcmc),
    ("fermigauss.verify", "quadratic_hamiltonian_batch", ASSEMBLE, _matrices("mats")),
    ("fermigauss.verify", "quadratic_hamiltonian", FOCK_SCALAR, None),
    ("fermigauss.verify", "op_exp", FOCK_SCALAR, None),
    ("fermigauss.verify", "normal_ordered_exp", FOCK_SCALAR, None),
    ("fermigauss.verify", "build_mode_operators", FOCK_SCALAR, None),
    ("fermigauss.gaussian", "quadratic_hamiltonian", FOCK_SCALAR, None),
    ("fermigauss.gaussian", "op_exp", FOCK_SCALAR, None),
    ("fermigauss.verify", "exp_normalized_fock_batch", EXPNORM, _matrices("hams")),
    ("fermigauss.verify", "gaussian_normalized", GAUSS_SCALAR, None),
    ("fermigauss.verify", "gaussian_number_conserving", GAUSS_SCALAR, None),
    ("fermigauss.verify", "compose_general", GAUSS_SCALAR, None),
    ("fermigauss.verify", "compose_number_conserving", GAUSS_SCALAR, None),
    ("fermigauss.verify", "paired_eigenvalues", GAUSS_SCALAR, None),
    ("fermigauss.verify", "make_bdg", GAUSS_SCALAR, None),
    ("fermigauss.verify", "greens_parameterization", GAUSS_SCALAR, None),
    *(("fermigauss.selberg", name, SELBERG, None) for name in _SELBERG_FUNCTIONS),
    ("fermigauss.reports", "build_report", REPORTS, None),
    ("fermigauss.reports", "write_report", REPORTS, _report_bytes),
    ("fermigauss.reports", "estimator_to_criterion", REPORTS, None),
    ("fermigauss.reports", "result_to_criterion", REPORTS, None),
    ("fermigauss.reports", "git_describe", REPORTS, None),
)

#: Per-layer metric names, each with the layer that must be present for it.
METRICS = {
    "ensembles.class_d.busy_s": CLASS_D,
    "ensembles.class_d.draws": CLASS_D,
    "ensembles.haar.busy_s": HAAR,
    "ensembles.haar.draws": HAAR,
    "ensembles.mcmc.busy_s": MCMC,
    "ensembles.mcmc.retained": MCMC,
    "ensembles.mcmc.proposals": MCMC,
    "ensembles.mcmc.yield": MCMC,
    "ensembles.mcmc.acceptance": MCMC,
    "fock.assemble.busy_s": ASSEMBLE,
    "fock.assemble.matrices": ASSEMBLE,
    "fock.assemble.ns_per_matrix": ASSEMBLE,
    "fock.scalar.busy_s": FOCK_SCALAR,
    "fock.scalar.calls": FOCK_SCALAR,
    "gaussian.expnorm.busy_s": EXPNORM,
    "gaussian.expnorm.matrices": EXPNORM,
    "gaussian.expnorm.ns_per_matrix": EXPNORM,
    "gaussian.scalar.busy_s": GAUSS_SCALAR,
    "gaussian.scalar.calls": GAUSS_SCALAR,
    "verify.self_s": VERIFY,
    "verify.worker_util": VERIFY,
    "selberg.busy_s": SELBERG,
    "selberg.calls": SELBERG,
    "reports.busy_s": REPORTS,
    "reports.bytes": REPORTS,
    "reports.git_describe_s": REPORTS,
    "cli.self_s": CLI,
    "trace.wall_s": None,
    "trace.remainder_s": None,
    "trace.thread_overlap_s": None,
    "trace.overhead_s": None,
}


def unit(name: str) -> str:
    if name.endswith("ns_per_matrix"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("yield", "acceptance", "worker_util")):
        return "ratio"
    return "count"


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "counts")

    def __init__(self, name, layer, parent, thread, start=0.0, end=0.0, counts=None):
        self.name, self.layer, self.parent, self.thread = name, layer, parent, thread
        self.start, self.end, self.counts = start, end, counts or {}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        #: Layers whose counter failed on some call; their counts are absent.
        self.uncounted: set[str] = set()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patched = []

    def __enter__(self):
        found = []
        for module_name, attr, layer, counter in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(layer)
            else:
                found.append((module, attr, fn, layer, counter))
        for module, attr, fn, layer, counter in found:
            if layer not in self.absent:
                setattr(module, attr, self._wrap(fn, attr, layer, counter))
                self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, layer, counter):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        spans, main_stack = self.spans, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, layer, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except Exception:  # a changed signature or result: the count is absent, the call is not
                    self.uncounted.add(layer)
            return result

        return traced


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, wall_s: float, absent=frozenset(), uncounted=frozenset()) -> dict:
    """Per-layer metrics of one traced workload run that took ``wall_s``.

    ``trace.remainder_s`` is the part of the wall time that no span covers
    (the benchmark's own loop); ``trace.thread_overlap_s`` is span time that
    ran in parallel with a sibling span on another thread, which the sum of
    self times counts twice. So wall = sum of self times - overlap + remainder.
    Ratios whose base is zero read 0.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    overlap = 0.0
    util_busy = util_capacity = git_describe_s = 0.0
    for s in spans:
        kids = children[id(s)]
        covered = _union_length((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        self_s[s.layer] += s.end - s.start - covered
        overlap += sum(k.end - k.start for k in kids) - covered
        calls[s.layer] += 1
        for key, value in s.counts.items():
            counts[s.layer][key] += value
        if s.layer == VERIFY:
            util_busy += sum(k.end - k.start for k in kids)
            util_capacity += s.counts.get("workers", 1) * (s.end - s.start)
        if s.name == "git_describe":
            git_describe_s += s.end - s.start
    self_total = sum(self_s.values())

    def ratio(num, den):
        return num / den if den else 0.0

    mcmc = counts[MCMC]
    values = {
        "ensembles.class_d.busy_s": self_s[CLASS_D],
        "ensembles.class_d.draws": counts[CLASS_D]["draws"],
        "ensembles.haar.busy_s": self_s[HAAR],
        "ensembles.haar.draws": counts[HAAR]["draws"],
        "ensembles.mcmc.busy_s": self_s[MCMC],
        "ensembles.mcmc.retained": mcmc["retained"],
        "ensembles.mcmc.proposals": mcmc["proposals"],
        "ensembles.mcmc.yield": ratio(mcmc["retained"], mcmc["proposals"]),
        "ensembles.mcmc.acceptance": ratio(mcmc["acceptance"], calls[MCMC]),
        "fock.assemble.busy_s": self_s[ASSEMBLE],
        "fock.assemble.matrices": counts[ASSEMBLE]["matrices"],
        "fock.assemble.ns_per_matrix": 1e9 * ratio(self_s[ASSEMBLE], counts[ASSEMBLE]["matrices"]),
        "fock.scalar.busy_s": self_s[FOCK_SCALAR],
        "fock.scalar.calls": calls[FOCK_SCALAR],
        "gaussian.expnorm.busy_s": self_s[EXPNORM],
        "gaussian.expnorm.matrices": counts[EXPNORM]["matrices"],
        "gaussian.expnorm.ns_per_matrix": 1e9 * ratio(self_s[EXPNORM], counts[EXPNORM]["matrices"]),
        "gaussian.scalar.busy_s": self_s[GAUSS_SCALAR],
        "gaussian.scalar.calls": calls[GAUSS_SCALAR],
        "verify.self_s": self_s[VERIFY],
        "verify.worker_util": ratio(util_busy, util_capacity),
        "selberg.busy_s": self_s[SELBERG],
        "selberg.calls": calls[SELBERG],
        "reports.busy_s": self_s[REPORTS],
        "reports.bytes": counts[REPORTS]["bytes"],
        "reports.git_describe_s": git_describe_s,
        "cli.self_s": self_s[CLI],
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - self_total + overlap,
        "trace.thread_overlap_s": overlap,
    }
    counted = {k for k in values if not k.endswith(("_s", ".calls"))}
    return {
        name: float(value)
        for name, value in values.items()
        if METRICS[name] not in absent and not (name in counted and METRICS[name] in uncounted)
    }
