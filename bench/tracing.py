"""Spans around the public functions of lspace, for the per-layer metrics.

The tracer replaces each function in LAYERS, in every lspace module
namespace that binds it, with a wrapper that records a span: start, end,
parent and the operation it serves.  A span's self time is its duration
minus that of its child spans.  Per-function totals are kept as the run
goes; only the first SPAN_LIMIT spans are kept whole, to be written out.
For the lru-cached functions a call is a hit when the cache's hit count
rose during it, and self time is split into hits and misses.
"""

import importlib
import itertools
import sys
import time
import weakref

# (metric prefix, module, attribute); a dotted attribute is a method
LAYERS = (
    ("abelian.smith_normal_form", "lspace.abelian", "smith_normal_form"),
    ("abelian.quotient_group", "lspace.abelian", "quotient_group"),
    ("projline.ProjInterval.contains", "lspace.projline", "ProjInterval.contains"),
    ("torsion.manifold_from_json", "lspace.torsion", "manifold_from_json"),
    ("torsion.validate_manifold", "lspace.torsion", "validate_manifold"),
    ("torsion.milnor_invariants", "lspace.torsion", "milnor_invariants"),
    ("torsion.hfk_support", "lspace.torsion", "hfk_support"),
    ("torsion.dtau", "lspace.torsion", "dtau"),
    ("interval.validate_witness", "lspace.interval", "validate_witness"),
    ("interval.is_lspace_slope", "lspace.interval", "is_lspace_slope"),
    ("interval.check_corollary_consistency", "lspace.interval",
     "check_corollary_consistency"),
    ("interval.lspace_interval", "lspace.interval", "lspace_interval"),
    ("coloring", "lspace.coloring", "surgery_is_lspace_oracle"),
    ("gluing.splice_from_json", "lspace.gluing", "splice_from_json"),
    ("gluing.splice_is_lspace", "lspace.gluing", "splice_is_lspace"),
    ("gluing.judicious_slope", "lspace.gluing", "judicious_slope"),
    ("gluing.condition_systems", "lspace.gluing", "condition_systems"),
    ("gluing.spliced_manifold", "lspace.gluing", "spliced_manifold"),
    ("seifert.sfs_from_json", "lspace.seifert", "sfs_from_json"),
    ("seifert.sfs_is_lspace", "lspace.seifert", "sfs_is_lspace"),
    ("seifert.sfs_is_lspace_via_dtau", "lspace.seifert", "sfs_is_lspace_via_dtau"),
    ("seifert.sfs_fiber_interval", "lspace.seifert", "sfs_fiber_interval"),
    ("cfd.build_cfd", "lspace.cfd", "build_cfd"),
    ("cfd.cfd_twist_compare", "lspace.cfd", "cfd_twist_compare"),
    ("cli.main", "lspace.cli", "main"),
)
CACHED = ("torsion.validate_manifold", "torsion.milnor_invariants",
          "torsion.dtau", "interval.validate_witness", "gluing.spliced_manifold")
SIZED = ("torsion.dtau", "gluing.spliced_manifold")
SPAN_LIMIT = 20000


def _oracle_route(args, kwargs):
    # window_scale 1 is the pair condition, >= 2 the coset sweep
    scale = kwargs.get("window_scale", args[3] if len(args) > 3 else 1)
    return "coloring.oracle_sweep" if scale >= 2 else "coloring.oracle_pair"


def _names():
    for prefix, _, _ in LAYERS:
        if prefix == "coloring":
            yield "coloring.oracle_pair"
            yield "coloring.oracle_sweep"
        else:
            yield prefix


def metric_specs():
    """Every per-layer metric as (name, unit, better).  Counts and times
    are per workload operation; support_classes is the most classes held
    at once in the records this function computed that were still alive
    (the caches keep them)."""
    specs = []
    for name in _names():
        if name == "cli.main":
            specs.append((name + ".self_s", "s/op", "lower"))
            continue
        specs += [(name + ".calls", "1/op", "lower"), (name + ".self_s", "s/op", "lower")]
        if name in CACHED:
            specs += [(name + ".hit_ratio", "ratio", "higher"),
                      (name + ".self_hit_s", "s/op", "lower"),
                      (name + ".self_miss_s", "s/op", "lower")]
        if name in SIZED:
            specs.append((name + ".support_classes", "count", "lower"))
        if name == "gluing.condition_systems":
            specs.append((name + ".checks", "1/op", "lower"))
    specs.append(("cli.requests", "count", "higher"))
    return specs


class _Stat:
    __slots__ = ("calls", "own", "hits", "own_hit")

    def __init__(self):
        self.calls = self.hits = 0
        self.own = self.own_hit = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in _names()}
        self.stack = []
        self.spans = []
        self.ids = itertools.count(1)
        self.op = 0
        self.alive = {name: [] for name in SIZED}
        self.most_alive = dict.fromkeys(SIZED, 0)
        self.checks = 0
        self._undo = []

    def next_op(self):
        self.op += 1

    def install(self):
        for _, module_name, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "lspace" or name.startswith("lspace.")]
        for prefix, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            owner, _, attr = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                fn = cls.__dict__[attr]
                self._replace(cls, attr, fn, self._wrap(prefix, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # removed by a later version: reported as zero
            wrapped = self._wrap(prefix, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, key, fn, wrapped)

    def _replace(self, owner, key, fn, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def _wrap(self, prefix, fn):
        info = getattr(fn, "cache_info", None)
        route = _oracle_route if prefix == "coloring" else None
        stat = None if route else self.stats[prefix]
        post = {"torsion.dtau": self._dtau_done,
                "gluing.spliced_manifold": self._spliced_done,
                "gluing.condition_systems": self._conditions_done}.get(prefix)
        stats, stack, spans, ids = self.stats, self.stack, self.spans, self.ids
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            name = route(args, kwargs) if route else prefix
            hits = info().hits if info else 0
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                s = stat or stats[name]
                s.calls += 1
                s.own += own
                hit = info is not None and info().hits > hits
                if hit:
                    s.hits += 1
                    s.own_hit += own
                if len(spans) < SPAN_LIMIT:
                    spans.append((frame[1], parent, name, tracer.op, start, end))
            if post and not hit:
                post(args, result)
            return result

        if info is not None:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _keep(self, name, record):
        kept = [(ref, size) for ref, size in self.alive[name] if ref() is not None]
        kept.append((weakref.ref(record), len(record.tauc_support)))
        self.alive[name] = kept
        self.most_alive[name] = max(self.most_alive[name], sum(size for _, size in kept))

    def _dtau_done(self, args, result):
        self._keep("torsion.dtau", args[0])

    def _spliced_done(self, args, result):
        self._keep("gluing.spliced_manifold", result.record)

    def _conditions_done(self, args, result):
        self.checks += sum(len(rep.checks) for rep in result)

    def metrics(self, ops, requests):
        """The per-layer metrics over `ops` operations."""
        values = {}
        for name in _names():
            s = self.stats[name]
            values[name + ".calls"] = s.calls / ops
            values[name + ".self_s"] = s.own / ops
            values[name + ".hit_ratio"] = s.hits / s.calls if s.calls else 0.0
            values[name + ".self_hit_s"] = s.own_hit / ops
            values[name + ".self_miss_s"] = (s.own - s.own_hit) / ops
        for name, most in self.most_alive.items():
            values[name + ".support_classes"] = most
        values["gluing.condition_systems.checks"] = self.checks / ops
        values["cli.requests"] = requests
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in metric_specs()}
