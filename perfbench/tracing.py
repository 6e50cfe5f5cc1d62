"""Runtime probes on the library's public functions, for the traced run.

The library calls its neighbours as `module.func` (or by bare name inside
the defining module), so replacing the attribute on every hyplab module
that holds the function also catches the nested calls.  Span probes keep
one span per call (name, start, end, parent, run id) in memory; count
probes only count, because they sit on functions called millions of
times per run, where a span each would distort the timings and memory.
"""

import collections
import time

import numpy as np

# (module, attribute, span-name suffix from the call, (quantity, its size))
SPAN_PROBES = [
    ("counting", "orbit_count", None, None),
    ("counting", "geodesic_census", None,
     ("classes", lambda r, a, k: len(r.entries))),
    ("modular", "modular_ball", None,
     ("elements", lambda r, a, k: len(r.elements))),
    ("modular", "enumerate_conj_classes", None,
     ("classes", lambda r, a, k: len(r))),
    ("modular", "fold_points", None, ("points", lambda r, a, k: _size(a[0]))),
    ("words", "necklaces", None, ("words", lambda r, a, k: len(r))),
    ("words", "visual_measure", None, None),
    ("words", "tree_busemann", None, None),
    ("measures", "ps_measure", None, ("atoms", lambda r, a, k: len(r.atoms))),
    ("measures", "conformal_check", lambda a, k: a[0], None),
    ("measures", "shadow_mass_bounds", None, None),
    ("measures", "limit_cell_masses", None, None),
    ("measures", "pair_measure", None, None),
    ("measures", "pair_invariance_check", lambda a, k: a[0].backend, None),
    ("measures", "equidistribution_test", None, None),
    ("halfplane", "estimate_delta_mc", None,
     ("triangles", lambda r, a, k: int(a[0]))),
    ("geometry", "estimate_delta", None, None),
    ("entropy", "spanning_count", None, None),
    ("entropy", "estimate_htop", None, None),
    ("cli", "main", None, None),
]

# (module, attribute, span whose calls are also counted separately)
COUNT_PROBES = [
    ("halfplane", "dist", "modular.modular_ball"),
    ("modular", "mat_mul", None),
    ("words", "canonical_rotation", "words.necklaces"),
    ("measures", "BoundaryPartition.locate_angle", None),
]

def _size(x):
    return int(np.size(x))


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, (quantity, n)]
        self.stack = []
        self.open = collections.Counter()
        self.counts = collections.Counter()
        self.inside = collections.Counter()

    def span(self, name, fn, suffix=None, size=None):
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter

        def probe(*args, **kwargs):
            label = (name if suffix is None
                     else f"{name}.{suffix(args, kwargs)}")
            index = len(spans)
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(index)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                open_[name] -= 1
            if size is not None:
                rec[4] = (size[0], size[1](result, args, kwargs))
            return result

        return probe

    def counter(self, name, fn, within=None):
        counts, inside, open_ = self.counts, self.inside, self.open

        def probe(*args, **kwargs):
            counts[name] += 1
            if within is not None and open_[within]:
                inside[name] += 1
            return fn(*args, **kwargs)

        return probe

    def install(self, hyplab):
        """Wrap every probed function wherever a hyplab module holds it."""
        modules = [getattr(hyplab, m) for m in hyplab.__all__
                   if hasattr(getattr(hyplab, m), "__file__")]
        for mod_name, attr, suffix, size in SPAN_PROBES:
            name = f"{mod_name}.{attr}"
            orig = getattr(getattr(hyplab, mod_name), attr)
            _replace(modules, orig, self.span(name, orig, suffix, size))
        for mod_name, attr, within in COUNT_PROBES:
            name = f"{mod_name}.{attr}"
            owner = getattr(hyplab, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.counter(name, getattr(cls, meth),
                                                within))
                continue
            orig = getattr(owner, attr)
            _replace(modules, orig, self.counter(name, orig, within))

    def metrics(self):
        """Per-layer totals: s, calls, self_s and result sizes by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.defaultdict(float)
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.s"] += dur
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            if size is not None:
                out[f"{name}.{size[0]}"] += size[1]
        for name, n in self.counts.items():
            out[f"{name}.calls"] += n
        for name, n in self.inside.items():
            out[f"{name}.inside"] += n
        return dict(out)

    def write(self, path):
        with open(path, "w") as f:
            f.write("run_id,index,name,start,end,parent,size\n")
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                f.write(f"{self.run_id},{i},{name},{start:.9f},{end:.9f},"
                        f"{parent},{'' if size is None else size[1]}\n")


def _replace(modules, orig, probe):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, probe)
