"""Per-layer tracing of eigenlab from outside the package.

``Tracer.install()`` rebinds the public functions of each eigenlab module
to timing wrappers, in every eigenlab namespace that bound the original
object at import time (``claims.py`` imports ``cartan_map_jet``,
``random_pair_point`` and friends by name, ``sampling.py`` imports
``mat_exp``, ``cli.py`` imports ``build_report`` and ``emit``).
``JetMatrix.curve`` and the ``Jet2`` operators are patched on the classes.
``Tracer.uninstall()`` puts every original back.

Spans nest on one stack, so each span's self time is its duration minus the
durations of the spans it directly contains.  Spans are aggregated as call
tree edges ``(parent name, name) -> [calls, total_s, self_s]``.  A span's
group is its name up to the first dot, which is the eigenlab module whose
layer it measures (``claims.job.table1`` belongs to ``claims``).

Work counters sit at the same boundaries:

* ``cartan.jets``: point x direction jets pushed through ``cartan_map_jet``,
  from the broadcast shape of the input jet;
* ``cartan.flop``: 6 complex n x n matrix products per jet (the truncated
  product ``J @ sigma(J^H)``), 8 n^3 real flops each, labelled computed
  because it is derived from shapes, not from hardware counters;
* ``cartan.distinct``: distinct (pair, point, direction) jets, by hashing
  the bytes of each jet's value and first derivative (the first derivative
  ``p Z`` fixes the direction ``Z`` for a unitary point ``p``);
* ``jets.jet2_ops``: calls of ``Jet2`` arithmetic operators, including the
  products made inside ``__pow__``.

The hashing runs in its own ``trace.hash`` span, so it is charged neither
to ``cartan`` nor to the calling claim job.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

# Modules whose public functions (``__all__``) are wrapped; each is its
# own span group.  ``matrices.mat_exp`` is wrapped on its own and charged to
# sampling, which is its only caller on the verify path.
WRAPPED_MODULES = ("sampling", "pairs", "catalog", "families", "cartan",
                   "ambient", "report")

JET2_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
            "conj", "sqrt")

# Claim-id prefix of a job's first claim -> per-layer metric name.
JOB_KINDS = {"basis": "basis", "table1": "table1", "prop7": "prop71",
             "cartan": "cartan", "poly": "poly", "product": "product",
             "sphere": "sphere", "cpn": "cpn"}

FLOP_PER_JET_MATMUL = 8       # real flops per complex multiply-add
MATMULS_PER_JET = 6


class Tracer:
    """Spans and work counters for one process; install, run, uninstall."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.edges = {}
        self.counts = Counter()
        self._jet_keys = set()

    # ------------------------------------------------------------------
    # recording

    def reset(self):
        """Forget all spans and counts (between traced passes).  Cleared
        in place: the installed wrappers hold these containers."""
        self._stack.clear()
        self.edges.clear()
        self.counts.clear()
        self._jet_keys.clear()

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (parent[0] if parent else None, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _cartan_jet(self, fn):
        timed = self.span("cartan.cartan_map_jet", fn)
        hashed = self.span("trace.hash", self._record_jets)

        def cartan_map_jet(pair, jm):
            hashed(pair, jm)
            return timed(pair, jm)

        return cartan_map_jet

    def _record_jets(self, pair, jm):
        shape = np.broadcast_shapes(jm.v.shape, jm.d1.shape, jm.d2.shape)
        n = shape[-1]
        batch = shape[:-2]
        jets = math.prod(batch)
        self.counts["cartan.jets"] += jets
        self.counts["cartan.flop"] += (jets * MATMULS_PER_JET
                                       * FLOP_PER_JET_MATMUL * n ** 3)
        label = (pair.space, pair.m, pair.n)
        vkeys = _row_digests(jm.v, batch)
        dkeys = _row_digests(jm.d1, batch)
        self._jet_keys.update(zip([label] * jets, vkeys, dkeys))
        self.counts["cartan.distinct"] = len(self._jet_keys)

    # ------------------------------------------------------------------
    # patching

    def _rebind(self, orig, wrapper):
        """Replace ``orig`` by ``wrapper`` in every eigenlab namespace."""
        for mod in _eigenlab_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layers; eigenlab.cli must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = sys.modules
        try:
            for group in WRAPPED_MODULES:
                mod = mods[f"eigenlab.{group}"]
                for name in mod.__all__:
                    fn = getattr(mod, name)
                    if not inspect.isfunction(fn):
                        continue
                    if group == "cartan" and name == "cartan_map_jet":
                        wrapper = self._cartan_jet(fn)
                    elif group == "ambient" and name in (
                            "sphere_phi", "cpn_phi", "rotate_field"):
                        wrapper = self.span(f"{group}.{name}",
                                            self._field_factory(fn))
                    else:
                        wrapper = self.span(f"{group}.{name}", fn)
                    self._rebind(fn, wrapper)
            mat_exp = mods["eigenlab.matrices"].mat_exp
            self._rebind(mat_exp, self.span("sampling.mat_exp", mat_exp))

            claims, cli = mods["eigenlab.claims"], mods["eigenlab.cli"]
            self._rebind(claims.jobs_for, self._jobs_for(claims.jobs_for))
            self._patch_attr(cli, "config_from_args",
                             self.span("cli.config", cli.config_from_args))
            self._patch_attr(cli, "_write_output",
                             self.span("cli.write", cli._write_output))

            jets = mods["eigenlab.jets"]
            curve = jets.JetMatrix.__dict__["curve"].__func__
            self._patch_attr(jets.JetMatrix, "curve",
                             classmethod(self.span("jets.curve", curve)))
            for op in JET2_OPS:
                self._patch_attr(jets.Jet2, op,
                                 self._count("jets.jet2_ops",
                                             jets.Jet2.__dict__[op]))
            ambient = mods["eigenlab.ambient"]
            self._patch_attr(ambient.AmbientField, "value",
                             self.span("ambient.value",
                                       ambient.AmbientField.value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _jobs_for(self, fn):
        Job = sys.modules["eigenlab.claims"].Job
        span = self.span

        def jobs_for(config):
            jobs = []
            for job in fn(config):
                kind = JOB_KINDS[job.claim_ids[0].split(".")[0]]
                jobs.append(Job(job.claim_ids, job.space,
                                span(f"claims.job.{kind}", job.run)))
            return jobs

        return self.span("claims.jobs_for", jobs_for)

    def _field_factory(self, fn):
        """Ambient fields carry closures; time their evaluator calls."""
        AmbientField = sys.modules["eigenlab.ambient"].AmbientField
        span = self.span

        def factory(*args, **kwargs):
            f = fn(*args, **kwargs)
            return AmbientField(span("ambient.evaluator", f.evaluator), f.n)

        return factory

    # ------------------------------------------------------------------
    # summaries

    def group_totals(self):
        """{group: [calls, self_s]} summed over spans of that group."""
        out = {}
        for (_, name), (calls, _, self_s) in self.edges.items():
            rec = out.setdefault(name.split(".", 1)[0], [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def name_totals(self):
        """{span name: [calls, total_s, self_s]} over all parents."""
        out = {}
        for (_, name), rec in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        return out

    def tree(self):
        """The aggregated call tree as a JSON-friendly list."""
        return [{"parent": p, "name": n, "calls": c, "total_s": t,
                 "self_s": s}
                for (p, n), (c, t, s) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])]


def _eigenlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eigenlab"
                                  or name.startswith("eigenlab."))]


def _row_digests(a, batch):
    """One 16-byte digest per jet: hash each matrix of ``a`` once, then
    broadcast the digests over the jet batch shape."""
    n2 = a.shape[-1] * a.shape[-2]
    rows = np.ascontiguousarray(a).reshape(-1, n2)
    digests = np.array([hashlib.blake2b(r, digest_size=16).digest()
                        for r in rows], dtype=object)
    index = np.arange(len(digests)).reshape(a.shape[:-2])
    return digests[np.broadcast_to(index, batch).ravel()].tolist()
