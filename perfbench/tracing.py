"""Spans around the package's layer functions, recorded from outside it.

``Tracer.installed()`` replaces the names ``dynbc.bc`` (and the modules it
reaches) look up at call time with timing wrappers, and puts the originals
back on exit, so untraced runs execute the unmodified package. Each span is
``(name, start, end, parent, batch)``: ``parent`` is the index of the
enclosing span or -1, and ``batch`` is the update batch index, or SETUP /
RECOMPUTE outside the update phase. Spans stay in memory until ``write``.

Counts are taken at the same boundaries, from the wrapped calls' arguments
and results, so they repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import dynbc.bc
import dynbc.dynsssp
import dynbc.sampling
from dynbc import DynSSSP

from checks import path_is_shortest

SETUP = -1
RECOMPUTE = -2


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.batch = SETUP
        self.counts = Counter()  # update-phase counts
        self._records = {}  # id(sample search) -> SampleRecord, per batch

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            spans[idx] = (name, t0, t1, parent, self.batch)

    def begin_batch(self, k, state):
        """Enter update batch k; remembers which stored path belongs to
        which sample search so redraws can be judged."""
        self.batch = k
        self._records = {id(rec.sssp): rec for rec in state.samples}

    def end_updates(self):
        self.batch = RECOMPUTE
        self._records = {}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_update_sssp(self, fn):
        def traced(g, state, events, vis=None):
            aff = self.call("dynsssp.update_sssp", fn, g, state, events, vis)
            if self.batch >= 0:
                c = self.counts
                c["dynsssp.edges_scanned"] += aff.touched_edges
                c["dynsssp.nodes_affected"] += len(aff.nodes)
                c["dynsssp.changed_searches"] += bool(aff.nodes)
            return aff

        return traced

    def _wrap_vd_estimate(self, fn):
        def traced(g, state):
            if self.batch >= 0 and state.weighted and state.vd_dirty:
                self.counts["dynsssp.omega_rescans"] += 1
            return self.call("dynsssp.vd_estimate", fn, g, state)

        return traced

    def _wrap_sample_path(self, fn):
        def traced(g, state, t, rng):
            rec = self._records.get(id(state)) if self.batch >= 0 else None
            if rec is not None:
                self.counts["sampling.redraws"] += 1
                # its own span, so that bc.update_bc's self time excludes it
                if self.call("trace.redraw_check", path_is_shortest, g, state.d, rec.path):
                    self.counts["sampling.redraws_still_valid"] += 1
            path = self.call("sampling.sample_path", fn, g, state, t, rng)
            if self.batch >= 0 and not path.empty:
                self.counts["sampling.path_steps"] += len(path.internal) + 1
            return path

        return traced

    def _wrap_initial(self, fn):
        def traced(cls, *args, **kwargs):
            return self.call("dynsssp.initial", fn, cls, *args, **kwargs)

        return classmethod(traced)

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        targets = [
            (dynbc.bc, "update_sssp", self._wrap_update_sssp),
            (dynbc.bc, "sample_path", self._wrap_sample_path),
            (dynbc.bc, "local_vd_estimate", self._wrap_vd_estimate),
            (dynbc.bc, "vd_upper_bound",
             lambda f: self._wrap("vdbounds.vd_upper_bound", f)),
            (dynbc.bc, "compute_extended_sssp",
             lambda f: self._wrap("exact.sssp", f)),
            (dynbc.dynsssp, "compute_extended_sssp",
             lambda f: self._wrap("exact.sssp", f)),
            (dynbc.sampling, "predecessors",
             lambda f: self._wrap("exact.predecessors", f)),
        ]
        saved = []
        try:
            for owner, attr, make in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            orig = DynSSSP.__dict__["initial"]
            saved.append((DynSSSP, "initial", orig))
            DynSSSP.initial = self._wrap_initial(orig.__func__)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """One span per line: index, parent, batch, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tbatch\tname\tstart\tend\n")
            for i, (name, t0, t1, parent, batch) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{batch}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def totals(self):
        """Per (phase, name): summed duration, summed self time and calls.
        Phase is "setup", "update" or "recompute". Self time is a span's
        duration minus that of its direct children, which lie inside it."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        dur = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for i, (name, t0, t1, _, batch) in enumerate(self.spans):
            phase = "setup" if batch == SETUP else (
                "recompute" if batch == RECOMPUTE else "update")
            dur[phase, name] += t1 - t0
            own[phase, name] += t1 - t0 - child[i]
            calls[phase, name] += 1
        return dur, own, calls

