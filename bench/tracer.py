"""Span tracer patched over nhkit's public functions from outside the package.

Every wrapped function becomes a span named `<module>.<function>`.  A span
records its calls, its inclusive time (`busy_s`), its time minus that of
its child spans (`self_s`) and the span it was called from.  A name is
replaced at every binding site: each loaded `nhkit` module that holds the
same function object under some name (`representations.exp_apply`,
`representations.compose`, `cli.compose`, `moyal.kernel_axis_matrix` as
seen from inside `moyal`, ...), so calls between modules are seen too.
`numpy.linalg.eigh` is counted only under a `funcspace` span, with the sum
of n^3 over its calls as the computed work.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute or Class.method, span name)
SPANS = (
    ("nhkit.group", "compose", "group.compose"),
    ("nhkit.group", "inverse", "group.inverse"),
    ("nhkit.group", "act_spacetime", "group.act_spacetime"),
    ("nhkit.coadjoint", "coad", "coadjoint.coad"),
    ("nhkit.coadjoint", "classify", "coadjoint.classify"),
    ("nhkit.algebra", "kirillov_matrix", "algebra.kirillov_matrix"),
    ("nhkit.algebra", "rank", "algebra.rank"),
    ("nhkit.dynamics", "evolve", "dynamics.evolve"),
    ("nhkit.funcspace", "ladder_build", "funcspace.ladder_build"),
    ("nhkit.funcspace", "op_matrix", "funcspace.op_matrix"),
    ("nhkit.funcspace", "exp_apply", "funcspace.exp_apply"),
    ("nhkit.funcspace", "displacement_apply", "funcspace.displacement_apply"),
    ("nhkit.funcspace", "BasisContext.phase_shift_1d", "funcspace.phase_shift_1d"),
    ("nhkit.representations", "InducedRep2D.apply", "representations.InducedRep2D.apply"),
    ("nhkit.representations", "InducedRepBC.apply", "representations.InducedRepBC.apply"),
    ("nhkit.representations", "InducedRepDE.apply", "representations.InducedRepDE.apply"),
    ("nhkit.representations", "InducedRepHIJ.apply", "representations.InducedRepHIJ.apply"),
    ("nhkit.representations", "rep_k", "representations.rep_k"),
    ("nhkit.representations", "generator_check", "representations.generator_check"),
    ("nhkit.moyal", "kernel_apply", "moyal.kernel_apply"),
    ("nhkit.moyal", "kernel_axis_matrix", "moyal.kernel_axis_matrix"),
    ("nhkit.moyal", "covariance_residual", "moyal.covariance_residual"),
    ("nhkit.moyal", "isotropy_commutator_residual", "moyal.isotropy_commutator_residual"),
    ("nhkit.moyal", "tri_kernel", "moyal.tri_kernel"),
    ("nhkit.moyal", "smeared_pair_trace", "moyal.smeared_pair_trace"),
    ("nhkit.moyal", "weyl_symbol_axis", "moyal.weyl_symbol_axis"),
    ("nhkit.moyal", "reconstruct_axis", "moyal.reconstruct_axis"),
    ("nhkit.moyal", "star_product_axis", "moyal.star_product_axis"),
)
EIGH_SPAN = "funcspace.eigh"
SPAN_NAMES = tuple(name for _, _, name in SPANS) + (EIGH_SPAN,)


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "parents")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.parents: dict[str, int] = {}


class Tracer:
    """Collects spans in memory; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []  # [name, start, child time]
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.eigh_n3 = 0
        self.exp_keys: set = set()
        self.exp_reused = 0
        self.shift_keys: set = set()
        self.shift_reused = 0
        self._contexts: dict[int, object] = {}  # keeps keyed contexts alive, so ids stay unique

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        elapsed = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.self_time += elapsed - child
        self._active[name] -= 1
        if not self._active[name]:
            stat.busy += elapsed
        parent = self._stack[-1][0] if self._stack else "root"
        stat.parents[parent] = stat.parents.get(parent, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def _wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    # -- counters --------------------------------------------------------------
    def _ctx_id(self, ctx) -> int:
        self._contexts.setdefault(id(ctx), ctx)
        return id(ctx)

    def _count_exp(self, q, t, psi, ctx):
        key = (self._ctx_id(ctx), q.cache_key())
        if key in self.exp_keys:
            self.exp_reused += 1
        self.exp_keys.add(key)

    def _count_shift(self, ctx, phase, shift):
        key = (self._ctx_id(ctx), float(phase), float(shift))
        if key in self.shift_keys:
            self.shift_reused += 1
        self.shift_keys.add(key)

    # -- patching ------------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nhkit" or n.startswith("nhkit.")]
        hooks = {"funcspace.exp_apply": self._count_exp, "funcspace.phase_shift_1d": self._count_shift}
        for mod_name, attr, name in SPANS:
            # A name the program no longer has is skipped and reads zero.
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                if getattr(owner, attr, None) is not None:
                    self._set(owner, attr, self._wrap(name, getattr(owner, attr), hooks.get(name)))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)

        orig_eigh = np.linalg.eigh

        @functools.wraps(orig_eigh)
        def eigh(a, *args, **kwargs):
            if not any(frame[0].startswith("funcspace.") for frame in self._stack):
                return orig_eigh(a, *args, **kwargs)
            self.eigh_n3 += int(np.shape(a)[-1]) ** 3
            self.enter(EIGH_SPAN)
            try:
                return orig_eigh(a, *args, **kwargs)
            finally:
                self.exit()

        self._set(np.linalg, "eigh", eigh)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report ---------------------------------------------------------------------
    def report(self) -> dict:
        spans = {}
        for name in SPAN_NAMES:
            stat = self.stats.get(name, _Stat())
            parent = max(stat.parents, key=stat.parents.get) if stat.parents else None
            spans[name] = {
                "calls": stat.calls,
                "busy_s": stat.busy,
                "self_s": stat.self_time,
                "parent": parent,
                "parents": stat.parents,
            }
        exp_calls = spans["funcspace.exp_apply"]["calls"]
        shift_calls = spans["funcspace.phase_shift_1d"]["calls"]
        return {
            "spans": spans,
            "eigh_n3_sum": self.eigh_n3,
            "generator_reuse_frac": self.exp_reused / exp_calls if exp_calls else 0.0,
            "key_reuse_frac": self.shift_reused / shift_calls if shift_calls else 0.0,
        }
