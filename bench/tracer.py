"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` replaces the public functions of the package's modules,
in every module namespace that imported them, with wrappers that record a
span per call; it also wraps ``numpy.linalg.eigh`` and ``eigvalsh``.  The
package source is not touched.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, instance id).  A span's self time
is its duration minus the time covered by its direct children; the self
times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# module -> public callables to wrap; None means the module's __all__
MODULE_TARGETS = {
    "gaps": ("build_gap_problem", "solve_multistart", "solve_bruteforce", "gap_objective"),
    "certify": ("certify_order", "certify_jensen", "verify_sandwich_pointwise",
                "verify_classical", "find_order_violation"),
    "hermitian": None,
    "maps": None,
    "constants": None,
    "jsonio": ("dumps_canonical", "load_json_file", "sha256_file"),
    "cli": ("main",),
}
MAP_METHODS = {
    "Conjugation": ("apply",),
    "Pinch": ("apply",),
    "Diag": ("apply",),
    "MapFamily": ("apply_sum", "unital_defect"),
}
# calls whose arguments and results are kept for the per-layer figures
KEEP = ("gaps.solve_multistart", "gaps.solve_bruteforce", "jsonio.dumps_canonical")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent, instance)
        self._stack: list = []  # (name id, span index, start ns) of open spans
        self.instance = -1
        self.kept: list = []  # (name, args, result)
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        self._stack.append((nid, len(self.spans), time.perf_counter_ns()))
        self.spans.append(None)

    def exit(self) -> None:
        nid, idx, start = self._stack.pop()
        end = time.perf_counter_ns()
        parent = self._stack[-1][1] if self._stack else -1
        self.spans[idx] = (nid, start, end, parent, self.instance)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        keep = name in KEEP
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if keep:
                tracer.kept.append((name, args, result))
            return result

        return traced

    def install(self, mods) -> None:
        """Wrap the targets wherever the package's modules hold them."""
        wrappers = {}
        for short, names in MODULE_TARGETS.items():
            module = getattr(mods, short)
            for attr in names if names is not None else module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        package = [m for n, m in sys.modules.items()
                   if n == "loewner_cert" or n.startswith("loewner_cert.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for cls_name, methods in MAP_METHODS.items():
            cls = getattr(mods.maps, cls_name)
            for meth in methods:
                self._patch(cls, meth, self.wrap(f"maps.{cls_name}.{meth}",
                                                 getattr(cls, meth)))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self.wrap(f"linalg.{attr}",
                                                   getattr(np.linalg, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def mark(self) -> tuple:
        return len(self.spans), len(self.kept)

    def rewind(self, mark: tuple) -> None:
        """Forget the spans and kept calls recorded since ``mark``."""
        del self.spans[mark[0]:]
        del self.kept[mark[1]:]

    # -- reading the record -------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total ns, self ns, durations in ns]."""
        child = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            row = table.setdefault(self.names[nid], [0, 0, 0, []])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3].append(end - start)
        return table

    def write_spans(self, path: str, header: dict, origin_ns: int) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, names=self.names,
                        fields=["name", "start_us", "end_us", "parent", "instance"])
            fh.write(json.dumps(head) + "\n")
            for nid, start, end, parent, inst in self.spans:
                fh.write(json.dumps([nid, round((start - origin_ns) / 1e3, 3),
                                     round((end - origin_ns) / 1e3, 3),
                                     parent, inst]) + "\n")
