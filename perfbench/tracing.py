"""Per-layer spans around cbtk's public functions, installed from outside.

Each traced function is replaced under every name a cbtk module binds it
to: ``verify`` imports ``graded_piece_dim``, ``graded_rank_hf`` and
``hilbert_function`` directly, so patching the defining module alone would
miss those calls.  A span records layer, item, parent span, start and end
in flat arrays kept in memory and written out when the run ends.  Self time
is a span's duration minus the durations of its child spans; everything
runs in one thread, so no layer waits.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from cbtk import bounds, gfp, lpp, monomials, verify


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _hf_degrees(c, args, kwargs, result) -> None:
    c["monomials.hf.degrees"] += _arg(args, kwargs, 1, "up_to") + 1


def _assembly_cells(c, args, kwargs, result) -> None:
    rows, cols = result.shape
    c["gfp.assembly.cells"] += rows * cols


def _rank_work(c, args, kwargs, result) -> None:
    rows, cols = np.shape(_arg(args, kwargs, 0, "matrix"))
    c["gfp.rank.cells"] += rows * cols
    c["gfp.rank.ops_computed"] += rows * cols * min(rows, cols)
    c["gfp.rank.max_dim"] = max(c["gfp.rank.max_dim"], rows, cols)


def _certified(c, args, kwargs, result) -> None:
    c["verify.certify.certified"] += 1


# layer name -> (module, function name, observer called after a normal return)
LAYERS = {
    "monomials.hf": (monomials, "hilbert_function", _hf_degrees),
    "monomials.ci_hilbert": (monomials, "ci_hilbert", None),
    "lpp.phi": (lpp, "phi", None),
    "lpp.delta": (lpp, "delta_m", None),
    "bounds.threshold": (bounds, "best_threshold", None),
    "bounds.profile": (bounds, "hf_profile", None),
    "gfp.assembly": (gfp, "graded_piece_matrix", _assembly_cells),
    "gfp.rank": (gfp, "rank_mod_p", _rank_work),
    "verify.certify": (verify, "random_aci", _certified),
    "verify.dominance": (verify, "check_hf_dominance", None),
    "verify.campaign": (verify, "run_campaign", None),
}
FORM_LAYER = "gfp.form"  # the classmethod Form.random

# Calls counted, not spanned, by the layer of the innermost open span:
# certification tries a regular sequence with graded_rank_hf and an extra
# form with graded_piece_dim; dominance computes one piece per call.
COUNTED = {
    "graded_rank_hf": {"verify.certify": "verify.certify.attempts"},
    "graded_piece_dim": {"verify.certify": "verify.certify.attempts",
                         "verify.dominance": "verify.dominance.pieces"},
}

# Counters reported per layer, all in unit "count".
COUNTERS = ("monomials.hf.degrees", "gfp.assembly.cells", "gfp.rank.cells",
            "gfp.rank.ops_computed", "gfp.rank.max_dim", "verify.certify.attempts",
            "verify.dominance.pieces")


LAYER_NAMES = [*LAYERS, FORM_LAYER]  # a span's layer is an index into this list


class Spans:
    """Spans in flat arrays, with the counters recorded alongside them.

    Times are seconds from the start of the episode that recorded them;
    item ids count across the episodes merged into one Spans."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.episode = array("i")
        self.item = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)

    def extend(self, other: "Spans", episode: int, item_offset: int) -> None:
        base = len(self.layer)
        self.layer.extend(other.layer)
        self.episode.extend(array("i", [episode]) * len(other.layer))
        self.item.extend(array("i", (i + item_offset for i in other.item)))
        self.parent.extend(array("i", (p + base if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        for key, value in other.counts.items():
            merged = max if key == "gfp.rank.max_dim" else int.__add__
            self.counts[key] = merged(self.counts[key], value)

    def self_times(self) -> np.ndarray:
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - children

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self seconds and counters, as name -> (value, unit)."""
        layer = np.frombuffer(self.layer, dtype=np.intc)
        calls = np.bincount(layer, minlength=len(LAYER_NAMES))
        self_s = np.bincount(layer, weights=self.self_times(), minlength=len(LAYER_NAMES))
        out: dict[str, tuple[float, str]] = {}
        for code, name in enumerate(LAYER_NAMES):
            if name != "verify.campaign":
                out[f"{name}.calls"] = (int(calls[code]), "count")
            out[f"{name}.self_s"] = (float(self_s[code]), "s")
        for name in COUNTERS:
            out[name] = (int(self.counts[name]), "count")
        attempts = self.counts["verify.certify.attempts"]
        certified = self.counts["verify.certify.certified"]
        out["verify.certify.yield"] = (certified / attempts if attempts else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as tab-separated layer, episode, item, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("layer\tepisode\titem\tparent\tstart\tend\n")
            for row in zip(self.layer, self.episode, self.item, self.parent, self.start, self.end):
                f.write("%s\t%d\t%d\t%d\t%.9f\t%.9f\n" % (LAYER_NAMES[row[0]], *row[1:]))


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.stack: list[int] = []
        self.current_item = -1
        self.t0 = perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn, observe=None):
        code = LAYER_NAMES.index(name)
        s = self.spans

        def traced(*args, **kwargs):
            index = len(s.layer)
            s.layer.append(code)
            s.item.append(self.current_item)
            s.parent.append(self.stack[-1] if self.stack else -1)
            s.end.append(0.0)
            self.stack.append(index)
            s.start.append(perf_counter() - self.t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end[index] = perf_counter() - self.t0
                self.stack.pop()
            if observe is not None:
                observe(s.counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn, by_layer: dict[str, str]):
        def counted(*args, **kwargs):
            if self.stack:
                key = by_layer.get(LAYER_NAMES[self.spans.layer[self.stack[-1]]])
                if key is not None:
                    self.spans.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "cbtk" or modname.startswith("cbtk."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        for attr, by_layer in COUNTED.items():
            self._set(verify, attr, self._counted(getattr(verify, attr), by_layer))
        for name, (module, attr, observe) in LAYERS.items():
            original = getattr(module, attr)
            self._replace_everywhere(original, self._spanned(name, original, observe))
        raw = gfp.Form.__dict__["random"]
        self._set(gfp.Form, "random", classmethod(self._spanned(FORM_LAYER, raw.__func__)))
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
