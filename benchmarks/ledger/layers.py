"""The wall ledger: every Python call attributed to the layer of its file.

Installed from here with ``sys.setprofile`` around the measured phase of
one traced repeat; nothing inside the program is touched. The hook keeps
one number per layer — self time, i.e. wall time while a frame of that
layer was the innermost Python frame. C and builtin calls raise no
layer change, so their time stays with the calling frame's layer.

A *span* opens when a call crosses from one layer into another and
closes when that call returns; its parent is the span it opened inside.
Spans are kept in memory (the first :data:`SPAN_CAP` of them — a full
run crosses layers millions of times) and written out by
:func:`write_spans` when the run ends. The per-layer totals always
cover the whole measured phase.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

__all__ = ["LAYERS", "layer_of_file", "WallLedger", "write_spans",
           "SPAN_CAP"]

LAYERS = ("sim.kernel", "sim.network", "consensus", "server", "ext",
          "client", "driver", "obs")

SPAN_CAP = 200_000

_HERE = os.path.dirname(os.path.abspath(__file__))

#: path fragments (below ``repro/``) -> layer; first match wins, so the
#: specific files come before the package they live in.
_RULES = (
    ("sim/network.py", "sim.network"),
    ("sim/", "sim.kernel"),
    ("zk/zab.py", "consensus"),
    ("raft/", "consensus"),
    ("depspace/bft.py", "consensus"),
    ("depspace/ordering.py", "consensus"),
    ("core/broadcast.py", "consensus"),
    ("zk/client.py", "client"),
    ("depspace/client.py", "client"),
    ("core/retry.py", "client"),
    ("recipes/", "client"),
    ("zk/", "server"),
    ("depspace/", "server"),
    ("core/", "ext"),
    ("ezk/", "ext"),
    ("eds/", "ext"),
    ("bench/", "driver"),
    ("chaos/", "driver"),
    ("obs/", "obs"),
)


def layer_of_file(filename: str) -> str:
    """Layer of a code file; ``""`` for a file that belongs to none.

    Files under ``repro/`` follow :data:`_RULES`. Extension sources are
    compiled by the sandbox under the pseudo-filename
    ``<extension:NAME>`` and belong to ``ext``; this directory is the
    ``driver``. Anything else (``random``, ``dataclasses``, ...) runs on
    behalf of whoever called it: :class:`WallLedger` leaves such frames
    in their caller's layer.
    """
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at >= 0:
        below = path[at + len("/repro/"):]
        for fragment, layer in _RULES:
            if below.startswith(fragment):
                return layer
        return "driver"             # repro/__init__.py
    if filename.startswith("<extension"):
        return "ext"
    if path.startswith(_HERE.replace(os.sep, "/")):
        return "driver"
    return ""


class WallLedger:
    """``sys.setprofile`` hook accumulating per-layer self time and calls."""

    def __init__(self) -> None:
        self.self_ns: List[int] = [0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        #: [layer index, start_ns, end_ns, parent span index]
        self.spans: List[list] = []
        self.spans_dropped = 0

    def run(self, fn) -> None:
        """Call ``fn()`` under the hook; the caller is the driver layer."""
        index = {layer: i for i, layer in enumerate(LAYERS)}
        driver = index["driver"]
        code_layer: Dict[object, int] = {}
        self_ns, calls, spans = self.self_ns, self.calls, self.spans
        clock = time.perf_counter_ns
        #: per open Python frame: (layer to restore, span to restore)
        stack: List[tuple] = []
        cur = driver                # layer of the innermost frame
        open_span = -1              # innermost open span (-1: none)
        dropped = 0
        mark = clock()

        def hook(frame, event, _arg):
            nonlocal cur, open_span, mark, dropped
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    name = layer_of_file(code.co_filename)
                    layer = code_layer[code] = index.get(name, -1)
                if layer < 0:       # foreign file: stays with its caller
                    layer = cur
                calls[layer] += 1
                stack.append((cur, open_span))
                if layer != cur:
                    now = clock()
                    self_ns[cur] += now - mark
                    mark = now
                    cur = layer
                    if len(spans) < SPAN_CAP:
                        spans.append([layer, now, 0, open_span])
                        open_span = len(spans) - 1
                    else:
                        dropped += 1
                        open_span = -2      # open, but not recorded
            elif event == "return" and stack:
                back, parent = stack.pop()
                if back != cur:
                    now = clock()
                    self_ns[cur] += now - mark
                    mark = now
                    cur = back
                    if open_span >= 0:
                        spans[open_span][2] = now
                    open_span = parent

        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(None)
            now = clock()
            self_ns[cur] += now - mark
            # Spans still open belong to frames that outlive the hook
            # (suspended generators); close them at the last instant.
            for span in spans:
                if not span[2]:
                    span[2] = now
            self.spans_dropped = dropped

    @property
    def total_ns(self) -> int:
        return sum(self.self_ns)


def write_spans(path: str, workload: str, ledger: WallLedger) -> None:
    """One JSON object per line: ``{id, layer, start_ns, end_ns, parent}``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as out:
        out.write(json.dumps({
            "workload": workload, "spans": len(ledger.spans),
            "dropped": ledger.spans_dropped, "layers": list(LAYERS)}) + "\n")
        for i, (layer, start, end, parent) in enumerate(ledger.spans):
            out.write(json.dumps({
                "id": i, "layer": LAYERS[layer], "start_ns": start,
                "end_ns": end, "parent": parent if parent >= 0 else None},
                separators=(",", ":")) + "\n")
