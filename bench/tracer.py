"""Traced-run recorder: spans around the calls into each dahyf layer.

While a traced clip runs, the recorder swaps the chosen callables for timing
wrappers and restores the originals afterwards, so nothing under `src/`
knows about it.  A span is (name, start, end, parent, clip) and is kept in
memory until the run writes the trace.  A span's layer is the `__module__`
of the callable it wraps.  At the same boundaries it counts bytes read and
written, gating outcomes and, by hashing, how many FK and projection calls
see inputs not seen before; the hashing happens only in the traced run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("arrayio", "camera", "codec", "confidence", "data", "fusion", "geometry",
          "hand_model", "losses", "metrics", "pipeline", "tempfilter")

CLIP_SPAN = "bench.clip"

FRACTION = ("fraction", "lower")


def _layer_metric_units() -> dict[str, tuple[str, str]]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_frame"] = ("calls/frame", "lower")
        units[f"{layer}.busy_us_per_frame"] = ("us/frame", "lower")
        units[f"{layer}.busy_us_per_call"] = ("us/call", "lower")
    return units


# name -> (unit, which direction is better) of every per-layer metric
METRICS = {
    **_layer_metric_units(),
    "hand_model.fk_us_per_call": ("us/call", "lower"),
    "hand_model.fk_calls_per_frame": ("calls/frame", "lower"),
    "hand_model.fk_unique_ratio": ("fraction", "higher"),
    "hand_model.load_model_us_per_clip": ("us/clip", "lower"),
    "camera.project_unique_ratio": ("fraction", "higher"),
    "pipeline.self_us_per_frame": ("us/frame", "lower"),
    "data.bytes_read_per_frame": ("B/frame", "lower"),
    "data.bytes_written_per_frame": ("B/frame", "lower"),
    "arrayio.bytes_read_per_frame": ("B/frame", "lower"),
    "codec.decode_us_per_frame": ("us/frame", "lower"),
    "codec.encode_us_per_frame": ("us/frame", "lower"),
    "metrics.joint_errors_us_per_call": ("us/call", "lower"),
    "tempfilter.from_dict_us_per_frame": ("us/frame", "lower"),
    "tempfilter.to_dict_us_per_frame": ("us/frame", "lower"),
    "tempfilter.gate_us_per_frame": ("us/frame", "lower"),
    "tempfilter.smooth_us_per_frame": ("us/frame", "lower"),
    "tempfilter.replaced_frac": FRACTION,
    "tempfilter.unreliable_frac": FRACTION,
    "trace.fk_share": FRACTION,
    "trace.json_share": FRACTION,
    "trace.procrustes_share": FRACTION,
    "trace.overhead_frac": FRACTION,
}

# Shares of run_pipeline time measured when the ROADMAP was re-anchored, and
# how far (absolute) a measured share may sit from one to count as reproducing it.
REANCHOR_SHARES = {"trace.fk_share": 0.40, "trace.json_share": 0.25, "trace.procrustes_share": 0.10}
REANCHOR_TOLERANCE = 0.10


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.digest()


class Tracer:
    """In-memory span recorder; install it around one clip at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start ns, end ns, parent span, clip]
        self._stack: list[int] = []
        self._clip = -1
        self.counts: Counter = Counter()
        self.fk_inputs: set[bytes] = set()
        self.project_inputs: set[bytes] = set()
        self._observers = {
            "hand_model.forward_kinematics": self._observe_fk,
            "camera.project_points": self._observe_project,
            "data.read_jsonl": lambda a, r: self._add_size("data.bytes_read", a["path"]),
            "data.write_jsonl": lambda a, r: self._add_size("data.bytes_written", a["path"]),
            "arrayio.read_coord_array": lambda a, r: self._add_size("arrayio.bytes_read", a["path"]),
            "tempfilter.gate_sequence": self._observe_gate,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._clip])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('dahyf.')}.{fn.__qualname__}"
        nid = self._name_id(name)
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe is not None else None

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets, clip: int):
        """Wrap each (owner, attribute) callable for one clip, then restore it."""
        saved = []
        try:
            for owner, attr in targets:
                raw = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(raw))
            self._clip = clip
            idx = self._open(self._name_id(CLIP_SPAN))
            try:
                yield
            finally:
                self._close(idx)
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self._clip = -1

    def _observe_fk(self, args, result) -> None:
        self.counts["hand_model.fk_calls"] += 1
        self.fk_inputs.add(_digest(args["shape"].betas, args["pose"].rotations))

    def _observe_project(self, args, result) -> None:
        cam = args["cam"]
        self.counts["camera.project_calls"] += 1
        self.project_inputs.add(_digest(args["points"], cam.translation, [cam.focal, *cam.principal]))

    def _observe_gate(self, args, result) -> None:
        self.counts["tempfilter.gated"] += len(result)
        self.counts["tempfilter.replaced"] += sum(f.replaced_from is not None for f in result)
        self.counts["tempfilter.unreliable"] += sum(bool(f.unreliable) for f in result)

    def _add_size(self, key: str, path) -> None:
        self.counts[key] += os.path.getsize(path)

    def metrics(self, frames: int, clips: int, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer figures over every traced clip.  A layer's busy time is
        the time in its outermost spans; pipeline self time is run_pipeline
        minus the wrapped calls it makes."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        by_name, n_by_name = Counter(), Counter()
        calls, busy = Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            d = end - start
            name, layer = self.names[nid], layer_of[nid]
            by_name[name] += d
            n_by_name[name] += 1
            calls[layer] += 1
            if parent >= 0:
                child_ns[parent] += d
            p = parent
            while p >= 0 and layer_of[self.spans[p][0]] != layer:
                p = self.spans[p][3]
            if p < 0:
                busy[layer] += d
        self_ns = sum(end - start - child_ns[i] for i, (nid, start, end, _, _) in enumerate(self.spans)
                      if self.names[nid] == "pipeline.run_pipeline")

        def ratio(a, b):
            return a / b if b else 0.0

        def per_frame_us(ns):
            return ratio(ns, frames) / 1e3

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_frame"] = ratio(calls[layer], frames)
            out[f"{layer}.busy_us_per_frame"] = per_frame_us(busy[layer])
            out[f"{layer}.busy_us_per_call"] = ratio(busy[layer], calls[layer]) / 1e3
        fk, n_fk = by_name["hand_model.forward_kinematics"], n_by_name["hand_model.forward_kinematics"]
        total = by_name[CLIP_SPAN]
        c = self.counts
        out.update({
            "hand_model.fk_us_per_call": ratio(fk, n_fk) / 1e3,
            "hand_model.fk_calls_per_frame": ratio(n_fk, frames),
            "hand_model.fk_unique_ratio": ratio(len(self.fk_inputs), c["hand_model.fk_calls"]),
            "hand_model.load_model_us_per_clip": ratio(by_name["hand_model.load_model"], clips) / 1e3,
            "camera.project_unique_ratio": ratio(len(self.project_inputs), c["camera.project_calls"]),
            "pipeline.self_us_per_frame": per_frame_us(self_ns),
            "data.bytes_read_per_frame": ratio(c["data.bytes_read"], frames),
            "data.bytes_written_per_frame": ratio(c["data.bytes_written"], frames),
            "arrayio.bytes_read_per_frame": ratio(c["arrayio.bytes_read"], frames),
            "codec.decode_us_per_frame": per_frame_us(by_name["codec.decode_soft_argmax"]),
            "codec.encode_us_per_frame": per_frame_us(by_name["codec.encode_labels"]),
            "metrics.joint_errors_us_per_call":
                ratio(by_name["metrics.joint_errors"], n_by_name["metrics.joint_errors"]) / 1e3,
            "tempfilter.from_dict_us_per_frame": per_frame_us(by_name["tempfilter.FrameResult.from_dict"]),
            "tempfilter.to_dict_us_per_frame": per_frame_us(by_name["tempfilter.FrameResult.to_dict"]),
            "tempfilter.gate_us_per_frame": per_frame_us(by_name["tempfilter.gate_sequence"]),
            "tempfilter.smooth_us_per_frame": per_frame_us(by_name["tempfilter.smooth_sequence"]),
            "tempfilter.replaced_frac": ratio(c["tempfilter.replaced"], c["tempfilter.gated"]),
            "tempfilter.unreliable_frac": ratio(c["tempfilter.unreliable"], c["tempfilter.gated"]),
            "trace.fk_share": ratio(fk, total),
            "trace.json_share": ratio(by_name["data.read_jsonl"] + by_name["data.write_jsonl"], total),
            "trace.procrustes_share": ratio(by_name["metrics.joint_errors"], total),
            "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
        })
        return out

    def write(self, path: Path, header: dict) -> None:
        t0 = min((s[1] for s in self.spans), default=0)
        doc = {
            **header,
            "names": self.names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "clip"],
            "spans": [[nid, s - t0, e - t0, p, c] for nid, s, e, p, c in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def reanchor_statement(metrics: dict[str, float]) -> str:
    """Whether the measured eval_short shares reproduce the ROADMAP re-anchor."""
    parts = []
    for key, expected in REANCHOR_SHARES.items():
        got = metrics[key]
        verdict = "reproduced" if abs(got - expected) <= REANCHOR_TOLERANCE else "NOT reproduced"
        parts.append(f"{key.removeprefix('trace.').removesuffix('_share')} {got:.1%} "
                     f"(re-anchor ~{expected:.0%}: {verdict})")
    return ("shares of run_pipeline time vs the ROADMAP re-anchor, "
            f"within {REANCHOR_TOLERANCE:.0%} points: " + "; ".join(parts))
