"""Golden reference outputs for the default seed.

`golden.json` holds, per workload, one record per clip for its first clips:
the pipeline report (and the output `joints3d` of the first few clips) for
`eval_short` and `live_logits`, and the per-sample (KL, bone, total) losses
for `train_targets`.  A run on the default seed must match every number
within 1e-12 (relative above magnitude 1), the tolerance the ROADMAP allows
for reordered sums; everything else must match exactly.

Regenerate it only when outputs are meant to change:
`python3 bench/run.py --write-golden`.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
TOLERANCE = 1e-12
MAX_REPORTED = 10


def _diff(ref, got, where: str, out: list[str]) -> None:
    if len(out) >= MAX_REPORTED:
        return
    if isinstance(ref, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) \
            and abs(got - ref) <= TOLERANCE * max(1.0, abs(ref))
        if not ok:
            out.append(f"{where}: {got!r} != golden {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{where}: keys {sorted(got)} != golden {sorted(ref)}")
            return
        for key in ref:
            _diff(ref[key], got[key], f"{where}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)} != golden {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{where}[{i}]", out)
    elif ref != got:
        out.append(f"{where}: {got!r} != golden {ref!r}")


def check(workload: str, records: list[dict]) -> list[str]:
    """Differences between a run's first-clip records and the golden ones."""
    ref = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"][workload]
    n = min(len(ref), len(records))
    out: list[str] = []
    _diff(ref[:n], json.loads(json.dumps(records[:n])), f"golden {workload}", out)
    return out


def write(seed: int, records: dict[str, list[dict]]) -> None:
    """One record per line, so a change shows as a readable diff."""
    lines = ["{", f'"seed": {seed},', f'"tolerance": {TOLERANCE!r},', '"workloads": {']
    for w, (name, recs) in enumerate(records.items()):
        lines.append(f'"{name}": [')
        lines += [json.dumps(r, separators=(",", ":")) + ("," if i < len(recs) - 1 else "")
                  for i, r in enumerate(recs)]
        lines.append("]" + ("," if w < len(records) - 1 else ""))
    lines += ["}", "}"]
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
