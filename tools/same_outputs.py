"""Compare the model's outputs between two checkouts, bit for bit.

    python tools/same_outputs.py BASE_DIR HEAD_DIR

For each checkout, in a fresh process that imports that checkout's ``src``
and ``bench``, runs 4 SGD steps on the first 4 windows of each benchmark
workload, as ``bench/workloads.py`` defines them: ``make_windows(wl, 0, 4)``,
its ``LEARNING_RATE`` (0.01) and ``INIT_SEED`` (0). Each workload runs at
``wl.config()`` and at three variants of it: ``pe="base"``, ``num_scales=1``
and ``causal=True``.
Every loss, type probability, lambda, gamma and ``all_named()`` gradient is
recorded and compared with ``np.array_equal``.

Prints one line per workload: "bit-identical", or the largest relative
difference and where it is. Exits 0 whatever the outputs, because some
changes alter them on purpose; it exits 1 only when a side cannot run.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

STEPS = 4
VARIANTS = {
    "benchmark": {},
    "pe=base": {"pe": "base"},
    "num_scales=1": {"num_scales": 1},
    "causal": {"causal": True},
}


def record(root: Path, out: Path) -> None:
    """Run every workload and variant of the checkout at ``root`` and save
    its outputs to ``out`` (``.npz``), keyed ``workload|variant|step|name``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from nextevent import model as M
    import workloads as W

    if Path(M.__file__).resolve() != (root / "src" / "nextevent" / "model.py").resolve():
        raise SystemExit(f"imported {M.__file__}, not the checkout at {root}")
    outputs = {}
    for wl in W.WORKLOADS.values():
        windows = W.make_windows(wl, 0, STEPS)
        for variant, override in VARIANTS.items():
            params = M.init_model_params(dataclasses.replace(wl.config(), **override),
                                         W.INIT_SEED)
            for step, example in enumerate(windows):
                params.zero_grad()
                result = M.forward(params, example)
                result.total.backward()
                key = f"{wl.name}|{variant}|{step}"
                outputs[f"{key}|loss"] = result.total.value
                outputs[f"{key}|type_probs"] = result.type_probs
                outputs[f"{key}|lam"] = np.array(result.lam)
                outputs[f"{key}|gamma"] = np.array(result.gamma)
                for name, node in params.all_named().items():
                    outputs[f"{key}|{name}.grad"] = node.grad.copy()  # zero_grad reuses it
                for node in params.named_parameters().values():
                    node.value -= W.LEARNING_RATE * node.grad
    np.savez(out, **outputs)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference over the largest magnitude in ``b``;
    infinite when the shapes differ."""
    if a.shape != b.shape:
        return np.inf
    scale = np.max(np.abs(b), initial=0.0)
    diff = np.max(np.abs(a - b), initial=0.0)
    return diff / scale if scale > 0 else diff


def summarize(base: dict, head: dict) -> list[str]:
    """One line per workload: "bit-identical", or where the outputs differ."""
    lines = []
    for wl in dict.fromkeys(k.split("|")[0] for k in [*base, *head]):
        keys = sorted(k for k in base.keys() | head.keys() if k.startswith(wl + "|"))
        one_side = [k for k in keys if k not in base or k not in head]
        if one_side:
            lines.append(f"{wl}: outputs named on one side only, such as {one_side[0]}")
            continue
        diffs = {k: relative_difference(head[k], base[k])
                 for k in keys if not np.array_equal(head[k], base[k])}
        if not diffs:
            lines.append(f"{wl}: bit-identical")
            continue
        where = max(diffs, key=diffs.get)
        lines.append(f"{wl}: largest relative difference {diffs[where]:.3g} at {where}")
    return lines


def run_side(root: Path, out: Path) -> dict:
    subprocess.run([sys.executable, __file__, "--record", str(root), str(out)], check=True)
    with np.load(out) as data:
        return dict(data)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--record":
        record(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_root, head_root = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            base = run_side(base_root, Path(tmp) / "base.npz")
            head = run_side(head_root, Path(tmp) / "head.npz")
        except subprocess.CalledProcessError as e:
            print(f"outputs not compared: a side failed ({e})")
            return 1
    print("\n".join(summarize(base, head)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
