"""Finite-difference gradient checks for the tests: central differences of
a scalar graph, compared entry by entry with what ``backward`` gives."""

import numpy as np

from nextevent.errors import NumericsError
from nextevent.tensor import DiffNode


class GradCheckReport:
    """Outcome of :func:`check_gradients`: worst relative error per parameter."""

    def __init__(self, per_param: dict[str, float], num_checked: int):
        self.per_param = per_param
        self.num_checked = num_checked
        self.max_rel_error = max(per_param.values()) if per_param else 0.0

    def __repr__(self):
        return (
            f"GradCheckReport(max_rel_error={self.max_rel_error:.3e},"
            f" entries={self.num_checked})"
        )


def check_gradients(
    f,
    params: dict[str, DiffNode],
    step: float = 1e-5,
    tol: float | None = None,
    max_entries: int = 100,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` to central differences.

    ``f`` must deterministically build a scalar DiffNode from the parameter
    leaves. Every entry is checked for small tensors; for tensors with more
    than ``max_entries`` entries, a seeded random sample of ``max_entries``
    is used. The relative error denominator is floored at 1e-6 so that
    finite-difference noise on near-zero gradients does not register.
    """
    rng = np.random.default_rng(seed)
    root = f(params)
    if root.size != 1:
        raise ValueError("check_gradients: f must return a scalar node")
    if not np.isfinite(root.value).all():
        raise NumericsError("check_gradients: loss is not finite")
    for node in params.values():
        node.zero_grad()
    root.backward()
    analytic = {name: node.grad.copy() for name, node in params.items()}

    per_param: dict[str, float] = {}
    checked = 0
    for name, node in params.items():
        flat = node.value.reshape(-1)
        n = flat.size
        if n <= max_entries:
            entries = np.arange(n)
        else:
            entries = rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in entries:
            original = flat[i]
            flat[i] = original + step
            up = f(params).value.item()
            flat[i] = original - step
            down = f(params).value.item()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
            checked += 1
        per_param[name] = worst

    report = GradCheckReport(per_param, checked)
    if tol is not None and report.max_rel_error >= tol:
        bad = {k: v for k, v in per_param.items() if v >= tol}
        raise AssertionError(f"gradient check failed (tol={tol}): {bad}")
    return report
