"""Verification reports and canonical (byte-deterministic) JSON output.

Every acceptance criterion returns a :class:`VerificationReport`: a named
bundle of scalar metrics, optional table rows, and an explicit pass/fail
verdict for every metric that carries a declared tolerance.  Reports and the
probes' plain documents serialize through :func:`canonical_json`, which
fixes key order and float formatting so that identical runs produce
identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["VerificationReport", "canonical_json", "fmt17"]


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _encode(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt17(obj))
    elif isinstance(obj, str):
        import json

        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            _encode(str(key), parts)
            parts.append(":")
            _encode(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _encode(item, parts)
        parts.append("]")
    else:
        # numpy scalars and similar duck-typed numbers
        if hasattr(obj, "item"):
            _encode(obj.item(), parts)
        else:
            raise TypeError(f"cannot canonically encode {type(obj).__name__!r}")


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and fixed 17-digit float format.

    The encoding is byte-deterministic: two structurally equal objects always
    produce identical strings, which is what regression locking and the CLI
    determinism contract rely on.
    """
    parts: list[str] = []
    _encode(obj, parts)
    return "".join(parts)


@dataclass
class VerificationReport:
    """Outcome of one verification probe.

    ``tolerances`` maps metric names to inclusive upper bounds; ``evaluate``
    fills ``passes`` with an explicit verdict for each such metric.  Metrics
    without a declared tolerance are informational only.  ``runtime_s`` feeds
    the acceptance runtime gate and is never serialized, so that repeated
    runs stay byte-identical.
    """

    name: str
    inputs: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    table: list[dict[str, Any]] = field(default_factory=list)
    tolerances: dict[str, float] = field(default_factory=dict)
    passes: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    runtime_s: float | None = None

    def evaluate(self) -> bool:
        """Judge every tolerance-carrying metric; return overall verdict."""
        for key, bound in self.tolerances.items():
            if key not in self.metrics:
                raise KeyError(f"tolerance declared for missing metric {key!r}")
            value = self.metrics[key]
            self.passes[key] = bool(math.isfinite(value) and value <= bound)
        return self.all_passed

    @property
    def all_passed(self) -> bool:
        if not self.passes and self.tolerances:
            self.evaluate()
        return all(self.passes.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "metrics": self.metrics,
            "table": self.table,
            "tolerances": self.tolerances,
            "passes": self.passes,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())
