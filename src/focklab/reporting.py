"""Report records and the JSON/CSV emitters used by the CLI.

Float values are printed with ``repr`` in both formats, so the emitters
agree to full round-trip precision and byte-identical reruns are possible
(timing fields excluded).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA = "focklab/1"


@dataclass
class ReportRecord:
    check_id: str
    status: str                    # pass | fail | inconclusive
    measured: Any
    tolerance: float | None = None
    inputs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)  # every key the check declares
    wall_ms: float = 0.0
    warnings: list = field(default_factory=list)  # {category, message, count} each

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "tolerances": self.tolerances,
            "inputs": self.inputs,
            "wall_ms": round(self.wall_ms, 3),
            "warnings": self.warnings,
        }


def summarize(records: list[ReportRecord]) -> dict:
    return {
        "total": len(records),
        "passed": sum(r.status == "pass" for r in records),
        "failed": sum(r.status == "fail" for r in records),
        "inconclusive": sum(r.status == "inconclusive" for r in records),
    }


def emit_json(records: list[ReportRecord], config: dict, timestamp: str) -> str:
    doc = {
        "schema": SCHEMA,
        "timestamp": timestamp,
        "config": config,
        "records": [r.as_dict() for r in records],
        "summary": summarize(records),
    }
    return json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _jsonable(x):
    if hasattr(x, "as_dict"):
        return x.as_dict()
    if hasattr(x, "tolist"):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _scalarize(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (list, tuple, dict)):
        return json.dumps(x, sort_keys=True, default=_jsonable)
    return str(x)


RECORD_COLUMNS = ("check_id", "status", "measured", "tolerance", "wall_ms", "inputs")


def record_row(r: ReportRecord) -> list[str]:
    """A verify record's CSV row, under ``RECORD_COLUMNS``."""
    return [r.check_id, r.status, _scalarize(r.measured),
            "" if r.tolerance is None else repr(r.tolerance), repr(round(r.wall_ms, 3)),
            json.dumps(r.inputs, sort_keys=True, default=_jsonable)]


def emit_csv(header, rows) -> str:
    """``rows`` under ``header`` as CSV; Python floats print as their ``repr``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def strip_timing(text: str) -> str:
    """Remove timing fields from a JSON report for byte-comparison."""
    doc = json.loads(text)
    doc.pop("timestamp", None)
    for r in doc.get("records", []):
        r.pop("wall_ms", None)
    return json.dumps(doc, indent=2, sort_keys=True)
