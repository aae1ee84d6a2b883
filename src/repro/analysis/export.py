"""Serialize benchmark results to JSON for external analysis/plotting.

Every result type of the harness (:class:`RunStats`,
:class:`PingPongResult`, :class:`OverlapResult`, :class:`HicmaResult`,
:class:`FlowBreakdown`, plain dicts of any of these) converts through
:func:`to_jsonable`; :func:`dump_results` writes a self-describing document
with the package version and the platform constants used, so an exported
measurement can always be traced back to its calibration.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, IO, Union

from repro._version import __version__

__all__ = ["to_jsonable", "dump_results", "load_results", "progress_series"]


def progress_series(source: Any) -> list[dict]:
    """The run's ``run_progress`` heartbeats as JSON-ready dicts.

    ``source`` is an :class:`~repro.obs.bus.ObsBus` or its memory sink
    (anything :func:`~repro.obs.sinks.memory_of` accepts).  Each entry is
    one heartbeat's info payload (tasks done/total, wall elapsed,
    events/s, RSS, ETA) plus its beat ordinal — the wall-clock timeline of
    a long run, ready for :func:`dump_results` or plotting wall-time /
    memory curves against simulated progress.
    """
    from repro.obs.sinks import memory_of

    return [
        {"beat": evt.key, **to_jsonable(evt.info)}
        for evt in memory_of(source).by_kind("run_progress")
    ]


def to_jsonable(obj: Any) -> Any:
    """Best-effort conversion of harness objects to JSON-compatible data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if hasattr(obj, "tolist"):  # numpy scalars/arrays
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {
            k: to_jsonable(v)
            for k, v in vars(obj).items()
            if not k.startswith("_")
        }
    return repr(obj)


def _platform_snapshot() -> dict:
    from repro.config import expanse_platform

    return to_jsonable(expanse_platform())


def dump_results(
    results: Any,
    fp: Union[str, IO[str]],
    title: str = "",
    include_platform: bool = True,
) -> None:
    """Write results (any harness objects) as a JSON document."""
    doc = {
        "repro_version": __version__,
        "title": title,
        "results": to_jsonable(results),
    }
    if include_platform:
        doc["platform"] = _platform_snapshot()
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    else:
        json.dump(doc, fp, indent=2)


def load_results(fp: Union[str, IO[str]]) -> dict:
    """Read a document written by :func:`dump_results`."""
    if isinstance(fp, str):
        with open(fp, encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(fp)
