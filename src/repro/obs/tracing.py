"""Tracing spans and the flight recorder.

:func:`span` is a context manager producing nested :class:`Span`
records: monotonic start/duration, a parent id taken from the
enclosing span on the same thread, and the current job id (set by the
worker loop around each job, so every span coded under a job carries
it).  Finished spans land in the process :class:`FlightRecorder` — a
fixed-size ring buffer that dumps its last N spans as JSONL on demand
or when a worker hits an error, and hands *new-since-last-drain*
spans to the heartbeat so the queue server can keep a fleet-wide tail
(``GET /trace``).

The whole layer sits behind one switch.  Disabled (the default),
:func:`span` returns a shared no-op context manager — one function
call and a truthiness check, no allocation, no clock read — which is
what keeps instrumented hot paths at ~zero cost until someone turns
tracing on (:func:`enable`, the ``REPRO_OBS_TRACE=1`` environment
variable, or a CLI ``--trace-out``).  Per-stage codec timers use the
same switch through :func:`encode_stage_timer`.

>>> enable()
>>> with span("encode.frame", frame_type="I") as s:
...     with span("classical.transform"):
...         pass
>>> spans = get_recorder().tail(2)
>>> [s["name"] for s in spans]
['classical.transform', 'encode.frame']
>>> spans[0]["parent_id"] == spans[1]["span_id"]
True
>>> enable(False)
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque

from .metrics import get_registry

__all__ = [
    "FlightRecorder",
    "Span",
    "critical_path",
    "current_job_id",
    "drain_spans",
    "enable",
    "enabled",
    "encode_stage_timer",
    "get_recorder",
    "load_trace",
    "render_trace_tree",
    "reset_recorder",
    "set_job_id",
    "span",
    "trace_meta",
]

#: default ring capacity of the process flight recorder.
DEFAULT_CAPACITY = 2048


class _State:
    __slots__ = ("enabled",)

    def __init__(self, enabled: bool):
        self.enabled = enabled


_STATE = _State(os.environ.get("REPRO_OBS_TRACE", "") not in ("", "0"))
_IDS = itertools.count(1)
_TLS = threading.local()


def enabled() -> bool:
    """Is span recording (and per-stage codec timing) on?"""
    return _STATE.enabled


def enable(flag: bool = True) -> None:
    """Flip the tracing switch for this process."""
    _STATE.enabled = bool(flag)


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def current_job_id() -> str | None:
    """Job id attached to spans on this thread (``None`` outside a
    job)."""
    return getattr(_TLS, "job_id", None)


def set_job_id(job_id: str | None) -> None:
    """Tag subsequent spans on this thread with ``job_id`` (the worker
    loop sets it around each job and clears it after)."""
    _TLS.job_id = job_id


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_IDS):x}"


def trace_meta() -> dict:
    """The ``kind="meta"`` header row trace files start with: which
    build and which process produced the spans that follow."""
    import repro

    return {
        "kind": "meta",
        "version": getattr(repro, "__version__", "unknown"),
        "pid": os.getpid(),
    }


class Span:
    """One live span; ``attrs`` may be extended inside the block."""

    __slots__ = ("name", "span_id", "parent_id", "job_id", "attrs",
                 "start_unix", "_t0", "dur_s")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id = None
        self.job_id = None
        self.start_unix = 0.0
        self.dur_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent_id = stack[-1].span_id
        self.job_id = current_job_id()
        stack.append(self)
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_s = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs = dict(self.attrs)
            self.attrs["error"] = exc_type.__name__
        get_recorder().record(self.to_dict())
        return False

    def to_dict(self) -> dict:
        record = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "job_id": self.job_id,
            "start_unix": self.start_unix,
            "dur_s": self.dur_s,
        }
        if self.attrs:
            record["attrs"] = {k: v for k, v in self.attrs.items()}
        return record


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span named ``name``; a no-op while tracing is off."""
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name, attrs)


class FlightRecorder:
    """Fixed-size ring of finished span records.

    ``tail`` reads the newest records, ``drain`` hands back (and
    forgets) everything recorded since the previous drain — the
    heartbeat's increment — and ``dump`` writes a JSONL file headed by
    a :func:`trace_meta` row, the format ``repro trace`` renders.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        self._fresh: deque = deque(maxlen=self.capacity)

    def record(self, record: dict) -> None:
        with self._lock:
            self._ring.append(record)
            self._fresh.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def tail(self, n: int | None = None) -> list[dict]:
        """The newest ``n`` records, oldest first (all when ``None``)."""
        with self._lock:
            records = list(self._ring)
        return records if n is None else records[-int(n):]

    def drain(self) -> list[dict]:
        """Records added since the last drain (bounded by capacity)."""
        with self._lock:
            fresh = list(self._fresh)
            self._fresh.clear()
        return fresh

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._fresh.clear()

    def dump(self, path, limit: int | None = None) -> int:
        """Write the last ``limit`` spans (all by default) as JSONL,
        one :func:`trace_meta` header row first.  Returns the number
        of span rows written."""
        records = self.tail(limit)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(trace_meta(), sort_keys=True) + "\n")
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


_RECORDER = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process flight recorder every finished span lands in."""
    return _RECORDER


def reset_recorder() -> FlightRecorder:
    """Replace the process flight recorder with an empty one (a forked
    worker, whose copy of the parent's ring is not its own)."""
    global _RECORDER
    _RECORDER = FlightRecorder()
    return _RECORDER


def drain_spans() -> list[dict]:
    """New spans since the last heartbeat (empty while tracing is
    off — the common case costs one attribute check)."""
    if not _STATE.enabled:
        return []
    return _RECORDER.drain()


_STAGE_HIST: tuple = (None, None)


def _stage_histogram():
    """The per-stage histogram, resolved once per registry — laps are
    the hottest metrics call site, so they skip the by-name lookup
    (and re-resolve if :func:`~repro.obs.metrics.reset_registry`
    swapped the global registry out underneath)."""
    global _STAGE_HIST
    registry = get_registry()
    cached_registry, histogram = _STAGE_HIST
    if cached_registry is not registry:
        histogram = registry.histogram(
            "repro_encode_stage_seconds",
            "codec stage time (entropy per packet, the rest per plane or latent)",
        )
        _STAGE_HIST = (registry, histogram)
    return histogram


class _StageTimer:
    """Per-stage codec timing: each :meth:`lap` closes one stage,
    recording a span and a ``repro_encode_stage_seconds`` histogram
    observation labelled by codec and stage."""

    __slots__ = ("codec", "parent_id", "job_id", "_last")

    def __init__(self, codec: str):
        self.codec = codec
        stack = _stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.job_id = current_job_id()
        self._last = time.perf_counter()

    def lap(self, stage: str) -> float:
        now = time.perf_counter()
        dur = now - self._last
        self._last = now
        _stage_histogram().observe(dur, codec=self.codec, stage=stage)
        _RECORDER.record(
            {
                "kind": "span",
                "name": f"{self.codec}.{stage}",
                "span_id": _new_span_id(),
                "parent_id": self.parent_id,
                "job_id": self.job_id,
                "start_unix": time.time() - dur,
                "dur_s": dur,
            }
        )
        return dur


def encode_stage_timer(codec: str) -> _StageTimer | None:
    """A :class:`_StageTimer` while tracing is on, else ``None`` — the
    hot path guards each lap with a plain truthiness check."""
    if not _STATE.enabled:
        return None
    return _StageTimer(codec)


# -- trace files: loading and rendering (the ``repro trace`` view) ----------
def load_trace(path) -> tuple[dict | None, list[dict]]:
    """Read a flight-recorder JSONL file; returns ``(meta, spans)``.

    ``meta`` is the leading ``kind="meta"`` row when present (build
    version, pid), ``spans`` every span row in file order.  Malformed
    lines raise :class:`ValueError` naming the line number.
    """
    meta = None
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSONL ({exc})")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: span rows are objects")
            if record.get("kind") == "meta":
                meta = record
            else:
                spans.append(record)
    return meta, spans


def _fmt_ms(seconds: float) -> str:
    ms = float(seconds) * 1000.0
    return f"{ms:.2f}ms" if ms < 10 else f"{ms:.1f}ms"


def _children_index(spans: list[dict]) -> tuple[list[dict], dict]:
    """Roots (orphans included) plus a parent-id -> children map, both
    in record order (the recorder preserves completion order; sorting
    by start keeps renders stable)."""
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")}
    children: dict = {}
    roots: list[dict] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.get("start_unix", 0.0))
    roots.sort(key=lambda s: s.get("start_unix", 0.0))
    return roots, children


def _span_label(s: dict) -> str:
    label = str(s.get("name", "?"))
    job = s.get("job_id")
    if job:
        label += f"  [{job}]"
    attrs = s.get("attrs") or {}
    if attrs:
        body = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        label += f"  ({body})"
    return label


def render_trace_tree(spans: list[dict], *, max_roots: int | None = None) -> str:
    """ASCII tree of spans nested by parent id, durations on every
    row — what ``repro trace`` prints."""
    roots, children = _children_index(spans)
    shown = roots if max_roots is None else roots[-int(max_roots):]
    lines: list[str] = []

    def walk(s: dict, prefix: str, tail: bool, top: bool) -> None:
        if top:
            head = ""
        else:
            head = prefix + ("└─ " if tail else "├─ ")
        lines.append(f"{head}{_span_label(s)}  {_fmt_ms(s.get('dur_s', 0.0))}")
        kids = children.get(s.get("span_id"), [])
        for i, kid in enumerate(kids):
            deeper = "" if top else prefix + ("   " if tail else "│  ")
            walk(kid, deeper, i == len(kids) - 1, False)

    for root in shown:
        walk(root, "", True, True)
    if max_roots is not None and len(roots) > len(shown):
        lines.append(f"... ({len(roots) - len(shown)} earlier roots elided)")
    return "\n".join(lines)


def critical_path(spans: list[dict]) -> list[dict]:
    """The longest chain: from the slowest root, repeatedly descend
    into the slowest child.  Returns the chain's span records, root
    first (empty for an empty trace)."""
    roots, children = _children_index(spans)
    if not roots:
        return []
    node = max(roots, key=lambda s: s.get("dur_s", 0.0))
    path = [node]
    while True:
        kids = children.get(node.get("span_id"), [])
        if not kids:
            return path
        node = max(kids, key=lambda s: s.get("dur_s", 0.0))
        path.append(node)
