"""Rate control: per-frame QP adaptation against a bitrate budget.

Every codec path used to take a fixed QP; this module is the seam that
turns "encode at QP 8" into "encode at 500 kbps".  A
:class:`RateController` sits between the GOP session and the codec: the
session asks it for a QP before each frame
(``frame_qp(frame_type, budget_state)``) and reports the coded size
after (``observe(frame_type, qp, bits)``), so the controller steers the
next frame with real feedback from the last one.

Controllers are named plugins in a string-keyed registry, mirroring the
entropy/codec/platform registries.  Three ship built in:

* ``"cqp"`` — constant QP, the pre-rate-control behaviour.  It is
  *non-adaptive*: the session never applies a per-frame override, so
  the coded bytes are identical to a config with no controller at all.
* ``"abr"`` — average-bitrate tracker: a multiplicative QP update
  driven by the ratio of bits spent to budget earned, with per-frame
  step clamping so one outlier frame cannot slam the quality around.
* ``"calibrated"`` — a QP→bits table fitted per frame type (I and P
  cost very differently), inverted to hit a per-frame bit target with
  a balance-feedback term.  The table fits online from ``observe``
  feedback and can be pre-seeded from :func:`calibrate_tables` probe
  encodes; the ``rd-model`` pseudo-codecs skip tables entirely and
  invert their calibrated RD curve directly (see
  :mod:`repro.codec.rd_models`).

The chosen controller name travels in the codec config
(``rate_control=`` / ``target_kbps=`` / ``fps=``) and is recorded in
the bitstream header like ``entropy_backend`` already is.  Per-frame QP
overrides ride in packet meta (classical ``"rq"``, CTVC latents are
already QP-self-describing via ``"q"``), so decode follows the stream,
never the local config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import math

from repro._registry import Registry

__all__ = [
    "ABRController",
    "BudgetState",
    "CQPController",
    "CalibratedController",
    "QPBitsTable",
    "RateControlError",
    "RateController",
    "RateControllerSpec",
    "available_rate_controllers",
    "calibrate_tables",
    "create_rate_controller",
    "rate_controller_spec",
    "register_rate_controller",
    "unregister_rate_controller",
    "validate_rate_fields",
]


class RateControlError(ValueError):
    """Bad rate-control configuration or registry lookup."""


@dataclass
class BudgetState:
    """Running bit-budget ledger one encoder session maintains.

    ``budget_bits`` is the budget *earned so far* (frames coded times
    the per-frame allowance), so ``balance`` is positive when the
    stream is under budget and negative when it has overshot.
    """

    target_kbps: float | None = None
    fps: float = 30.0
    frames_coded: int = 0
    bits_spent: int = 0
    #: per-frame-type coded sizes seen so far (diagnostics + tests).
    bits_by_type: dict = field(default_factory=dict)

    @property
    def target_bits_per_frame(self) -> float:
        """The per-frame bit allowance (0.0 when no target is set)."""
        if self.target_kbps is None:
            return 0.0
        return self.target_kbps * 1000.0 / self.fps

    @property
    def budget_bits(self) -> float:
        """Bits the target entitles the frames coded so far to."""
        return self.target_bits_per_frame * self.frames_coded

    @property
    def balance(self) -> float:
        """Budget earned minus bits spent (negative = overshooting)."""
        return self.budget_bits - self.bits_spent

    def record(self, frame_type: str, bits: int) -> None:
        """Account one coded frame."""
        self.frames_coded += 1
        self.bits_spent += int(bits)
        self.bits_by_type.setdefault(frame_type, []).append(int(bits))


class RateController:
    """Base controller: the protocol plus common bounds/validation.

    Subclasses override :meth:`frame_qp` (QP for the next frame of
    ``frame_type`` given the budget ledger) and optionally
    :meth:`observe` (feedback after the frame coded).  ``adaptive``
    declares whether the controller ever deviates from the config QP —
    a non-adaptive controller's session applies no per-frame override,
    which is what keeps ``"cqp"`` byte-identical to no controller.
    """

    name = "base"
    #: whether frame_qp may return something other than the base QP.
    adaptive = True
    #: whether construction requires target_kbps.
    requires_target = True

    def __init__(
        self,
        base_qp: float,
        *,
        target_kbps: float | None = None,
        fps: float = 30.0,
        min_qp: float = 0.25,
        max_qp: float = 256.0,
    ):
        if base_qp <= 0:
            raise RateControlError(f"base_qp must be > 0, got {base_qp}")
        if fps <= 0:
            raise RateControlError(f"fps must be > 0, got {fps}")
        if target_kbps is not None and target_kbps <= 0:
            raise RateControlError(
                f"target_kbps must be > 0, got {target_kbps}"
            )
        if self.requires_target and target_kbps is None:
            raise RateControlError(
                f"rate controller {self.name!r} tracks a bitrate budget and "
                "needs target_kbps"
            )
        if not 0 < min_qp <= max_qp:
            raise RateControlError(
                f"need 0 < min_qp <= max_qp, got [{min_qp}, {max_qp}]"
            )
        self.base_qp = float(base_qp)
        self.target_kbps = None if target_kbps is None else float(target_kbps)
        self.fps = float(fps)
        self.min_qp = float(min_qp)
        self.max_qp = float(max_qp)

    def new_state(self) -> BudgetState:
        """A fresh budget ledger for one encoder session."""
        return BudgetState(target_kbps=self.target_kbps, fps=self.fps)

    def frame_qp(self, frame_type: str, state: BudgetState) -> float:
        """QP for the next frame (called before it is coded)."""
        raise NotImplementedError

    def observe(self, frame_type: str, qp: float, bits: int) -> None:
        """Feedback after a frame coded ``bits`` bits at ``qp``."""

    def _clamp(self, qp: float) -> float:
        return min(max(qp, self.min_qp), self.max_qp)


class CQPController(RateController):
    """Constant QP — the pre-rate-control behaviour, made explicit.

    Non-adaptive: the session never applies a per-frame override, so
    the coded stream is byte-identical to a config with
    ``rate_control=None``.  A ``target_kbps`` may still be set as a
    reporting goal (ladders use this to measure overshoot of an
    uncontrolled encode); it does not influence coding.
    """

    name = "cqp"
    adaptive = False
    requires_target = False

    def frame_qp(self, frame_type: str, state: BudgetState) -> float:
        return self.base_qp


class ABRController(RateController):
    """Average-bitrate tracker with multiplicative QP updates.

    After each frame the ratio of bits spent to budget earned
    (``fullness``) drives ``qp' = qp * fullness**gain``, clamped to at
    most ``max_step`` per frame and to the ``[min_qp, max_qp]`` bounds.
    ``gain`` below 1 under-reacts deliberately: coded size is roughly
    inverse in QP, so a full-strength correction oscillates.
    """

    name = "abr"

    def __init__(
        self,
        base_qp: float,
        *,
        target_kbps: float | None = None,
        fps: float = 30.0,
        gain: float = 0.6,
        max_step: float = 1.5,
        **bounds,
    ):
        super().__init__(
            base_qp, target_kbps=target_kbps, fps=fps, **bounds
        )
        if gain <= 0:
            raise RateControlError(f"gain must be > 0, got {gain}")
        if max_step <= 1.0:
            raise RateControlError(
                f"max_step must be > 1, got {max_step}"
            )
        self.gain = float(gain)
        self.max_step = float(max_step)
        self._qp = self.base_qp

    def frame_qp(self, frame_type: str, state: BudgetState) -> float:
        budget = state.budget_bits
        if state.frames_coded == 0 or budget <= 0 or state.bits_spent <= 0:
            return self._qp
        fullness = state.bits_spent / budget
        proposal = self._qp * fullness ** self.gain
        lo, hi = self._qp / self.max_step, self._qp * self.max_step
        self._qp = self._clamp(min(max(proposal, lo), hi))
        return self._qp


class QPBitsTable:
    """A fitted QP→bits model for one frame type.

    Coded size follows a power law ``bits ≈ c * qp**slope`` (slope is
    negative) well enough over a codec's useful range, so observations
    are fitted in log-log space by least squares.  With a single
    observation the default slope extrapolates; with none the table
    cannot answer and :meth:`qp_for_bits` returns ``None``.
    """

    #: assumed log-log slope until two distinct QPs have been seen.
    default_slope = -1.3
    #: fitted-slope bounds (a flat or positive fit means the probes
    #: were degenerate; keep the inversion sane).
    slope_bounds = (-4.0, -0.2)

    def __init__(self, probes: list[tuple[float, float]] | None = None):
        self._points: list[tuple[float, float]] = []  # (ln qp, ln bits)
        for qp, bits in probes or []:
            self.observe(qp, bits)

    def observe(self, qp: float, bits: float) -> None:
        if qp <= 0 or bits <= 0:
            return  # degenerate observation; ignore
        self._points.append((math.log(qp), math.log(bits)))

    def _fit(self) -> tuple[float, float] | None:
        """(slope, intercept) of the log-log fit, or None if unfitted."""
        if not self._points:
            return None
        xs = [x for x, _ in self._points]
        ys = [y for _, y in self._points]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var = sum((x - mean_x) ** 2 for x in xs)
        if var < 1e-12:  # one distinct QP: assume the default slope
            slope = self.default_slope
        else:
            slope = sum(
                (x - mean_x) * (y - mean_y) for x, y in self._points
            ) / var
            lo, hi = self.slope_bounds
            slope = min(max(slope, lo), hi)
        intercept = mean_y - slope * mean_x
        return slope, intercept

    def bits_for_qp(self, qp: float) -> float | None:
        fit = self._fit()
        if fit is None or qp <= 0:
            return None
        slope, intercept = fit
        return math.exp(intercept + slope * math.log(qp))

    def qp_for_bits(self, bits: float) -> float | None:
        fit = self._fit()
        if fit is None or bits <= 0:
            return None
        slope, intercept = fit
        return math.exp((math.log(bits) - intercept) / slope)


class CalibratedController(RateController):
    """QP→bits table per frame type, inverted per frame.

    Each frame's bit target is the per-frame allowance plus a fraction
    of the accumulated balance (spread over ``horizon`` frames so a
    deficit is repaid gradually), inverted through the frame type's
    :class:`QPBitsTable`.  Tables start from ``probes`` when given
    (see :func:`calibrate_tables`) and keep fitting online from
    ``observe`` feedback either way, so the controller converges even
    when started cold.
    """

    name = "calibrated"

    def __init__(
        self,
        base_qp: float,
        *,
        target_kbps: float | None = None,
        fps: float = 30.0,
        probes: dict[str, list[tuple[float, float]]] | None = None,
        horizon: int = 8,
        max_step: float = 2.0,
        **bounds,
    ):
        super().__init__(
            base_qp, target_kbps=target_kbps, fps=fps, **bounds
        )
        if horizon < 1:
            raise RateControlError(f"horizon must be >= 1, got {horizon}")
        if max_step <= 1.0:
            raise RateControlError(
                f"max_step must be > 1, got {max_step}"
            )
        self.horizon = int(horizon)
        self.max_step = float(max_step)
        self._tables: dict[str, QPBitsTable] = {}
        for frame_type, points in (probes or {}).items():
            self._tables[frame_type] = QPBitsTable(points)
        self._last_qp: dict[str, float] = {}

    def _table(self, frame_type: str) -> QPBitsTable:
        return self._tables.setdefault(frame_type, QPBitsTable())

    def frame_qp(self, frame_type: str, state: BudgetState) -> float:
        target = state.target_bits_per_frame + state.balance / self.horizon
        target = max(target, state.target_bits_per_frame * 0.1, 1.0)
        qp = self._table(frame_type).qp_for_bits(target)
        if qp is None:  # cold start: no observation of this type yet
            qp = self._last_qp.get(frame_type, self.base_qp)
        else:
            last = self._last_qp.get(frame_type)
            if last is not None:
                qp = min(max(qp, last / self.max_step), last * self.max_step)
        qp = self._clamp(qp)
        self._last_qp[frame_type] = qp
        return qp

    def observe(self, frame_type: str, qp: float, bits: int) -> None:
        self._table(frame_type).observe(qp, bits)


# -- registry ----------------------------------------------------------------
@dataclass(frozen=True)
class RateControllerSpec:
    """One registry entry: factory plus the flags config validation and
    sessions need without instantiating anything."""

    name: str
    factory: Callable[..., RateController]
    requires_target: bool
    adaptive: bool
    description: str = ""


_RATE_CONTROLLERS = Registry("rate controller", RateControlError)


def register_rate_controller(
    name: str,
    factory: Callable[..., RateController],
    *,
    requires_target: bool | None = None,
    adaptive: bool | None = None,
    description: str = "",
    overwrite: bool = False,
) -> RateControllerSpec:
    """Register a controller factory under ``name``.

    ``factory(base_qp, target_kbps=..., fps=..., **options)`` must
    return a :class:`RateController`.  ``requires_target``/``adaptive``
    default to the factory's class attributes when it has them.
    """
    if requires_target is None:
        requires_target = bool(getattr(factory, "requires_target", True))
    if adaptive is None:
        adaptive = bool(getattr(factory, "adaptive", True))
    spec = RateControllerSpec(name, factory, requires_target, adaptive, description)
    return _RATE_CONTROLLERS.add(name, spec, overwrite=overwrite)


def unregister_rate_controller(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _RATE_CONTROLLERS.remove(name)


def available_rate_controllers() -> list[str]:
    """Sorted names of every registered rate controller."""
    return _RATE_CONTROLLERS.names()


def rate_controller_spec(name: str) -> RateControllerSpec:
    """Look up a registry entry, with a helpful unknown-name error."""
    return _RATE_CONTROLLERS.get(name)


def create_rate_controller(
    name: str,
    *,
    base_qp: float,
    target_kbps: float | None = None,
    fps: float = 30.0,
    **options,
) -> RateController:
    """Instantiate a registered controller."""
    spec = rate_controller_spec(name)
    return spec.factory(
        base_qp, target_kbps=target_kbps, fps=fps, **options
    )


def validate_rate_fields(
    rate_control: str | None, target_kbps: float | None, fps: float
) -> None:
    """Validate a codec config's rate-control field triple.

    The up-front check every config ``__post_init__`` runs, so a bad
    combination fails at construction — which is exactly where
    ``run_many`` grid expansion builds configs, long before any job
    reaches a pool or queue.
    """
    if fps <= 0:
        raise RateControlError(f"fps must be > 0, got {fps}")
    if target_kbps is not None and target_kbps <= 0:
        raise RateControlError(f"target_kbps must be > 0, got {target_kbps}")
    if rate_control is not None:
        spec = rate_controller_spec(rate_control)  # raises on unknown names
        if spec.requires_target and target_kbps is None:
            raise RateControlError(
                f"rate controller {rate_control!r} tracks a bitrate budget "
                "and needs target_kbps"
            )
    elif target_kbps is not None:
        raise RateControlError(
            "target_kbps needs a rate controller; set rate_control= "
            f"(available: {', '.join(available_rate_controllers())})"
        )


# -- calibration --------------------------------------------------------------
def calibrate_tables(
    codec_name: str,
    codec_config: dict | None = None,
    *,
    qps: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0),
    scene: dict | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Probe-encode a short scene at several QPs and return per-frame-
    type ``(qp, mean bits)`` tables for :class:`CalibratedController`.

    ``codec_name`` is a codec-registry name whose config has a ``qp``
    or ``qstep`` knob (``"classical"``/``"ctvc"``; the ``rd-model``
    pseudo-codecs need no tables — they invert their calibrated RD
    curve directly).  The probe scene defaults to a small synthetic
    clip spanning one GOP; pass ``scene`` overrides to calibrate
    against content closer to the real workload.
    """
    import dataclasses as _dc

    from repro.pipeline.registry import codec_spec, create_codec
    from repro.video import SceneConfig, generate_sequence

    spec = codec_spec(codec_name)
    fields = {f.name for f in _dc.fields(spec.config_cls)}
    knob = "qstep" if "qstep" in fields else "qp"
    if knob not in fields:
        raise RateControlError(
            f"codec {codec_name!r} has no qp/qstep knob to calibrate"
        )
    base = dict(codec_config or {})
    base.pop("rate_control", None)
    base.pop("target_kbps", None)
    scene_cfg = SceneConfig.from_dict(
        {"height": 32, "width": 48, "frames": 6, **(scene or {})}
    )
    frames = generate_sequence(scene_cfg)
    tables: dict[str, list[tuple[float, float]]] = {}
    for qp in qps:
        if qp <= 0:
            raise RateControlError(f"probe qps must be > 0, got {qp}")
        codec = create_codec(codec_name, {**base, knob: float(qp)})
        session = codec.open_encoder()
        sizes: dict[str, list[int]] = {}
        for packet in session.encode_iter(frames):
            sizes.setdefault(packet.frame_type, []).append(
                8 * len(packet.serialize())
            )
        for frame_type, bits in sizes.items():
            tables.setdefault(frame_type, []).append(
                (float(qp), sum(bits) / len(bits))
            )
    return tables


# -- built-in registrations ---------------------------------------------------
register_rate_controller(
    "cqp",
    CQPController,
    description="constant QP (the pre-rate-control behaviour)",
)
register_rate_controller(
    "abr",
    ABRController,
    description="running-average budget tracker with per-frame QP clamping",
)
register_rate_controller(
    "calibrated",
    CalibratedController,
    description="QP->bits table per I/P frame type, inverted per frame",
)
