"""System specification — the "configure the interface framework" step (§II).

The paper's workflow for a programmer is: partition the algorithm, define
functional units, then *configure the interface framework by specifying
size parameters for the register file and selecting the appropriate
transmitter and receiver modules*.  :class:`SystemSpec` is that step as one
frozen value: equal specs build identical systems, so lockstep twins are
``dataclasses.replace(spec, backend=b).build()``.  :func:`build_system` is
the one-call convenience wrapper used throughout the tests, examples and
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import DEFAULT_CONFIG, FrameworkConfig
from ..faults import StateFaultSpec
from ..fu.registry import UnitFactory, UnitRegistry, default_registry, fp_registry
from ..hdl import Simulator
from ..hdl.sim import SimClock
from ..messages.channel import INTEGRATED, ChannelSpec
from ..messages.faults import FaultSpec
from .soc import CoprocessorSystem


@dataclass
class BuiltSystem:
    """A wired system plus its simulator (what a spec builds)."""

    soc: CoprocessorSystem
    sim: Simulator
    #: default in-flight window for host engines opened on this system
    #: (None → the engine's own DEFAULT_WINDOW)
    engine_window: Optional[int] = None

    @property
    def config(self) -> FrameworkConfig:
        return self.soc.config


@dataclass(frozen=True)
class SystemSpec:
    """Everything that determines a coprocessor installation.

    ``channel``/``upstream`` select the link model for each direction
    (transceiver selection in the paper; ``upstream=None`` mirrors
    ``channel``).  ``registry`` supplies the functional units (default:
    the case-study units, pipelined per ``config.pipelined_units``);
    ``units`` adds ``(code, factory)`` pairs on top of it, ``fp_units``
    adds the pipelined floating-point family, and ``unit_codes``
    restricts the build to a subset of the registered codes.

    ``backend`` picks the simulation kernel (``"event"``,
    ``"exhaustive"`` or ``"compiled"`` — all cycle-exact, identical
    traces); ``wheel=False`` disables the cycle-skipping time wheel, for
    equivalence cross-checks.  ``window`` is the default in-flight window
    of host engines opened on the system.

    ``faults``/``upstream_faults`` inject a deterministic fault schedule
    into the corresponding link direction; ``state_faults`` injects a
    seeded SEU schedule into the architectural state and enables the
    ECC/scrub/machine-check stack, which ``state_protection=True``
    enables without injection.  ``lint`` is the design-rule check posture
    (``"warn"`` prints findings, ``"error"`` raises
    :class:`~repro.analysis.lint.LintFailure`, ``"off"`` skips).
    """

    config: FrameworkConfig = DEFAULT_CONFIG
    channel: ChannelSpec = INTEGRATED
    upstream: Optional[ChannelSpec] = None
    registry: Optional[UnitRegistry] = None
    units: tuple[tuple[int, UnitFactory], ...] = ()
    unit_codes: Optional[tuple[int, ...]] = None
    fp_units: bool = False
    backend: str = "event"
    wheel: bool = True
    window: Optional[int] = None
    faults: Optional[FaultSpec] = None
    upstream_faults: Optional[FaultSpec] = None
    state_faults: Optional[StateFaultSpec] = None
    state_protection: bool = False
    lint: str = "warn"

    def __post_init__(self) -> None:
        if self.lint not in ("off", "warn", "error"):
            raise ValueError(f"lint mode must be off/warn/error, got {self.lint!r}")
        if self.window is not None and self.window < 1:
            raise ValueError("engine window must be at least 1")
        # Sequences arrive as lists too; tuples keep the spec hashable.
        object.__setattr__(self, "units", tuple(self.units))
        if self.unit_codes is not None:
            object.__setattr__(self, "unit_codes", tuple(self.unit_codes))

    def build(self) -> BuiltSystem:
        """Wire a fresh system, reset its simulator and run the lint check."""
        registry = self.registry
        if self.units or self.fp_units:
            # Never mutate the caller's registry: a spec builds many times.
            registry = (registry.copy() if registry is not None
                        else default_registry(self.config.pipelined_units))
            for code, factory in self.units:
                registry.register(code, factory)
            if self.fp_units:
                registry = fp_registry(registry)
        soc = CoprocessorSystem(
            self.config,
            channel=self.channel,
            registry=registry,
            unit_codes=self.unit_codes,
            upstream_channel=self.upstream,
            downstream_faults=self.faults,
            upstream_faults=self.upstream_faults,
            state_faults=self.state_faults,
            state_protection=self.state_protection,
        )
        sim = Simulator(soc, wheel=self.wheel, backend=self.backend)
        sim.reset()
        if soc.state_domain is not None:
            soc.state_domain.bind_clock(SimClock(sim))
        built = BuiltSystem(soc=soc, sim=sim, engine_window=self.window)
        if self.lint != "off":
            # Imported lazily: the lint package depends on the HDL layer,
            # and pulling it in at module import would cycle through
            # ``repro.system``.
            import sys

            from ..analysis.lint import Linter, LintFailure, Severity

            report = Linter().lint(soc, sim=sim, as_built=True)
            if self.lint == "error" and report.errors:
                raise LintFailure(report)
            if report.at_least(Severity.WARNING):
                print(report.format(Severity.WARNING), file=sys.stderr)
        return built


def build_system(
    config: Optional[FrameworkConfig] = None,
    channel: ChannelSpec = INTEGRATED,
    registry: Optional[UnitRegistry] = None,
    unit_codes: Optional[Sequence[int]] = None,
    window: Optional[int] = None,
    faults: Optional[FaultSpec] = None,
    upstream_faults: Optional[FaultSpec] = None,
    state_faults: Optional[StateFaultSpec] = None,
    state_protection: bool = False,
    reliable: bool = False,
    wheel: bool = True,
    lint: str = "warn",
    backend: Optional[str] = None,
    ooo: bool = False,
    ooo_window: Optional[int] = None,
    fp_units: bool = False,
) -> BuiltSystem:
    """One-call system construction: ``SystemSpec(...).build()``.

    The keywords are :class:`SystemSpec` fields (``backend=None`` means
    ``"event"``) plus three overlays on ``config``: ``reliable=True``
    turns on the checksummed frame format that recovers from link faults
    (:mod:`repro.messages.reliability`); ``ooo=True`` swaps in the
    out-of-order issue engine with register renaming, and ``ooo_window``
    (which implies ``ooo``) sizes its issue queue.
    """
    overrides: dict = {}
    if reliable:
        overrides["reliable_framing"] = True
    if ooo or ooo_window is not None:
        overrides["ooo"] = True
    if ooo_window is not None:
        overrides["ooo_window"] = ooo_window
    cfg = config if config is not None else DEFAULT_CONFIG
    return SystemSpec(
        cfg.with_(**overrides) if overrides else cfg,
        channel=channel,
        registry=registry,
        unit_codes=unit_codes,
        fp_units=fp_units,
        backend=backend if backend is not None else "event",
        wheel=wheel,
        window=window,
        faults=faults,
        upstream_faults=upstream_faults,
        state_faults=state_faults,
        state_protection=state_protection,
        lint=lint,
    ).build()
