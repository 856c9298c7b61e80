"""Hardware performance counters: what the framework's blocks actually did.

Aggregates the event counters the components maintain (dispatches, stall
cycles, arbiter grants per port, writes, decode errors, outbound messages)
into one report — the observability a bring-up engineer instruments a real
FPGA design with, and the raw material for the pipeline benchmarks.

Each section is the plain-dict export of a stats dataclass its layer owns,
so ``dataclasses.asdict(counters_for(system, driver))`` is the whole report
as JSON-ready data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .report import format_table

#: section → table title naming the stats object it exports
_TITLES = {
    "kernel": "settle scheduler (Simulator.kernel_stats)",
    "engine": "host engine (HostEngine.stats)",
    "link": "link integrity (faults + reliability)",
    "state": "state faults (StateFaultPlan.stats)",
    "issue": "issue engine (dispatcher.stats)",
}


@dataclass
class CounterReport:
    """Snapshot of every framework counter."""

    cycles: int
    dispatches: int
    stall_cycles: int
    retired_ops: int
    writes: int
    decode_errors: int
    messages_sent: int
    grants_by_port: dict[int, int] = field(default_factory=dict)
    locks_outstanding: int = 0
    #: settle-scheduler counters (``Simulator.kernel_stats``)
    kernel: dict = field(default_factory=dict)
    #: host-engine counters (``HostEngine.stats``); empty without a driver
    engine: dict = field(default_factory=dict)
    #: link-integrity counters, one sub-dict per source:
    #: ``downstream_faults``/``upstream_faults`` (what each direction's fault
    #: schedule did) and ``rtm_receiver`` (the coprocessor-side reliable
    #: deframer and NACKs); empty on a clean, plain-framing system
    link: dict = field(default_factory=dict)
    #: state-fault counters (``StateFaultPlan.stats``): upsets injected and
    #: corrected, scrub activity, detection latency; empty when unprotected.
    #: Host-side recovery (checkpoints, rollbacks) is in ``engine``.
    state: dict = field(default_factory=dict)
    #: issue-engine counters (``dispatcher.stats``): issue mode, per-cause
    #: stall tallies, issue-queue occupancy
    issue: dict = field(default_factory=dict)

    @property
    def dispatch_rate(self) -> float:
        """Unit dispatches per cycle (utilisation of the dispatch port)."""
        return self.dispatches / self.cycles if self.cycles else 0.0

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles the dispatcher spent blocked on hazards."""
        return self.stall_cycles / self.cycles if self.cycles else 0.0

    @property
    def ipc(self) -> float:
        """Completed instructions (unit + execution-stage) per cycle."""
        return self.issue["issued_total"] / self.cycles if self.cycles else 0.0

    @property
    def settle_activations_per_cycle(self) -> float:
        """Scheduled comb executions per cycle — the event kernel's work rate."""
        if not self.cycles:
            return 0.0
        return (self.kernel["activations"] + self.kernel["always_runs"]) / self.cycles

    def table(self, section: Optional[str] = None) -> str:
        """One section (``"issue"``, ``"kernel"``, ``"engine"``, ``"link"`` or
        ``"state"``) as a table, "" when it is empty; the framework counters
        when ``section`` is None."""
        if section is None:
            rows = [
                ["cycles", self.cycles],
                ["unit dispatches", self.dispatches],
                ["dispatcher stall cycles", self.stall_cycles],
                ["execution-stage retirements", self.retired_ops],
                ["register writes", self.writes],
                ["decode errors", self.decode_errors],
                ["messages to host", self.messages_sent],
                ["locks outstanding", self.locks_outstanding],
            ]
            for port, grants in sorted(self.grants_by_port.items()):
                rows.append([f"arbiter grants, port {port}", grants])
            return format_table(["counter", "value"], rows, title="framework counters")
        title = _TITLES[section]
        counters = getattr(self, section)
        if not counters:
            return ""
        if section == "link":
            rows = [[f"{source}: {name.replace('_', ' ')}", value]
                    for source, values in counters.items()
                    for name, value in values.items()]
        else:
            rows = [[name.replace("_", " "), value] for name, value in counters.items()]
        if section == "issue" and self.cycles:
            rows.append(["instructions per cycle", f"{self.ipc:.3f}"])
        return format_table([f"{section} counter", "value"], rows, title=title)


def counters_for(system, driver=None) -> CounterReport:
    """Counter snapshot for a BuiltSystem/BuiltMultiHostSystem.

    Pass the :class:`repro.host.CoprocessorDriver` in use to fold its host
    engine's counters (in-flight high-water, queue depth, window stalls,
    retransmits, rollbacks) into the report.
    """
    soc = system.soc
    rtm = soc.rtm
    link: dict = {}
    for section, line in (("downstream_faults", soc.link.downstream),
                          ("upstream_faults", soc.link.upstream)):
        stats = getattr(line, "fault_stats", None)
        if stats is not None:
            link[section] = stats.as_dict()
    receiver = rtm.msgbuffer.reliability_stats
    if receiver:
        link["rtm_receiver"] = receiver
    domain = rtm.state_domain
    issue = rtm.dispatcher.stats
    return CounterReport(
        cycles=system.sim.now,
        dispatches=issue.unit_dispatches,
        stall_cycles=issue.stall_cycles,
        retired_ops=rtm.execution.retired,
        writes=rtm.write_arbiter.writes_performed,
        decode_errors=rtm.decoder.decode_errors,
        messages_sent=rtm.serializer.messages_sent,
        grants_by_port=dict(rtm.write_arbiter.grants_by_port),
        locks_outstanding=rtm.lockmgr.locked_count,
        kernel=asdict(system.sim.kernel_stats),
        engine=asdict(driver.engine.stats) if driver is not None else {},
        link=link,
        state=domain.stats.as_dict() if domain is not None else {},
        issue=asdict(issue),
    )
