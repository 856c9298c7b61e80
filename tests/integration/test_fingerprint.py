"""``ci/fingerprint.py`` prints what the compiled backend decided per design.

Smoke tests on one preset and one e2e system: the report names every
target, and for the one it runs, its hash, placements and counters agree
with a fresh build; an e2e system also reports its run counters.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.messages.channel import PRESETS
from repro.system import build_system

ROOT = Path(__file__).resolve().parents[2]


def _fingerprint(target):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "ci" / "fingerprint.py"), target],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_fingerprint_of_one_preset():
    report = _fingerprint("integrated")
    assert list(report) == ["integrated"]
    entry = report["integrated"]

    system = build_system(channel=PRESETS["integrated"], backend="compiled",
                          lint="off")
    sim = system.sim
    source = hashlib.sha256(sim.generated_source.encode()).hexdigest()
    assert entry["source"] == source
    stats = sim.kernel_stats
    assert entry["counters"]["fallback_procs"] == stats.fallback_procs
    assert entry["counters"]["translated_procs"] == stats.translated_procs
    kinds = [kind for _label, kind, _reason in entry["placements"]]
    assert len(kinds) == len(sim._procs) + len(sim._seqprocs)
    assert sum(k not in ("slot", "absorbed") for k in kinds) \
        == stats.fallback_procs
    assert all(reason for _label, kind, reason in entry["placements"]
               if kind not in ("slot", "absorbed"))

    assert "run" not in entry


def test_run_counters_of_one_e2e_system():
    # the slow link's wheel jumps: every cycle is an edge or a skipped one,
    # and both backends step, jump and chunk alike
    (entry,) = _fingerprint("e2e/slow_link_window").values()
    runs = entry["run"]
    assert list(runs) == ["event", "compiled"]
    for run in runs.values():
        assert set(run) == {"now", "edge_calls", "skipped_cycles",
                            "wheel_jumps", "seq_runs", "settle_calls", "steps"}
        assert run["now"] == run["edge_calls"] + run["skipped_cycles"]
        assert run["wheel_jumps"] > 0 and run["steps"] > 0
    shared = ("now", "edge_calls", "skipped_cycles", "wheel_jumps", "steps")
    assert [runs["event"][k] for k in shared] \
        == [runs["compiled"][k] for k in shared]
