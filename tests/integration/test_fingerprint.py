"""``ci/fingerprint.py`` prints what the compiled backend decided per design.

Smoke test on one preset: the report names every target, and for the one
it runs, its hash, placements and counters agree with a fresh build.
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


def test_fingerprint_of_one_preset():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "ci" / "fingerprint.py"), "integrated"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
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

