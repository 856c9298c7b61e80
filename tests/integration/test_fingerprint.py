"""``ci/fingerprint.py`` prints what the compiled backend decided per design.

Smoke tests on one preset and one e2e system: the report names every
target, and for the one it runs, its hashes, placements, counters and
wheel hook placements agree with a fresh build; an e2e system also
reports its run counters.  The source hash leaves out the line numbers of
template provenance comments.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.messages.channel import PRESETS
from repro.system import build_system

ROOT = Path(__file__).resolve().parents[2]


def _script():
    spec = importlib.util.spec_from_file_location(
        "_fingerprint_script", ROOT / "ci" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert entry["source"] == _script().source_hash(sim.generated_source)
    assert entry["signals"] == _script().signals_hash(system.soc)
    stats = sim.kernel_stats
    assert entry["counters"]["fallback_procs"] == stats.fallback_procs
    assert entry["counters"]["translated_procs"] == stats.translated_procs
    kinds = [kind for _label, kind, _reason in entry["placements"]]
    assert len(kinds) == len(sim._procs) + len(sim._seqprocs)
    assert sum(k not in ("slot", "absorbed") for k in kinds) \
        == stats.fallback_procs
    assert all(reason for _label, kind, reason in entry["placements"]
               if kind not in ("slot", "absorbed"))
    assert entry["hooks"] == _script().hook_placements(sim)
    assert len(entry["hooks"]) == len(sim._wheel_hooks) + len(sim._skips)

    assert "run" not in entry


def test_run_counters_of_one_e2e_system():
    # the slow link's wheel jumps: every cycle is an edge or a skipped one,
    # and both backends step, jump and chunk alike
    (entry,) = _fingerprint("e2e/slow_link_window").values()
    runs = entry["run"]
    assert list(runs) == ["event", "compiled"]
    for run in runs.values():
        assert set(run) == {"now", "edge_calls", "skipped_cycles",
                            "wheel_jumps", "seq_runs", "settle_calls",
                            "activations", "steps"}
        assert run["now"] == run["edge_calls"] + run["skipped_cycles"]
        assert run["wheel_jumps"] > 0 and run["steps"] > 0
    shared = ("now", "edge_calls", "skipped_cycles", "wheel_jumps", "steps")
    assert [runs["event"][k] for k in shared] \
        == [runs["compiled"][k] for k in shared]


def test_source_hash_ignores_provenance_lines_only():
    source = build_system(backend="compiled", lint="off").sim.generated_source
    lines = source.splitlines()
    (i, comment), *_ = ((i, line) for i, line in enumerate(lines)
                        if line.startswith("# template 0: "))
    where, number = comment[:-1].rsplit(":", 1)
    moved = lines.copy()
    moved[i] = f"{where}:{int(number) + 1})"
    renamed = lines.copy()
    renamed[i] = comment.replace("# template 0: ", "# template 0: X", 1)
    source_hash = _script().source_hash
    original = source_hash("\n".join(lines))
    assert source_hash("\n".join(moved)) == original
    assert source_hash("\n".join(renamed)) != original
    assert source_hash("\n".join(lines + ["x = 1"])) != original
