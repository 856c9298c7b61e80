"""Backwards-compat pin: rebasing ξ-sort onto the smart-memory kit must
not move its public import surface.

Everything downstream of the refactor — ``examples/xisort_demo.py``, the
C3/C4 paper tests, user code following the tutorial — imports from
``repro.xisort``; these tests freeze that surface so a future kit change
cannot silently break it.  The module-level re-exports (tree machinery,
microcode word, interval packing) must keep resolving even though they
now live in :mod:`repro.smem`.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro.xisort as xisort

REPO = Path(__file__).resolve().parents[2]

#: the surface as shipped before the kit refactor — frozen, append-only
FROZEN_SURFACE = [
    "XiSortUnit",
    "xisort_factory",
    "XiSortAccelerator",
    "INTERVAL_BITS",
    "SENTINEL",
    "Cell",
    "CellCmd",
    "CellState",
    "cell_step",
    "StructuralCellArray",
    "VectorCellArray",
    "XiSortController",
    "DirectXiSortMachine",
    "XiSortCore",
    "MICROCODE",
    "XI_FIND_PIVOT",
    "XI_FIND_PIVOT_AT",
    "XI_FLAG_FOUND",
    "XI_LOAD",
    "XI_READ_AT",
    "XI_RESET",
    "XI_SPLIT",
    "XI_STATUS",
    "XI_WRITE_AT",
    "XI_RANK",
    "XI_COUNT_EQ",
    "MicroInstr",
    "format_microcode",
    "format_microinstr",
    "pack_interval",
    "program_length",
    "unpack_interval",
    "write_profile",
    "SoftwareXiSort",
    "SwCell",
    "quickselect_counted",
    "quicksort_counted",
    "NodeValue",
    "TreeNetwork",
    "fold_reduce",
]


class TestFrozenSurface:
    def test_all_still_exports_the_frozen_surface(self):
        missing = [n for n in FROZEN_SURFACE if n not in xisort.__all__]
        assert missing == [], f"names dropped from repro.xisort.__all__: {missing}"

    @pytest.mark.parametrize("name", FROZEN_SURFACE)
    def test_name_resolves(self, name):
        assert getattr(xisort, name, None) is not None

    def test_submodules_keep_their_homes(self):
        """Pre-kit import paths (submodule level) still work."""
        for mod, names in {
            "repro.xisort.tree": ["TreeNetwork", "NodeValue", "fold_reduce"],
            "repro.xisort.microcode": ["MICROCODE", "pack_interval",
                                       "unpack_interval", "write_profile"],
            "repro.xisort.cell": ["Cell", "CellCmd", "CellState", "cell_step"],
            "repro.xisort.cellarray": ["VectorCellArray", "StructuralCellArray"],
            "repro.xisort.controller": ["XiSortController", "N_TEMPS"],
            "repro.xisort.core": ["XiSortCore", "DirectXiSortMachine"],
            "repro.xisort.adapter": ["XiSortUnit", "xisort_factory",
                                     "AdapterState"],
            "repro.xisort.algorithm": ["XiSortAccelerator"],
        }.items():
            m = importlib.import_module(mod)
            for n in names:
                assert hasattr(m, n), f"{mod} lost {n}"

    def test_tree_is_the_kit_tree(self):
        """The shim re-exports, not forks: one TreeNetwork in the system."""
        from repro.smem.tree import TreeNetwork as kit_tree
        from repro.xisort.tree import TreeNetwork as compat_tree

        assert compat_tree is kit_tree


def _load_script(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDownstreamImports:
    """The shipped entry points still import (their import-time surface is
    exactly what the kit refactor could have broken)."""

    def test_xisort_demo_imports(self):
        mod = _load_script(REPO / "examples" / "xisort_demo.py", "xisort_demo")
        assert callable(mod.full_framework_demo)
