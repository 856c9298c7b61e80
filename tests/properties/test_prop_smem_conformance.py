"""Kit-wide ``__compile_vector__`` conformance (see smem_conformance).

Every smart-memory machine — ξ-sort, the three kit-native machines and
the toy tally unit declared from a spec alone — is held to the same
three obligations on both array kinds:

1. event-kernel parity (observations, cycle counts, VCD bytes identical
   across exhaustive / event / compiled),
2. zero interpreted fallbacks with the full column vectorized at 256
   cells,
3. wheel-jump safety (idle arrays fast-forward, jumps are invisible),

plus the kit's static array contract.  A new machine gets all of this by
adding one ``MachineSpec`` to :func:`smem_conformance.conformance_specs`.
"""

from __future__ import annotations

import pytest

from tests.properties.smem_conformance import (
    ARRAY_KINDS,
    check_contract,
    check_event_kernel_parity,
    check_wheel_jump_safety,
    check_zero_fallback,
    conformance_specs,
)

SPECS = conformance_specs()
SPEC_PARAMS = [pytest.param(s, id=s.name) for s in SPECS]


@pytest.mark.parametrize("kind", ARRAY_KINDS)
@pytest.mark.parametrize("spec", SPEC_PARAMS)
class TestKitConformance:
    def test_event_kernel_parity(self, spec, kind):
        check_event_kernel_parity(spec, kind)

    def test_zero_fallback_at_full_size(self, spec, kind):
        check_zero_fallback(spec, kind)

    def test_wheel_jump_safety(self, spec, kind):
        check_wheel_jump_safety(spec, kind)

    def test_array_contract_holds(self, spec, kind):
        check_contract(spec, kind)
