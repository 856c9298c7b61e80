"""The RTM keeps its attributes inline, on both backends and both issue
modes.

CPython 3.11 stores up to 29 instance attributes inline; one more
materializes the object's ``__dict__`` at construction, and every
attribute load on it then takes the slower dict path.  Stage bodies and
the host load RTM attributes on every cycle, so the RTM must stay within
that limit.  ``gc.get_referents`` lists the ``__dict__`` only once it is
materialized; reading ``vars()`` here would materialize it.
"""

import gc

import pytest

from repro.system import build_system


@pytest.mark.parametrize("backend", ["event", "compiled"])
@pytest.mark.parametrize("ooo", [False, True], ids=["in-order", "ooo"])
@pytest.mark.parametrize("protected", [False, True], ids=["plain", "protected"])
def test_rtm_dict_is_not_materialized(backend, ooo, protected):
    system = build_system(backend=backend, ooo=ooo, state_protection=protected)
    rtm = system.soc.rtm
    # the RTM holds no dict-valued attribute, so any dict is its __dict__
    assert [r for r in gc.get_referents(rtm) if type(r) is dict] == []
    assert (rtm.mcu is not None) is protected
    assert (rtm.state_domain is not None) is protected
