"""Fixture design for the compiled backend's builtin resolution.

The module rebinds ``len`` and ``min``.  ``Shadowed``'s process must call
these module functions on every backend, and the code generator must not
take the builtin ``min``'s range to drop the 4-bit width mask on ``lo``.
"""

from repro.hdl import Component

_REAL_LEN = len


class Shadowed(Component):
    def __init__(self):
        super().__init__("shadowed")
        self.a = self.signal("a", 4, 0)
        self.items = self.reg("items", None, reset=())
        self.n = self.signal("n", 8, 0)
        self.lo = self.signal("lo", 4, 0)

        @self.comb
        def _measure():
            self.n.set(len(self.items.value))
            self.lo.set(min(self.a.value, 9))

        @self.seq(pure=True)
        def _grow():
            if self.a.value and _REAL_LEN(self.items.value) < 20:
                self.items.nxt = self.items.value + (self.a.value,)


def len(items):  # deliberately shadows the builtin
    return _REAL_LEN(items) + 100


def min(a, b):  # deliberately shadows the builtin
    return a + b  # leaves the 4-bit range the builtin min would keep
