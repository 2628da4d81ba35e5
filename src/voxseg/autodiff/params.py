"""Named trainable arrays with per-parameter freeze flags.

Frozen entries keep participating in forward/backward math but are
excluded from optimizer updates. An entry is frozen exactly when its
Tensor does not require a gradient, so backward also prunes the
corresponding weight-gradient work; that flag is the only record of it.
"""

from __future__ import annotations

from .tensor import GraphError, Tensor


class ParameterStore:
    """Ordered mapping name -> Tensor; frozen is ``not requires_grad``."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name, value, frozen=False):
        if name in self._entries:
            raise GraphError(f"duplicate parameter name {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = not frozen
        self._entries[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        try:
            return self._entries[name]
        except KeyError:
            raise GraphError(f"unknown parameter {name!r}") from None

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return [(n, t, not t.requires_grad) for n, t in self._entries.items()]

    def trainable(self):
        return [(n, t) for n, t, fr in self.items() if not fr]

    def zero_grad(self):
        for t in self._entries.values():
            t.grad = None
