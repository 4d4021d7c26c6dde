"""Exception types shared across the package.

Two failure families are distinguished so the CLI can map them to stable
exit codes: caller mistakes (bad arguments, mismatched shapes, malformed
config) raise :class:`UsageError`; bad numbers in otherwise well-formed
calls (NaN/Inf, out-of-range values, divergence) raise :class:`DomainError`.
:func:`check_field_types` is the one type check of the config dataclasses,
whose values may come from any JSON.
"""

import dataclasses


class UsageError(ValueError):
    """The call itself is wrong: bad argument, shape mismatch, bad config."""


class DomainError(ValueError):
    """The values are wrong: non-finite data, out-of-range inputs, divergence."""


class TrainingDiverged(DomainError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


def is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` loads as a bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


# annotation (as a string, under ``from __future__ import annotations``) ->
# (accepts a value, what it expects)
_FIELD_TYPES = {
    "int": (is_int, "an integer"),
    "Optional[int]": (lambda v: v is None or is_int(v), "an integer or null"),
    "float": (lambda v: is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, tuple) and all(map(is_int, v)),
                        "a list of integers"),
}


def check_field_types(config) -> None:
    """Raise :class:`UsageError` for the first field of a config dataclass
    whose value does not have its annotated type."""
    for f in dataclasses.fields(config):
        accepts, expected = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if not accepts(value):
            raise UsageError(f"{f.name} must be {expected}, got {value!r}")
