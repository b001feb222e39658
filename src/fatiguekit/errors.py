"""Exception types shared across the package.

Every error raised on purpose derives from FatigueKitError so callers can
catch one base class at the CLI boundary. Parsing errors carry position
information (row, line, column) where the input format makes that meaningful.
"""

from __future__ import annotations


class FatigueKitError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(FatigueKitError):
    """A parameter value violates its documented constraint."""


class DecodeError(FatigueKitError):
    """Input is not a well-formed trace, snapshot, config, scheme, spec or rule pack."""

    def __init__(self, msg: str, *, row: int | None = None):
        self.row = row
        if row is not None:
            msg = f"{msg} (row {row})"
        super().__init__(msg)


class MonotonicityError(FatigueKitError):
    """Frame timestamps are not strictly increasing."""

    def __init__(self, msg: str, *, row: int):
        self.row = row
        super().__init__(f"{msg} (row {row})")


class RangeError(FatigueKitError):
    """A channel value violates its range invariant."""

    def __init__(self, channel: str, msg: str, *, row: int | None = None):
        self.channel = channel
        self.row = row
        where = f" (row {row})" if row is not None else ""
        super().__init__(f"{channel}: {msg}{where}")


class MissingChannelError(FatigueKitError):
    """A feature extractor needs a channel the window does not carry."""

    def __init__(self, channel: str):
        self.channel = channel
        super().__init__(f"channel {channel!r} absent from window")


class InsufficientDataError(FatigueKitError):
    """A channel is present but has too few samples for the computation."""


class SchemeError(FatigueKitError):
    """A qualification scheme is malformed (gap, overlap, bad bounds)."""


class UnboundFeatureError(FatigueKitError):
    """A feature value was produced but the scheme has no band set for it."""

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"no band set bound for feature {feature!r}")


class UnknownClassError(FatigueKitError):
    """A class label is not declared in the taxonomy."""

    def __init__(self, class_name: str, *, rule: str | None = None,
                 line: int | None = None, col: int | None = None):
        self.class_name = class_name
        self.rule = rule
        self.line = line
        self.col = col
        msg = f"unknown class {class_name!r}"
        if rule is not None:
            msg += f" in rule {rule!r}"
        if line is not None:
            msg += f" at {line}:{col}"
        super().__init__(msg)


class RuleSyntaxError(FatigueKitError):
    """Rule text does not match the rule grammar."""

    def __init__(self, msg: str, *, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{msg} at {line}:{col}")


class DuplicateRuleNameError(FatigueKitError):
    """Two rules in one pack share a name."""

    def __init__(self, name: str, *, line: int | None = None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate rule name {name!r}{where}")


class AmbiguityError(FatigueKitError):
    """One individual carries two different fatigue levels for one source."""


class EmptyInputError(FatigueKitError):
    """An aggregate operation received nothing to aggregate."""


class ScenarioSpecError(FatigueKitError):
    """A synthetic-scenario description is invalid."""
