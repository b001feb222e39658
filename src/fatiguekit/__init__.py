"""Driver fatigue inference from driving and physiology traces.

The package is organized as a pipeline of small, separately usable stages:

- signals: columnar traces, parsing, validation, windowing
- features: per-window numeric descriptors of driver state
- qualify: numbers to labelled facts via threshold bands
- kstore: immutable fact base with a class taxonomy and snapshots
- rules: rule-pack parsing, forward chaining, per-source fatigue verdicts
- pipeline: the whole chain plus fusion and alerting
- scenario: deterministic synthetic traces for the two driving regimes

Each module names its public API in its own `__all__`; the package exports
the union of those lists.
"""

# Each submodule is loaded before the star imports, since a submodule's first
# import binds its name here: fatiguekit.qualify stays the function.
from . import errors as _errors
from . import features as _features
from . import kstore as _kstore
from . import pipeline as _pipeline
from . import qualify as _qualify
from . import rules as _rules
from . import scenario as _scenario
from . import signals as _signals
from .errors import *  # noqa: F403
from .features import *  # noqa: F403
from .kstore import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .qualify import *  # noqa: F403
from .rules import *  # noqa: F403
from .scenario import *  # noqa: F403
from .signals import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (_errors, _features, _kstore, _pipeline, _qualify, _rules,
                               _scenario, _signals)
           for name in module.__all__]
