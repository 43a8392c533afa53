"""Built-in rule set: this repo's architectural invariants as code.

Importing this package registers every rule (each module's classes are
decorated with :func:`repro.lint.registry.register`).
"""

from . import (  # noqa: F401
    rl002_cache_invalidation,
    rl003_determinism,
    rl005_mutable_defaults,
    rl007_float_typed_equality,
    rl008_raw_clock,
    rl009_kernel_confinement,
    rl011_span_coverage,
    rl012_hot_loop,
)
