"""Process-pool execution layer for EBRR.

:func:`~repro.parallel.sweep.sweep_plans` fans a parameter grid of full
EBRR runs over workers sharing one Algorithm 2 preprocessing, with a
deterministic reduce: results come back in config order and are
bit-identical to the serial loop.
"""

from .sweep import sweep_plans

__all__ = ["sweep_plans"]
