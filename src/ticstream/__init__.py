"""Deterministic desk-scale time-continual contrastive training framework.

The root holds only the library entry points; import anything else from its module.
"""

from .runner import emit_report, reference_config, run_experiment
