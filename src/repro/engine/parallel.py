"""Re-export of the Algorithm 2 probe schedule.

perfbench (``perfbench/scenarios.py``) imports ``build_probe_schedule``
from this module path; the probe itself lives in :mod:`repro.core.join`.
"""

from ..core.join import build_probe_schedule

__all__ = ["build_probe_schedule"]
