"""What is left of the removed compiled (numba) search backend.

The partition search has one implementation, the NumPy one in
:mod:`repro.core.costs`.  This module survives only because the
end-to-end benchmark's machine probe (``perfbench/run.py``) imports it to
record ``NUMBA_AVAILABLE`` on every run; drop the module together with
that probe.
"""

NUMBA_AVAILABLE = False
