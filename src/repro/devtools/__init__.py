"""Developer tooling: the determinism linter and its supporting machinery.

The package hosts ``repro-p2p-lint`` (also runnable as
``python -m repro.devtools.lint``), a custom AST linter that enforces the
named-stream determinism contract statically:

* **RPD001** -- seedless or global-state RNG construction outside
  ``sim/random_source.py``;
* **RPD002** -- stream names not declared in the
  :mod:`repro.sim.streams` registry, plus the cross-engine parity check
  that ``core/`` vs ``core/fast/`` consume the same engine-paired stream
  sets (the swarm engines share one round protocol, so they need none);
* **RPD003** -- iteration over a bare ``set``/``dict`` in a function
  that also touches an rng or stream (hash-order-dependent draw order);
* **RPD004** -- wall-clock access inside simulation modules;
* **RPD005** -- deprecated ``*_kb`` spellings.

Violations can be locally waived with a justified pragma::

    x = legacy_call()  # repro: allow[RPD001] -- calibration script, not a simulation

or parked in a committed baseline file so the gate stays additive.  See
``docs/determinism.md`` for the full workflow.
"""

from repro.devtools.lint import main, run_lint
from repro.devtools.rules import RULES, Finding

__all__ = ["main", "run_lint", "RULES", "Finding"]
