"""Baseline transaction-management methods (systems S17–S19).

* :mod:`repro.baselines.cgm` — the Commit Graph Method of Breitbart,
  Silberschatz & Thompson (SIGMOD 1990), the paper's main comparator: a
  *centralized* scheduler with global coarse-granularity strict 2PL and
  a bipartite commit graph whose loops veto commits.

The other two baselines reuse the 2CM machinery and are selected by
``SystemConfig.method``:

* ``naive`` (S18) — resubmission without certification, the ``naive``
  entry of :data:`repro.ablations.ABLATIONS`; exhibits exactly the
  anomalies (H1, H2, H3) the certifier exists to prevent.
* ``ticket`` (S19) — a predefined-total-order scheme in the spirit of
  Elmagarmid & Du, which the paper rejects as overly restrictive ("it
  would require all global transactions to be serialized in the same
  order even if they could not have caused any problems"); see
  :mod:`repro.core.dtm`.
"""

from repro.baselines.cgm import CGMScheduler

__all__ = ["CGMScheduler"]
