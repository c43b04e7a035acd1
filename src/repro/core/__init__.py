"""The paper's primary contribution: the characterization methodology.

This package implements Section 4's experimental pipeline end to end:

* :mod:`repro.core.scale` -- study sizing (paper-scale vs. bench vs. tiny).
* :mod:`repro.core.sampling` -- row sampling (four chunks across a bank).
* :mod:`repro.core.adjacency` -- physical-adjacency discovery, including
  the reverse-engineering experiment.
* :mod:`repro.core.wcdp` -- worst-case data-pattern determination per row
  for each test type.
* :mod:`repro.core.rowhammer` -- Alg. 1 (HC_first bisection + BER).
* :mod:`repro.core.trcd` -- Alg. 2 (activation-latency sweep).
* :mod:`repro.core.retention` -- Alg. 3 (refresh-window sweep).
* :mod:`repro.core.study` -- the full campaign across modules and V_PP.
* :mod:`repro.core.analysis` -- normalized curves and densities
  (Figures 3-6, 10).
* :mod:`repro.core.guardband` -- tRCD guardband analysis (Figure 7).
* :mod:`repro.core.mitigation` -- ECC / selective-refresh / V_PPRec
  analyses (Figure 11, Table 3).
* :mod:`repro.core.metrics` -- BER, CV, confidence machinery.
* :mod:`repro.core.attacks` -- single/double/many-sided attack patterns.
* :mod:`repro.core.profiling` -- REAPER-style weak-row retention
  profiling (feeds selective refresh).
* :mod:`repro.core.campaign` -- row-chunk planning and chunk merging
  for pooled campaigns.
* :mod:`repro.core.serialization` -- study persistence (JSON).
"""

from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy, StudyResult

__all__ = ["CharacterizationStudy", "StudyResult", "StudyScale"]
