"""JEDEC DDR4 constants used throughout the library.

Values follow JESD79-4C as cited by the paper (reference [80]) and the
paper's own experimental setup (Section 4).
"""

from __future__ import annotations

from repro.units import ms, ns

# -- voltages ---------------------------------------------------------------

#: Nominal wordline (pump) voltage for DDR4 [V]. The paper's experiments
#: start here and step down in 0.1 V increments (Section 4.1).
NOMINAL_VPP = 2.5

#: Nominal core supply voltage for DDR4 [V]. Held constant in all of the
#: paper's experiments to isolate the effect of V_PP.
NOMINAL_VDD = 1.2

#: Step size used when sweeping V_PP down from nominal [V] (Section 4.1).
VPP_STEP = 0.1

# -- timings ----------------------------------------------------------------

#: Nominal row activation latency [s] (Section 4.3; 13.5 ns).
NOMINAL_TRCD = ns(13.5)

#: Nominal charge restoration latency (ACT to PRE) [s].
NOMINAL_TRAS = ns(32.0)

#: Nominal precharge latency [s].
NOMINAL_TRP = ns(13.5)

#: Nominal refresh window [s] (64 ms for DDR4 under 85 degC).
NOMINAL_TREFW = ms(64.0)

#: SoftMC command-clock granularity [s]: the paper's modified SoftMC can
#: issue one DRAM command every 1.5 ns (footnote 10), which quantizes every
#: timing sweep to 1.5 ns steps.
SOFTMC_COMMAND_CLOCK = ns(1.5)

# -- experiment parameters from the paper ------------------------------------

#: Fixed hammer count used for BER measurements (Section 4.2).
BER_HAMMER_COUNT = 300_000

#: Initial hammer count for the HC_first bisection (Alg. 1).
HCFIRST_INITIAL_HC = 300_000

#: Initial bisection step for HC_first (Alg. 1).
HCFIRST_INITIAL_STEP = 150_000

#: Bisection terminates when the step falls to this value (Alg. 1).
HCFIRST_MIN_STEP = 100

#: Number of repetitions of each measurement (Sections 4.2, 4.3).
PAPER_NUM_ITERATIONS = 10

#: Rows tested per module: four chunks of 1K rows (Section 4.2).
PAPER_ROWS_PER_MODULE = 4096
PAPER_ROW_CHUNKS = 4

#: Temperatures used in the paper's tests [degC] (Section 4.1).
ROWHAMMER_TEST_TEMPERATURE = 50.0
RETENTION_TEST_TEMPERATURE = 80.0

#: Retention test refresh-window sweep bounds [s] (Section 4.4):
#: 16 ms to 16 s in increasing powers of two (the top of the sweep is
#: 16 ms * 2^10 = 16.384 s, the paper's "16 s").
RETENTION_TREFW_MIN = ms(16.0)
RETENTION_TREFW_MAX = ms(16.0) * 2**10
