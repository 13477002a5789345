"""Progress-model litmus harness.

Executable OBE / Linear / IFP specs (:mod:`repro.litmus.models`), a
deterministic + hypothesis-driven litmus-program generator
(:mod:`repro.litmus.generate`), a differential oracle that runs every
program across the registered policies and judges the observed
schedules (:mod:`repro.litmus.oracle`), and a shrink link that turns
violating schedules into minimal self-contained repro bundles
(:mod:`repro.litmus.shrinklink`). Bundles are written, replayed and
shrunk by the shared core in :mod:`repro.recovery` (kind
``awg-repro-litmus-bundle``), which this package never imports at
module scope.
"""

from repro.litmus.generate import (
    LitmusProgram,
    canonicalize,
    interpret,
    program_name,
    program_strategy,
    random_corpus,
    validate_program,
)
from repro.litmus.models import (
    IFP,
    LINEAR,
    MODELS,
    OBE,
    SATISFIED,
    VACUOUS,
    VIOLATED,
    Judgment,
    ObservedSchedule,
    ProgressModel,
    claimed_model,
    expected_cell,
    judge_all,
    weaker_or_equal,
)
from repro.litmus.oracle import (
    LitmusReport,
    LitmusRun,
    golden_policies,
    run_corpus,
    run_litmus,
)
from repro.litmus.shrinklink import (
    LitmusRequest,
    emit_violation_bundles,
    program_size,
    replay_litmus,
)

__all__ = [
    "LitmusProgram",
    "canonicalize",
    "interpret",
    "program_name",
    "program_strategy",
    "random_corpus",
    "validate_program",
    "OBE",
    "LINEAR",
    "IFP",
    "SATISFIED",
    "VIOLATED",
    "VACUOUS",
    "MODELS",
    "Judgment",
    "ObservedSchedule",
    "ProgressModel",
    "claimed_model",
    "expected_cell",
    "judge_all",
    "weaker_or_equal",
    "LitmusReport",
    "LitmusRun",
    "golden_policies",
    "run_corpus",
    "run_litmus",
    "LitmusRequest",
    "emit_violation_bundles",
    "program_size",
    "replay_litmus",
]
