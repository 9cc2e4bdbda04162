"""Auto-decomposition tuner: analytic cost model + configuration search.

The paper treats the ``<map, local, alloc>`` triple as an *input* to
process decomposition and notes (§4) that "the best block size depends
on the size of the matrix" — every knob is the programmer's burden.
This subsystem automates the choice:

* :mod:`repro.tune.model` predicts per-configuration message counts,
  bytes, and makespan *without simulation* by walking the compiled SPMD
  IR abstractly (exact counts; makespan bit-identical to the
  ``compiled`` backend under any ``MachineParams``);
* :mod:`repro.tune.space` enumerates candidate configurations
  (distribution x strategy x blksize);
* :mod:`repro.tune.search` ranks the space with the predictor and
  confirms only the top-k candidates on the real simulator — the
  oracle value check, and the fallback ranking where the model abstains.
  Since prediction equals measurement, ``TuneReport.spearman`` is an
  invariant (1.0 over the confirmed set), not a quality score: anything
  lower means the reference scheduler and the live simulator diverged.
"""

from repro.tune.model import Prediction, predict
from repro.tune.space import (
    TuneConfig,
    default_space,
    register_strategy,
    retarget_source,
)
from repro.tune.search import Candidate, TuneReport, spearman, tune
from repro.tune.serialize import candidate_payload, report_payload

__all__ = [
    "Prediction",
    "predict",
    "TuneConfig",
    "default_space",
    "register_strategy",
    "retarget_source",
    "Candidate",
    "TuneReport",
    "spearman",
    "tune",
    "candidate_payload",
    "report_payload",
]
