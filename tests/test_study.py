import numpy as np
import pytest

import copkern.study as study
from copkern.study import StudyConfig, run_study


@pytest.mark.parametrize("spec,expected_calls", [("gumbel:3", 2), ("gumbel:200", 0)])
def test_run_study_checks_true_r_before_replications(monkeypatch, spec, expected_calls):
    # gumbel:200 fails the kernel check of its true r, before any sample is drawn
    calls = []
    original = study.sample
    monkeypatch.setattr(study, "sample", lambda *a, **k: calls.append(a) or original(*a, **k))
    cfg = StudyConfig(copula_spec=spec, sizes=(10,), replications=2,
                      estimators=("chatterjee",), base_seed=1)
    if expected_calls:
        run_study(cfg)
    else:
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="column defect"):
            run_study(cfg)
    assert len(calls) == expected_calls
