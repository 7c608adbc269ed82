import numpy as np
import pytest

import copkern.study as study
from copkern.study import StudyConfig, run_study


@pytest.mark.parametrize("spec,expected_calls,msg", [
    ("gumbel:3", 2, None),
    ("gumbel:200", 0, "column defect"),
    ("galambos:100", 0, "the true r of 'galambos:100' is not finite at m = 512"),
], ids=["gumbel:3-2", "gumbel:200-0", "galambos:100-0"])
def test_run_study_checks_true_r_before_replications(monkeypatch, spec, expected_calls, msg):
    # gumbel:200 fails the kernel check of its true r, before any sample is drawn;
    # galambos:100's kernel grid is NaN, which passes that check but not the finiteness one
    calls = []
    original = study.sample
    monkeypatch.setattr(study, "sample", lambda *a, **k: calls.append(a) or original(*a, **k))
    cfg = StudyConfig(copula_spec=spec, sizes=(10,), replications=2,
                      estimators=("chatterjee",), base_seed=1)
    if expected_calls:
        run_study(cfg)
    else:
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=msg):
            run_study(cfg)
    assert len(calls) == expected_calls


_GOOD = dict(copula_spec="gumbel:3", sizes=(10,), replications=1,
             estimators=("chatterjee",), base_seed=1)


@pytest.mark.parametrize("override,msg", [
    ({"replications": 0}, "replication count must be >= 1"),
    ({"estimators": ()}, "estimator list must be non-empty"),
    ({"estimators": ("chatterjee", "kendall")}, "unknown estimator 'kendall'"),
    ({"sizes": ()}, "sample size list must be non-empty"),
    ({"sizes": (10, 9)}, "sample sizes must be >= 10"),
    ({"m": 4}, "quadrature resolution must be >= 8"),
], ids=["replications", "no-estimators", "unknown-estimator", "no-sizes", "small-size",
        "small-m"])
def test_study_config_checks(override, msg):
    StudyConfig(**_GOOD)
    with pytest.raises(ValueError, match=msg):
        StudyConfig(**{**_GOOD, **override})


def test_process_pool_matches_serial_run():
    cfg = StudyConfig(copula_spec="gumbel:3", sizes=(10, 20), replications=3,
                      estimators=study.ESTIMATORS, base_seed=1, m=16)
    serial, pooled = run_study(cfg, jobs=1), run_study(cfg, jobs=2)

    def fields(result):
        return [(r.estimator, r.n, r.replication, r.value, r.seed) for r in result.records]

    assert len(serial.records) == 3 * 2 * 3
    assert fields(pooled) == fields(serial)
    assert pooled.summary == serial.summary and pooled.true_r == serial.true_r
