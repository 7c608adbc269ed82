import numpy as np
import pytest

import copkern.sampling as sampling
import copkern.study as study
from copkern.archimedean import archimedean_copula
from copkern.estimation import (
    PLUGINS,
    chatterjee_r,
    empirical_kendall,
    plugin_zeta1_r,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.metrics import QuadratureSpec
from copkern.registry import make_copula
from copkern.sampling import RngSpec, batches, sample
from copkern.study import StudyConfig, replication_seed, run_study


@pytest.mark.parametrize("spec,expected_calls,msg", [
    ("gumbel:3", 2, None),
    ("gumbel:200", 0, "column defect"),
    ("galambos:100", 0, "column defect nan"),
], ids=["gumbel:3-2", "gumbel:200-0", "galambos:100-0"])
def test_run_study_checks_true_r_before_replications(monkeypatch, nan_galambos, spec,
                                                     expected_calls, msg):
    # gumbel:200 and a NaN kernel (the galambos:100 stand-in) fail the kernel
    # check of their true r, before any sample is drawn
    calls = []
    original = study.sample_many

    def counted(c, sizes, rngs):
        samples = original(c, sizes, rngs)
        calls.extend(samples)
        return samples

    monkeypatch.setattr(study, "sample_many", counted)
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
    ({"replications": 2.5}, "replication count must be an integer, got 2.5"),
    ({"sizes": (10, 50.0)}, "a sample size must be an integer, got 50.0"),
], ids=["replications", "no-estimators", "unknown-estimator", "no-sizes", "small-size",
        "small-m", "float-replications", "float-size"])
def test_study_config_checks(override, msg):
    StudyConfig(**_GOOD)
    with pytest.raises(ValueError, match=msg):
        StudyConfig(**{**_GOOD, **override})


@pytest.mark.parametrize("jobs, msg", [(0, "worker count must be >= 1, got 0"),
                                       (1.5, "worker count must be an integer, got 1.5"),
                                       (2.0, "worker count must be an integer, got 2.0")],
                         ids=["zero", "float", "integral-float"])
def test_run_study_checks_the_worker_count(jobs, msg):
    with pytest.raises(ValueError, match=msg):
        run_study(StudyConfig(**_GOOD), jobs=jobs)


def test_process_pool_matches_serial_run():
    cfg = StudyConfig(copula_spec="gumbel:3", sizes=(10, 20), replications=3,
                      estimators=study.ESTIMATORS, base_seed=1, m=16)
    serial, pooled = run_study(cfg, jobs=1), run_study(cfg, jobs=2)

    def fields(result):
        return [(r.estimator, r.n, r.replication, r.value, r.seed) for r in result.records]

    assert len(serial.records) == 3 * 2 * 3
    assert fields(pooled) == fields(serial)
    assert pooled.summary == serial.summary and pooled.true_r == serial.true_r


@pytest.mark.parametrize("spec,estimator", [("gumbel:3", "chatterjee"),
                                            ("gumbel:3", "plugin-arch"),
                                            ("galambos:3", "plugin-ev")])
def test_run_study_records_replay_through_sample(monkeypatch, spec, estimator):
    # the 6 replications at n = 50 and the 6 at n = 1000 are one chunk of 6300 points
    assert batches([50] * 6 + [1000] * 6) == [(0, 12)]
    inverted = []
    original = sampling.conditional_inverse
    monkeypatch.setattr(sampling, "conditional_inverse",
                        lambda c, x, u: inverted.append(len(x)) or original(c, x, u))
    cfg = StudyConfig(copula_spec=spec, sizes=(50, 1000), replications=6,
                      estimators=(estimator,), base_seed=3, m=16)
    res = run_study(cfg)
    monkeypatch.undo()
    assert inverted == [6300]
    assert [(r.n, r.replication) for r in res.records] == [
        (n, rep) for n in (50, 1000) for rep in range(6)]
    c = make_copula(spec)
    for r in res.records:
        assert r.seed == replication_seed(3, estimator, r.n, r.replication)
        s = sample(c, r.n, RngSpec(seed=r.seed, stream=0))
        if estimator == "chatterjee":
            value = chatterjee_r(s, np.random.default_rng(r.seed))
        else:
            value = plugin_zeta1_r(pseudo_obs(s), PLUGINS[estimator],
                                   QuadratureSpec(m=16))[1]
        assert np.float64(value).tobytes() == np.float64(r.value).tobytes()


def _plugin_arch_fit():
    p = pseudo_obs(sample(make_copula("gumbel:3"), 50, RngSpec(seed=4)))
    return archimedean_copula(reconstruct_generator(empirical_kendall(p)))


@pytest.mark.parametrize("build", [lambda: make_copula("gumbel:3"),
                                   lambda: make_copula("galambos:3"), _plugin_arch_fit],
                         ids=["gumbel:3", "galambos:3", "plugin-arch"])
def test_packed_draw_of_mixed_sizes_replays_through_sample(monkeypatch, build):
    # the plugin-arch kernel is a step function: its inverse lands on flat segments
    c = build()
    items = [("chatterjee", n, 0, seed) for n, seed in ((10, 7), (50, 8), (1000, 9))]
    inverted = []
    original = sampling.conditional_inverse
    monkeypatch.setattr(sampling, "conditional_inverse",
                        lambda c, x, u: inverted.append(len(x)) or original(c, x, u))
    clock = iter([2.0, 5.5])
    monkeypatch.setattr(study.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(study, "make_copula", lambda spec, knots: c)
    monkeypatch.setattr(study, "_run_one", lambda *args: args[5:])
    samples, shares = zip(*study._run_chunk(StudyConfig(**_GOOD), items))
    monkeypatch.undo()
    assert inverted == [1060]
    for (_, n, _, seed), s in zip(items, samples):
        one = sample(c, n, RngSpec(seed=seed, stream=0))
        assert s.n == n and s.seed == seed
        assert s.x.tobytes() == one.x.tobytes() and s.y.tobytes() == one.y.tobytes()
    assert all(share > 0 for share in shares)
    assert [share / n for share, (_, n, _, _) in zip(shares, items)] == pytest.approx(
        [3.5 / 1060] * 3, rel=1e-15)
    assert sum(shares) == pytest.approx(3.5, rel=1e-15)


def test_process_pool_matches_serial_run_over_chunks_spanning_cells(monkeypatch):
    cfg = StudyConfig(copula_spec="gumbel:3", sizes=(10, 50, 1000), replications=7,
                      estimators=study.ESTIMATORS, base_seed=2, m=16)
    # 3 x 7 x 1060 points: the serial run packs them into 3 chunks of at most
    # 8192 points, each spanning cells of two estimators
    inverted = []
    original = sampling.conditional_inverse
    monkeypatch.setattr(sampling, "conditional_inverse",
                        lambda c, x, u: inverted.append(len(x)) or original(c, x, u))
    serial = run_study(cfg, jobs=1)
    monkeypatch.undo()
    assert inverted == [7840, 7420, 7000]
    pooled = run_study(cfg, jobs=2)

    def fields(result):
        return [(r.estimator, r.n, r.replication, np.float64(r.value).tobytes(), r.seed)
                for r in result.records]

    assert [(r.estimator, r.n, r.replication) for r in serial.records] == [
        (e, n, rep) for e in study.ESTIMATORS for n in (10, 50, 1000) for rep in range(7)]
    assert fields(pooled) == fields(serial)
    assert pooled.summary == serial.summary and pooled.true_r == serial.true_r
