"""Coverage-study harness: reproducibility, aggregation, failure policy."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov.acov import naive_estimate
from tvacov.errors import ConfigurationError, NumericError
from tvacov.kernels import epanechnikov
from tvacov.locallinear import fit_at_data, fit_curve
from tvacov.lrv import ResidualPair, lrv_curve, sigma_functionals
from tvacov.procgen import MeanSpec, generate, model_preset
from tvacov.study import (
    StudyConfig,
    _replicate_naive,
    run_naive_study,
    run_study,
)


def small_config(**over):
    base = dict(model="model1", n=150, replications=4, lags=(0, 1),
                draws=1000, seed=5)
    base.update(over)
    return StudyConfig(**base)


def test_single_replication_is_deterministic():
    cfg = small_config(replications=1)
    a = run_study(cfg)
    b = run_study(small_config(replications=1))
    assert a.to_kv() == b.to_kv()
    for lag in (0, 1):
        assert a.coverage[lag] in (0.0, 1.0)


def test_report_replay_bit_identical():
    a = run_study(small_config())
    b = run_study(small_config())
    assert a.to_kv() == b.to_kv()
    for lag in (0, 1):
        assert_array_equal(a.covered[lag], b.covered[lag])
    assert a.n_success == 4
    assert "elapsed" not in "\n".join(a.to_kv())


def test_thread_count_invisible_in_results():
    a = run_study(small_config(threads=1))
    b = run_study(small_config(threads=3))
    assert a.to_kv() == b.to_kv()
    for lag in (0, 1):
        assert_array_equal(a.covered[lag], b.covered[lag])
    assert "threads" not in a.config
    assert not any("threads" in line for line in a.to_kv())


def test_quantile_inflation_only_widens():
    base = dict(model="model1", n=150, replications=20, lags=(0, 1),
                draws=1000, seed=3)
    plain = run_study(StudyConfig(**base))
    wide = run_study(StudyConfig(**base, quantile_inflation=1.5))
    for lag in (0, 1):
        # a replication covered by the narrower band stays covered
        assert np.all(plain.covered[lag] <= wide.covered[lag])
        assert plain.coverage[lag] <= wide.coverage[lag]
        assert plain.mean_width[lag] < wide.mean_width[lag]


def test_private_bootstrap_mode_reproducible():
    a = run_study(small_config(share_bootstrap=False))
    b = run_study(small_config(share_bootstrap=False))
    assert a.to_kv() == b.to_kv()
    assert a.config["share_bootstrap"] is False


def test_gumbel_method_runs():
    rep = run_study(small_config(method="gumbel", replications=3))
    assert set(rep.coverage) == {0, 1}
    assert rep.config["method"] == "gumbel"
    assert rep.n_success == 3


def test_naive_study_covers_smooth_trend():
    # with no trend breaks the residual-based pipeline is sound, so its
    # bands should cover most of the time; the point of the naive harness
    # is that THIS number collapses once breaks are present
    _, err = model_preset("model1")
    cfg = StudyConfig(model=(MeanSpec.zero(), err), n=400, replications=25,
                      lags=(0,), draws=1000, b_h=0.2, b_k=0.15, m=3, tau=0.2)
    rep = run_naive_study(cfg)
    assert rep.kind == "naive"
    assert rep.config["model"] == "custom"
    assert rep.coverage[0] > 0.5


def test_naive_replication_matches_step_by_step():
    # one trend fit per replication and one product fit per lag give the
    # estimate of naive_estimate and the band scale of the two-stage
    # residuals, to rounding
    kern = epanechnikov()
    cfg = small_config(b_h=0.2, b_k=0.25, m=3, tau=0.2)
    mean, err = model_preset("model1")
    y = generate(mean, err, 300, 11)
    _, fitted = _replicate_naive(cfg, y, None)
    resid = y.values - fit_curve(y.values, 0.2, kern, grid=y.grid).values
    for lag, (est, sigma, m, tau) in zip((0, 1), fitted):
        ref = naive_estimate(y, lag, kern, b_mean=0.2, b_var=0.25)
        assert_array_equal(est.curve.grid, ref.curve.grid)
        assert_allclose(est.curve.values, ref.curve.values, rtol=1e-12)
        assert (est.bandwidth, est.mean_bandwidth) == (0.25, 0.2)
        prods = resid * resid if lag == 0 else resid[lag:] * resid[:-lag]
        eps = prods - fit_at_data(prods, 0.25, kern)[0]
        pair = ResidualPair(eps=np.column_stack([eps, eps]), lags=(1, 1))
        ref_sigma = sigma_functionals(
            lrv_curve(pair, 3, 0.2, kern, grid=ref.curve.grid)).sigma_h
        assert_allclose(sigma.values, ref_sigma.values, rtol=1e-12)
        assert (m, tau) == (3, 0.2)


def test_failure_fraction_enforced():
    # bandwidths too small for a line fit make every replication fail;
    # with a zero tolerance the run must abort
    cfg = StudyConfig(model="model1", n=50, replications=4, lags=(0,),
                      draws=1000, b_h=0.01, b_k=0.01, max_failure_fraction=0.0)
    with pytest.raises(NumericError):
        run_study(cfg)


def test_auto_lag_respects_requested_lags():
    cfg = small_config(h=None, lags=(0, 2), replications=2)
    rep = run_study(cfg)
    for detail in rep.details:
        assert detail["h"] >= 3  # lag 2 needs at least h = 3
    assert rep.config["h"] == "auto"


@pytest.mark.parametrize("min_vol", [False, True])
def test_fixed_block_value_kept_when_the_other_is_auto(min_vol):
    # only the value left None is selected (rule or minimum volatility);
    # n=200, h=3: the rule pair is (ceil(197^(1/3)), 0.2) = (6, 0.2)
    def blocks(runner, **over):
        rep = runner(small_config(n=200, replications=2,
                                  min_volatility=min_vol, **over))
        assert rep.n_success == 2
        return {(d["m"][lag], d["tau"][lag])
                for d in rep.details for lag in (0, 1)}

    for runner in (run_study, run_naive_study):
        pairs = blocks(runner, m=5, tau=None)
        assert {m for m, _ in pairs} == {5}
        if not min_vol:
            assert {tau for _, tau in pairs} == {0.2}
        pairs = blocks(runner, m=None, tau=0.3)
        assert {tau for _, tau in pairs} == {0.3}
        if not min_vol:
            assert {m for m, _ in pairs} == {6}


def test_config_echo_shape():
    rep = run_study(small_config(b_h=None, replications=1))
    cfgd = rep.config
    assert cfgd["model"] == "model1"
    assert cfgd["lags"] == "0,1"
    assert cfgd["b_h"] == "auto"
    assert cfgd["b_k"] == 0.2
    assert cfgd["kind"] == "difference"
    lines = rep.to_kv()
    assert lines[0] == "kind=difference"
    assert any(line.startswith("coverage.lag0=") for line in lines)
    assert any(line.startswith("mean_width.lag1=") for line in lines)
    assert rep.table()  # renders without error


def test_config_validation():
    with pytest.raises(ConfigurationError):
        StudyConfig(n=4)
    with pytest.raises(ConfigurationError):
        StudyConfig(replications=0)
    with pytest.raises(ConfigurationError):
        StudyConfig(lags=(0, -1))
    with pytest.raises(ConfigurationError):
        StudyConfig(alpha=1.0)
    with pytest.raises(ConfigurationError):
        StudyConfig(lags=(0, 3), h=3)
    with pytest.raises(ConfigurationError):
        StudyConfig(method="jackknife")
    with pytest.raises(ConfigurationError):
        StudyConfig(quantile_inflation=0.0)
    with pytest.raises(ConfigurationError):
        StudyConfig(threads=0)
    with pytest.raises(ConfigurationError):
        StudyConfig(max_failure_fraction=1.0)
    for bad in (dict(b_h=0.6), dict(b_k=0.0), dict(m=0), dict(tau=0.7),
                dict(tau=0.0)):
        with pytest.raises(ConfigurationError):
            StudyConfig(**bad)
    # h, fixed or at least max(lags) + 1 when auto, must be below n - 2
    for bad in (dict(h=48), dict(h=48, m=None), dict(h=None, lags=(0, 47))):
        with pytest.raises(ConfigurationError, match="h=48 out of range"):
            StudyConfig(n=50, **bad)
    StudyConfig(n=50, h=47, m=None)
    # the limit formula needs b < 1/e, fixed or cross-validated
    with pytest.raises(ConfigurationError):
        StudyConfig(method="gumbel", b_h=0.4)
    with pytest.raises(ConfigurationError):
        StudyConfig(method="gumbel", b_k=None,
                    bandwidth_grid=np.array([0.4, 0.45]))


def test_config_block_width_bound():
    # m <= (n - h) // 4 for the fixed h, else for the top of the lag scan
    # (default_start_lag(160) = 5, or h0)
    StudyConfig(n=160, h=3, m=39)
    with pytest.raises(ConfigurationError, match=r"\[1, 38\]"):
        StudyConfig(n=160, h=None, m=39)
    StudyConfig(n=160, h=None, m=38)
    with pytest.raises(ConfigurationError, match=r"\[1, 37\]"):
        StudyConfig(n=160, h=None, h0=10, m=38)


def test_lags_deduplicated_and_sorted():
    cfg = small_config(lags=(1, 0, 1))
    assert cfg.lags == (0, 1)
