import dataclasses
import hashlib
import json
import math
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leobench.predict as predict_module
from leobench.orbital import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    GroundSite,
    TleRecord,
    gmst_rad,
    synthetic_constellation,
    visible_sats,
)
from leobench.predict import (
    HISTORY_LAGS,
    PAD_SENTINEL,
    Dataset,
    DegenerateDesign,
    EvalReport,
    FeatureVector,
    TreeNode,
    ZeroActual,
    assemble_features,
    dataset_from_trace,
    evaluate,
    feature_names,
    fit,
    load_model,
    predict,
    predict_batch,
    save_model,
)
from leobench.telemetry import METRIC_GETTERS, InsufficientHistory, TelemetryWindow
from leobench.terminal_sim import TelemetrySample, TerminalModelConfig, TerminalSim
from leobench.triggers import OrbitalContext

T0 = 1_760_000_000_000
EPOCH = datetime(2026, 1, 10, tzinfo=timezone.utc)


def overhead_catalog():
    """Two satellites above an equatorial site at the epoch, one antipodal."""
    a = EARTH_RADIUS_KM + 550.0
    mm = math.sqrt(MU_EARTH_KM3_S2 / a ** 3) * 86400.0 / (2 * math.pi)
    raan = math.degrees(gmst_rad(EPOCH))  # ascending node over lon 0 now
    mk = lambda name, anomaly: TleRecord(name, 53.0, raan, 0.0, 0.0, anomaly, mm, EPOCH)
    return [mk("UP-A", 0.0), mk("UP-B", 3.0), mk("FAR", 180.0)]


def history_window(values, t0=T0):
    w = TelemetryWindow()
    for i, v in enumerate(values):
        w.push(TelemetrySample(t0 + i * 1000, v, 0.001, 1.0, 65.0, 0, 0, "ACTIVE"))
    return w


def test_feature_dimension_formula():
    for k in (1, 4, 8):
        assert len(feature_names(k)) == 3 + 3 * k + 2 + 5 + 1


def test_padding_and_ordering_with_two_visible():
    ctx = OrbitalContext(GroundSite(0.0, 0.0), overhead_catalog())
    w = history_window([30, 31, 32, 33, 34])
    now = int(EPOCH.timestamp() * 1000)
    fv = assemble_features(w, ctx, now, k=4)
    assert fv.dim == 3 + 12 + 2 + 5 + 1
    assert fv.sat_slot_valid == (True, True, False, False)
    names = fv.names
    el1 = fv.values[names.index("sat1_el")]
    el2 = fv.values[names.index("sat2_el")]
    assert el1 >= el2 > 25.0
    assert fv.values[names.index("sat3_az")] == -1.0
    assert fv.values[names.index("sat4_range_km")] == -1.0
    # h1 is the newest sample
    assert fv.values[names.index("h1")] == 34
    assert fv.values[names.index("h5")] == 30
    assert fv.values[names.index("second_of_day")] == (now // 1000) % 86400


def test_assembly_deterministic():
    ctx = OrbitalContext(GroundSite(0.0, 0.0), overhead_catalog())
    now = int(EPOCH.timestamp() * 1000)
    a = assemble_features(history_window([30, 31, 32, 33, 34]), ctx, now, k=4)
    b = assemble_features(history_window([30, 31, 32, 33, 34]), ctx, now, k=4)
    assert a == b


def test_assembly_needs_history():
    ctx = OrbitalContext(GroundSite(0.0, 0.0), overhead_catalog())
    with pytest.raises(InsufficientHistory):
        assemble_features(history_window([30, 31, 32]), ctx,
                          int(EPOCH.timestamp() * 1000))


def test_dataset_rejects_out_of_order_samples():
    """As a TelemetryWindow does, whether or not the sample makes a row;
    a sample without the metric is not checked."""
    ctx = OrbitalContext(GroundSite(0.0, 0.0), overhead_catalog())
    now = int(EPOCH.timestamp() * 1000)
    samples = history_window([30, 31, 32, 33, 34, 35], t0=now).samples()
    gap = TelemetrySample(now - 9000, None, None, 1.0, 65.0, 0, 0, "OUTAGE")
    assert len(dataset_from_trace(samples[:3] + [gap] + samples[3:], ctx)) == 1
    for at in (2, 6):
        late = TelemetrySample(samples[at - 1].ts_ms, 40.0, 0.001, 1.0, 65.0, 0, 0, "ACTIVE")
        with pytest.raises(ValueError, match="out-of-order sample"):
            dataset_from_trace(samples[:at] + [late] + samples[at:], ctx)


# --- datasets ------------------------------------------------------------

def lag_dataset(series, extra=None, t0=T0):
    """Rows with h1..h5 drawn from `series`; target supplied by caller."""
    series = np.asarray(series, dtype=float)
    names = ["h1", "h2", "h3", "h4", "h5"] + (list(extra) if extra else [])
    ts, rows = [], []
    for t in range(5, len(series)):
        ts.append(t0 + t * 1000)
        rows.append([series[t - 1], series[t - 2], series[t - 3],
                     series[t - 4], series[t - 5]] + ([0.0] * (len(names) - 5)))
    return names, np.array(ts, dtype=np.int64), np.array(rows)


def test_dataset_csv_round_trip():
    rng = np.random.default_rng(0)
    series = rng.uniform(20, 60, size=40)
    names, ts, rows = lag_dataset(series)
    ds = Dataset(ts, series[5:], rows, tuple(names))
    back = Dataset.from_csv(ds.to_csv())
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.ts_ms, ds.ts_ms)
    assert back.targets == pytest.approx(ds.targets, rel=1e-9)
    assert back.features == pytest.approx(ds.features, rel=1e-9)


def test_dataset_requires_chronology():
    with pytest.raises(ValueError):
        Dataset(np.array([2000, 1000]), np.array([1.0, 2.0]),
                np.zeros((2, 1)), ("x",))


def test_temporal_split_19_to_5():
    ds = Dataset(np.arange(24, dtype=np.int64) * 1000, np.ones(24) * 5,
                 np.random.default_rng(1).uniform(1, 2, size=(24, 5)),
                 ("h1", "h2", "h3", "h4", "h5"))
    train, test = ds.temporal_split(19 / 24)
    assert len(train) == 19 and len(test) == 5
    assert train.ts_ms.max() < test.ts_ms.min()


# --- models --------------------------------------------------------------

def test_persistence_predicts_h1():
    rng = np.random.default_rng(2)
    series = rng.uniform(30, 50, size=60)
    names, ts, rows = lag_dataset(series)
    ds = Dataset(ts, series[5:], rows, tuple(names))
    model = fit("persistence", ds)
    preds = predict_batch(model, ds)
    assert preds == pytest.approx(ds.column("h1"))


def test_harmonic_mean_formula():
    rng = np.random.default_rng(3)
    series = rng.uniform(10, 90, size=30)
    names, ts, rows = lag_dataset(series)
    ds = Dataset(ts, series[5:], rows, tuple(names))
    model = fit("harmonic_mean", ds)
    for row in ds.features[:5]:
        lags = row[:5]
        assert predict(model, row) == pytest.approx(5.0 / np.sum(1.0 / lags))


def test_ridge_ar_recovers_ar1_against_ols_oracle():
    rng = np.random.default_rng(4)
    phi = 0.83
    base = rng.uniform(20, 60, size=1200)  # iid lags keep the design full rank
    names, ts, rows = lag_dataset(base)
    targets = phi * rows[:, 0]
    ds = Dataset(ts, targets, rows, tuple(names))
    model = fit("ridge_ar", ds)
    got = model.coefficients
    assert got == pytest.approx([phi, 0, 0, 0, 0], abs=1e-6)
    # closed-form least-squares oracle with intercept
    X = np.column_stack([np.ones(len(rows)), rows])
    beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
    assert got == pytest.approx(beta[1:], abs=1e-6)
    preds = predict_batch(model, ds)
    assert preds == pytest.approx(targets, abs=1e-5)


def test_scale_equivariance_of_persistence_and_ridge():
    rng = np.random.default_rng(5)
    series = rng.uniform(25, 45, size=400)
    target_noise = rng.normal(0, 0.5, size=395)
    c = 12.5
    for kind in ("persistence", "ridge_ar"):
        names, ts, rows = lag_dataset(series)
        y = rows[:, 0] * 0.9 + 3.0 + target_noise
        ds1 = Dataset(ts, y, rows, tuple(names))
        ds2 = Dataset(ts, c * y, c * rows, tuple(names))
        p1 = predict_batch(fit(kind, ds1), ds1)
        p2 = predict_batch(fit(kind, ds2), ds2)
        assert p2 == pytest.approx(c * p1, rel=1e-9), kind


def test_degenerate_designs():
    names = ("h1", "h2", "h3", "h4", "h5")
    ts = np.arange(10, dtype=np.int64) * 1000 + T0
    rows = np.full((10, 5), 7.0)
    ds = Dataset(ts, np.arange(10, dtype=float) + 1, rows, names)
    with pytest.raises(DegenerateDesign):
        fit("ridge_ar", ds)
    with pytest.raises(DegenerateDesign):
        fit("gbrt", ds)


def test_partially_constant_columns_dropped_with_warning(caplog):
    import logging
    rng = np.random.default_rng(6)
    names = ("h1", "h2", "h3", "h4", "h5")
    ts = np.arange(50, dtype=np.int64) * 1000 + T0
    rows = rng.uniform(10, 20, size=(50, 5))
    rows[:, 2] = 4.0  # constant lag
    ds = Dataset(ts, rows[:, 0] * 1.1, rows, names)
    with caplog.at_level(logging.WARNING, logger="leobench.predict"):
        model = fit("ridge_ar", ds)
    assert any("constant" in r.message for r in caplog.records)
    assert model.coefficients[2] == 0.0
    assert model.coefficients[0] == pytest.approx(1.1, abs=1e-4)


def test_gbrt_matches_stump_oracle_and_beats_persistence():
    rng = np.random.default_rng(7)
    n = 600
    x = rng.uniform(0, 1, size=n)
    y = np.where(x > 0.5, 15.0, 5.0) + rng.normal(0, 0.1, size=n)
    ts = np.arange(n, dtype=np.int64) * 1000 + T0
    ds_x = Dataset(ts, y, x.reshape(-1, 1), ("x",))

    # brute-force best stump over every midpoint
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    best_sse, best_thr = np.inf, None
    for i in range(1, n):
        if xs[i] == xs[i - 1]:
            continue
        left, right = ys[:i], ys[i:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        if sse < best_sse:
            best_sse, best_thr = sse, (xs[i] + xs[i - 1]) / 2
    single = fit("gbrt", ds_x, n_trees=1, max_depth=1, learning_rate=1.0)
    tree = single.trees[0]
    assert tree.threshold == pytest.approx(best_thr, abs=1e-12)
    stump_rmse = math.sqrt(best_sse / n)
    gbrt = fit("gbrt", ds_x, n_trees=50)
    gbrt_rmse = math.sqrt(np.mean((predict_batch(gbrt, ds_x) - y) ** 2))
    assert gbrt_rmse <= stump_rmse + 1e-9

    # persistence on the same series, time-ordered
    names, ts2, rows = lag_dataset(y)
    ds_t = Dataset(ts2, y[5:], rows, tuple(names))
    pers_rmse = math.sqrt(np.mean((predict_batch(fit("persistence", ds_t), ds_t)
                                   - y[5:]) ** 2))
    assert gbrt_rmse < pers_rmse


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    series = rng.uniform(20, 50, size=300)
    names, ts, rows = lag_dataset(series)
    y = 0.7 * rows[:, 0] + 0.2 * rows[:, 1] + rng.normal(0, 0.3, size=len(rows))
    ds = Dataset(ts, y, rows, tuple(names))
    for kind in ("persistence", "harmonic_mean", "ridge_ar", "gbrt"):
        hyper = {"n_trees": 20} if kind == "gbrt" else {}
        model = fit(kind, ds, **hyper)
        path = tmp_path / f"{kind}.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert predict_batch(back, ds) == pytest.approx(predict_batch(model, ds),
                                                        rel=1e-12), kind
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 99, "kind": "persistence"}')
    with pytest.raises(ValueError):
        load_model(str(bad))


# --- evaluation metrics --------------------------------------------------

class _FixedModel:
    def __init__(self, preds):
        self.preds = list(preds)
        self._i = 0

    def predict_row(self, x):
        v = self.preds[self._i]
        self._i += 1
        return v


def eval_dataset(actuals):
    n = len(actuals)
    return Dataset(np.arange(n, dtype=np.int64) * 1000 + T0,
                   np.asarray(actuals, dtype=float),
                   np.ones((n, 1)), ("x",))


def test_eval_worked_example():
    rep = evaluate(_FixedModel([90.0, 110.0]), eval_dataset([100.0, 100.0]))
    assert rep.mape_pct == pytest.approx(10.0)
    assert rep.rmse == pytest.approx(10.0)
    assert rep.within10_pct == 100.0
    assert rep.within5_pct == 0.0


def test_eval_perfect_predictions():
    rep = evaluate(_FixedModel([50.0, 60.0]), eval_dataset([50.0, 60.0]))
    assert rep.mape_pct == 0.0 and rep.rmse == 0.0
    assert rep.within5_pct == rep.within10_pct == 100.0


def test_eval_zero_actual_rejected():
    with pytest.raises(ZeroActual):
        evaluate(_FixedModel([1.0]), eval_dataset([0.0]))


def test_eval_matches_naive_oracle():
    rng = np.random.default_rng(9)
    actual = rng.uniform(10, 100, size=1000)
    pred = actual * rng.uniform(0.85, 1.15, size=1000)
    rep = evaluate(_FixedModel(pred), eval_dataset(actual))
    # independent scalar-loop oracle
    errs = [abs(p - a) / a for p, a in zip(pred, actual)]
    mape = 100.0 * sum(errs) / len(errs)
    rmse = math.sqrt(sum((p - a) ** 2 for p, a in zip(pred, actual)) / len(actual))
    w5 = 100.0 * sum(e <= 0.05 for e in errs) / len(errs)
    w10 = 100.0 * sum(e <= 0.10 for e in errs) / len(errs)
    assert rep.mape_pct == pytest.approx(mape, abs=1e-9)
    assert rep.rmse == pytest.approx(rmse, abs=1e-9)
    assert rep.within5_pct == pytest.approx(w5, abs=1e-9)
    assert rep.within10_pct == pytest.approx(w10, abs=1e-9)
    assert rep.within5_pct <= rep.within10_pct


def test_report_rejects_inverted_bands():
    with pytest.raises(ValueError):
        EvalReport(mape_pct=5.0, rmse=1.0, within5_pct=80.0, within10_pct=50.0)


# --- end-to-end on the simulator ----------------------------------------

def test_ridge_ar_beats_persistence_on_sim_trace():
    cfg = TerminalModelConfig(rng_seed=13)
    sim = TerminalSim(cfg)
    samples = [sim.step(T0 + k * 1000) for k in range(2400)]
    ctx = OrbitalContext(sim.site, sim.catalog)
    ds = dataset_from_trace(samples, ctx)
    train, test = ds.temporal_split(19 / 24)
    assert train.ts_ms.max() < test.ts_ms.min()
    ridge_rep = evaluate(fit("ridge_ar", train), test)
    pers_rep = evaluate(fit("persistence", train), test)
    assert ridge_rep.mape_pct <= 10.0
    assert ridge_rep.mape_pct < pers_rep.mape_pct


# --- golden digests ------------------------------------------------------

def _sim_dataset(seconds=300, seed=21):
    sim = TerminalSim(TerminalModelConfig(rng_seed=seed))
    samples = [sim.step(T0 + k * 1000) for k in range(seconds)]
    return dataset_from_trace(samples, OrbitalContext(sim.site, sim.catalog))


def _ties_dataset():
    """A constant column, few distinct values per column, and column 4 an
    exact copy of column 1, so gains tie across features."""
    rng = np.random.default_rng(31)
    n = 240
    X = rng.integers(0, 6, size=(n, 6)).astype(float)
    X[:, 2] = 7.0
    X[:, 4] = X[:, 1]
    X[:, 5] = np.round(rng.normal(0, 1, size=n), 1)
    y = 3.0 * X[:, 1] + np.where(X[:, 0] > 2, 5.0, 0.0) + rng.normal(0, 0.5, size=n)
    ts = np.arange(n, dtype=np.int64) * 1000 + T0
    return Dataset(ts, y, X, tuple(f"c{i}" for i in range(6)))


def _model_json(kind, make_dataset):
    return json.dumps(fit(kind, make_dataset()).to_json()).encode()


def _predictions(kind, make_dataset):
    ds = make_dataset()
    return predict_batch(fit(kind, ds), ds).tobytes()


def _dataset_bytes():
    ds = _sim_dataset()
    return ds.ts_ms.tobytes() + ds.features.tobytes() + ds.targets.tobytes()


# sha256 of the seeded dataset bytes, of the fitted models' JSON, and of
# the batch predictions' bytes; pinned on the per-column argsort split
# search and the per-row prediction loops, so any change in any bit of a
# feature, split or prediction shows
GOLDEN_PREDICT = {
    "dataset_sim": (
        _dataset_bytes,
        "154e0ed10d4f0cbdb6fcddab9de9836e2e78a3154e098201193e16f87631d719"),
    "gbrt_model_sim": (
        lambda: _model_json("gbrt", _sim_dataset),
        "e11499a0d619f129bab6952ca122add405d89b83a166ee3e67c3ffc6d3f17785"),
    "gbrt_model_ties": (
        lambda: _model_json("gbrt", _ties_dataset),
        "d13ebaf24f01b2a9420ebdf1f5b2f7407117e02f7ffc13b2411d9808159383fe"),
    "gbrt_predict_batch_sim": (
        lambda: _predictions("gbrt", _sim_dataset),
        "4729b9828b43aa282dd5cfeb0e76da133547101d528f79558ce96502b3990b10"),
    "gbrt_predict_batch_ties": (
        lambda: _predictions("gbrt", _ties_dataset),
        "9770dad66599c03af41966068f251f23ca39c8ef0614b5ebffa9d79f794be4ee"),
    "ridge_ar_predict_batch_sim": (
        lambda: _predictions("ridge_ar", _sim_dataset),
        "d281254a222085a7700e38f7b5c9793b01f296e7adb3125f1d6581e6989c9b2c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PREDICT))
def test_predict_golden_digest(case):
    make, expected = GOLDEN_PREDICT[case]
    assert hashlib.sha256(make()).hexdigest() == expected


# --- fast paths against the scalar reference ----------------------------

def _reference_dataset(samples, orbital, k, metric):
    """dataset_from_trace as one visible_sats call per row, each row built
    as assemble_features used to build it: the reference the batched
    build must match bit for bit."""
    getter = METRIC_GETTERS[metric]
    window = TelemetryWindow(capacity=HISTORY_LAGS + 1)
    ts, targets, rows = [], [], []
    for s in samples:
        target = getter(s)
        if len(window) >= HISTORY_LAGS and target is not None:
            lags = list(reversed(window.last_values(metric, HISTORY_LAGS)))
            t = datetime.fromtimestamp(s.ts_ms / 1000.0, tz=timezone.utc)
            vis = visible_sats(orbital.site, orbital.catalog, t)
            values = [orbital.site.latitude_deg, orbital.site.longitude_deg,
                      orbital.site.altitude_m]
            for i in range(k):
                if i < len(vis):
                    values += [vis[i].azimuth_deg, vis[i].elevation_deg, vis[i].range_km]
                else:
                    values += [PAD_SENTINEL] * 3
            values += [window.latest.az_deg, window.latest.el_deg]
            values += lags
            values.append(float((s.ts_ms // 1000) % 86400))
            fv = assemble_features(window, orbital, s.ts_ms, k=k, metric=metric)
            assert np.array(fv.values).tobytes() == np.array(values, dtype=float).tobytes()
            assert fv.sat_slot_valid == tuple(i < len(vis) for i in range(k))
            ts.append(s.ts_ms)
            targets.append(target)
            rows.append(values)
        if target is not None:
            window.push(s)
    if not rows:
        raise InsufficientHistory("trace too short to build any rows")
    return Dataset(np.array(ts, dtype=np.int64), np.array(targets),
                   np.array(rows, dtype=float), feature_names(k))


def _two_epoch_catalog():
    early = synthetic_constellation(epoch=datetime(2026, 1, 1, tzinfo=timezone.utc))
    late = synthetic_constellation(epoch=datetime(2026, 1, 2, 12, tzinfo=timezone.utc),
                                   phase_offset_deg=7.0)
    return early[:220] + late[220:]


def _twins_catalog():
    """Each even record twice under another name and each odd one twice
    under its own, so equal elevations are broken by name and, for equal
    names, by catalog order."""
    shell = synthetic_constellation()
    twins = [dataclasses.replace(r, name="#" + r.name) if i % 2 == 0 else r
             for i, r in enumerate(shell)]
    return shell + twins


CATALOGS = {"shell": synthetic_constellation(), "two_epochs": _two_epoch_catalog(),
            "twins": _twins_catalog()}
SITES = [GroundSite(90.0, 0.0), GroundSite(-90.0, 45.0), GroundSite(0.0, 0.0),
         GroundSite(0.0, -78.5, 2850.0), GroundSite(47.6, -122.3)]


@st.composite
def traces(draw):
    """A trace with gaps in one metric or another, on a catalog and a site,
    over a day and a half from the earliest epoch."""
    catalog = CATALOGS[draw(st.sampled_from(sorted(CATALOGS)))]
    ts = int(datetime(2026, 1, 1, tzinfo=timezone.utc).timestamp() * 1000)
    ts += draw(st.integers(0, 36 * 3600 * 1000))
    samples = []
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.sampled_from([1, 999, 1000, 1000, 1000, 60_000, 3_600_000]))
        latency = draw(st.one_of(st.none(), st.integers(1, 400), st.floats(0.1, 400.0)))
        drop = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
        samples.append(TelemetrySample(ts, latency, drop, draw(st.floats(0.0, 360.0)),
                                       draw(st.floats(-90.0, 90.0)), 0, 0, "ACTIVE"))
    return (OrbitalContext(draw(st.sampled_from(SITES)), catalog), samples,
            draw(st.integers(1, 4) | st.integers(5, 24)),
            draw(st.sampled_from(sorted(METRIC_GETTERS))),
            draw(st.integers(1, 3 * len(catalog))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_top_k_slots_break_ties_by_name_then_catalog_order(data):
    """Equal elevations, which real geometry rarely gives, order the slots
    by name and equal names by catalog order, as visible_sats orders them;
    the geometry is drawn, with distinct azimuths to show the order."""
    n_rows, n_sats = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    names = data.draw(st.lists(st.sampled_from("ABC"), min_size=n_sats, max_size=n_sats))
    el = np.array(data.draw(st.lists(
        st.sampled_from([np.nan, 0.0, 24.9, 25.0, 40.0, 60.0]),
        min_size=n_rows * n_sats, max_size=n_rows * n_sats))).reshape(n_rows, n_sats)
    az = np.arange(el.size, dtype=float).reshape(el.shape)
    rng = az + 1000.0
    k = data.draw(st.integers(1, n_sats + 1))
    block = data.draw(st.integers(1, 2 * n_sats))
    ts = [T0 + 1000 * i for i in range(n_rows)]
    row_of = {datetime.fromtimestamp(t / 1000.0, tz=timezone.utc): i for i, t in enumerate(ts)}

    def drawn_look_angles(site, catalog, times):
        rows = [row_of[t] for t in times]
        return az[rows], el[rows], rng[rows]

    catalog = [dataclasses.replace(overhead_catalog()[0], name=name) for name in names]
    orbital = OrbitalContext(GroundSite(0.0, 0.0), catalog)
    with mock.patch.object(predict_module, "look_angles", drawn_look_angles), \
            mock.patch.object(predict_module, "_GEOMETRY_BLOCK_ELEMENTS", block):
        _, X, visible = predict_module._feature_rows(
            orbital, ts, [[1.0] * HISTORY_LAGS] * n_rows, [(0.0, 0.0)] * n_rows, k)
    for r in range(n_rows):
        seen = sorted(((names[j], az[r, j], el[r, j], rng[r, j])
                       for j in range(n_sats) if el[r, j] >= 25.0),
                      key=lambda v: (-v[2], v[0]))
        slots = [v for sat in seen[:k] for v in sat[1:]]
        slots += [PAD_SENTINEL] * (3 * k - len(slots))
        assert X[r, 3:3 + 3 * k].tolist() == slots
        assert visible[r] == len(seen)


def _dataset_bits(build):
    try:
        ds = build()
    except InsufficientHistory:
        return None
    return (ds.feature_names, ds.ts_ms.tobytes(), ds.targets.dtype, ds.targets.tobytes(),
            ds.features.tobytes())


@settings(max_examples=60, deadline=None)
@given(traces())
def test_batched_dataset_matches_per_row_reference(case):
    """The same rows, bit for bit, as one visible_sats call per row, with
    metric gaps, k from 1 past the visible count, two epochs, twin
    satellites, sites at the poles and the equator, and geometry blocks
    from one instant to several."""
    orbital, samples, k, metric, block = case
    with mock.patch.object(predict_module, "_GEOMETRY_BLOCK_ELEMENTS", block):
        got = _dataset_bits(lambda: dataset_from_trace(samples, orbital, k=k, metric=metric))
    assert got == _dataset_bits(lambda: _reference_dataset(samples, orbital, k, metric))

def _reference_best_split(X, residuals, min_leaf):
    """The split search as one stable argsort per column per node: the
    reference the presorted search must match bit for bit."""
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    total_sum = residuals.sum()
    base_sse_term = -(total_sum ** 2) / n
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        rs = residuals[order]
        csum = np.cumsum(rs)[:-1]
        left_n = np.arange(1, n)
        right_n = n - left_n
        with np.errstate(divide="ignore", invalid="ignore"):
            score = -(csum ** 2) / left_n - ((total_sum - csum) ** 2) / right_n
        valid = (xs[:-1] != xs[1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
        if not np.any(valid):
            continue
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))
        gain = base_sse_term - score[i]
        if gain > 1e-12 and (best is None or gain > best[2]):
            best = (f, float((xs[i] + xs[i + 1]) / 2.0), float(gain))
    return best


def _reference_fit_tree(X, residuals, depth, max_depth, min_leaf):
    node = TreeNode(value=float(residuals.mean()))
    if depth >= max_depth:
        return node
    split = _reference_best_split(X, residuals, min_leaf)
    if split is None:
        return node
    f, thr, _ = split
    mask = X[:, f] <= thr
    node.feature, node.threshold = f, thr
    node.left = _reference_fit_tree(X[mask], residuals[mask], depth + 1, max_depth, min_leaf)
    node.right = _reference_fit_tree(X[~mask], residuals[~mask], depth + 1, max_depth, min_leaf)
    return node


def _reference_gbrt_trees(X, y, n_trees, max_depth, learning_rate, min_leaf):
    """The boosting loop with a per-node search and per-row tree walks."""
    pred = np.full(len(y), float(y.mean()))
    trees = []
    for _ in range(n_trees):
        tree = _reference_fit_tree(X, y - pred, 0, max_depth, min_leaf)
        if tree.is_leaf and abs(tree.value) < 1e-12:
            break
        trees.append(tree)
        pred += learning_rate * np.array([tree.predict(row) for row in X])
    return trees


@st.composite
def split_problems(draw):
    """A node of a design with repeated values, constant columns and
    copied columns (equal gains across features), and a row subset."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["few", "constant", "copy", "spread"]))
        if kind == "constant":
            columns.append([draw(st.sampled_from([0.0, 2.5]))] * n)
        elif kind == "copy" and columns:
            columns.append(list(columns[draw(st.integers(0, len(columns) - 1))]))
        elif kind == "spread":
            columns.append(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 3.0]),
                                         min_size=n, max_size=n)))
    X = np.array(columns, dtype=float).T.reshape(n, len(columns))
    residuals = np.array(draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-50, 50)),
        min_size=n, max_size=n)))
    in_node = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    min_leaf = draw(st.integers(0, n // 2 + 1))
    block = draw(st.integers(1, 3 * n))
    return X, residuals, in_node, min_leaf, block


@settings(max_examples=250, deadline=None)
@given(split_problems())
def test_presorted_split_search_matches_reference(problem):
    """Same (feature, threshold, gain) as the per-column argsort search, at
    the root and at a node whose orders are the root's filtered to it,
    whatever the number of columns searched per numpy call."""
    X, residuals, in_node, min_leaf, block = problem
    XT = np.ascontiguousarray(X.T)
    orders = np.argsort(XT, axis=1, kind="stable")
    rows = np.arange(len(X))
    node_rows = rows[in_node]
    node_orders = orders[in_node[orders]].reshape(len(orders), len(node_rows))
    with mock.patch.object(predict_module, "_SPLIT_BLOCK_ELEMENTS", block):
        assert (predict_module._best_split(XT, residuals, rows, orders, min_leaf)
                == _reference_best_split(X, residuals, min_leaf))
        if len(node_rows):
            assert (predict_module._best_split(XT, residuals, node_rows,
                                               node_orders, min_leaf)
                    == _reference_best_split(X[in_node], residuals[in_node], min_leaf))


@settings(max_examples=60, deadline=None)
@given(split_problems(), st.integers(1, 6), st.integers(1, 3),
       st.lists(st.sampled_from([0.0, 1.0, 1.25, 3.0, -7.0, np.nan, np.inf]),
                min_size=1, max_size=60))
def test_gbrt_batch_prediction_matches_rows(problem, n_trees, max_depth, probe):
    """predict_batch equals predict_row row by row, bit for bit, on the
    training rows and on rows sitting on thresholds or holding NaN/inf."""
    X, residuals, _, min_leaf, _ = problem
    n, d = X.shape
    if n < 2 or not np.any(X.std(axis=0) > 0):
        return
    ts = np.arange(n, dtype=np.int64) * 1000 + T0
    ds = Dataset(ts, residuals, X, tuple(f"c{i}" for i in range(d)))
    model = fit("gbrt", ds, n_trees=n_trees, max_depth=max_depth,
                min_leaf=max(min_leaf, 1), learning_rate=0.3)
    probes = np.resize(np.array(probe), (max(1, len(probe) // d), d))
    for Z in (X, probes):
        zs = Dataset(np.arange(len(Z), dtype=np.int64), np.ones(len(Z)), Z, ds.feature_names)
        rowwise = np.array([model.predict_row(r) for r in Z])
        assert predict_batch(model, zs).tobytes() == rowwise.tobytes()


@settings(max_examples=150, deadline=None)
@given(split_problems(), st.integers(1, 8), st.integers(0, 3))
def test_gbrt_fit_matches_reference(problem, n_trees, max_depth):
    """The same trees, bit for bit, as the per-node argsort search with
    training predictions from per-row tree walks."""
    X, y, _, min_leaf, _ = problem
    kept = np.nonzero(X.std(axis=0) > 0)[0]
    if len(kept) == 0:
        return
    ds = Dataset(np.arange(len(X), dtype=np.int64), y, X,
                 tuple(f"c{i}" for i in range(X.shape[1])))
    model = fit("gbrt", ds, n_trees=n_trees, max_depth=max_depth,
                learning_rate=0.3, min_leaf=min_leaf)
    trees = _reference_gbrt_trees(X[:, kept], y, n_trees, max_depth, 0.3, min_leaf)
    assert json.dumps([t.to_json() for t in model.trees]) == \
        json.dumps([t.to_json() for t in trees])


def _split_features(node):
    if node.is_leaf:
        return set()
    return {node.feature} | _split_features(node.left) | _split_features(node.right)


def test_gbrt_skips_single_valued_column_that_std_keeps():
    """A column holding one value whose std(axis=0) rounds above 0 stays in
    kept_columns, is never split on, and the columns after it keep their
    numbers: the trees are the reference's, bit for bit."""
    rng = np.random.default_rng(13)
    n = 40
    X = np.column_stack([rng.integers(0, 6, size=n).astype(float),
                         np.full(n, 37.7749),
                         np.round(rng.normal(0, 1, size=n), 1)])
    assert X.std(axis=0)[1] > 0
    y = 2.0 * X[:, 0] + np.where(X[:, 2] > 0, 4.0, 0.0) + rng.normal(0, 0.3, size=n)
    ds = Dataset(np.arange(n, dtype=np.int64), y, X, ("c0", "lat", "c2"))
    model = fit("gbrt", ds, n_trees=30, max_depth=3, learning_rate=0.3, min_leaf=3)
    assert model.kept_columns == (0, 1, 2)
    trees = _reference_gbrt_trees(X, y, 30, 3, 0.3, 3)
    assert json.dumps([t.to_json() for t in model.trees]) == \
        json.dumps([t.to_json() for t in trees])
    used = set().union(*(_split_features(t) for t in model.trees))
    assert used == {0, 2}
