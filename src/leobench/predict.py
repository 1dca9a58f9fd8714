"""Feature assembly and reference predictors for latency/throughput.

The feature vector couples terminal telemetry with constellation geometry:
site coordinates, the top-K visible satellites (azimuth/elevation/range,
padded with a sentinel when fewer are overhead), terminal orientation, the
last five seconds of the target metric, and second-of-day.

Reference models, deliberately simple and fully deterministic:

  * persistence: tomorrow looks like one second ago;
  * harmonic mean of the 5-lag history;
  * ridge autoregression over the lags, solved in closed form on
    standardized data (which also makes it exactly scale-equivariant);
  * a small gradient-boosted regression-tree ensemble over all features
    (squared loss, depth <= 3, <= 200 trees, shrinkage 0.1).

Models serialize to versioned JSON with coefficients/trees spelled out, so
files survive refactors and can be inspected by hand.

A dataset's feature rows are built in one batch, and `assemble_features`
is the one-row case of the same builder. A row holds the same bits as a
row built alone, because:

  * the geometry of every row comes from `orbital.look_angles`, which does
    the same elementwise operations as `visible_sats` and computes angles
    only where up >= 0 (see `orbital`);
  * each row's satellites are those at or above the 25 degree mask, ordered
    by (-elevation, sat_id) as `visible_sats` orders them: one stable
    `lexsort` over (row, -elevation, name rank), in which satellites that
    share a name keep catalog order;
  * every other column holds the same Python value converted to float.

The tree fit is the exact greedy search with presorted columns (as in
SLIQ and XGBoost's column blocks), and it builds the same trees, bit for
bit, as one stable argsort per column per node would. Three invariants
carry that:

  * stable presort filter: each column is stably argsorted once per fit; a
    child's order for a column is its parent's filtered to the child's
    rows, which is exactly the stable argsort of the child's rows, so the
    split scan sees the same values and residuals in the same order;
  * order-preserving sums: the prefix sums are sequential `cumsum`s along
    that order, and a node's mean and residual total are taken over its
    residuals in original row order (numpy's pairwise summation depends on
    order);
  * first-feature tie-break: the first feature whose gain is strictly the
    largest (and above 1e-12) wins, however many columns one numpy call
    searches.

A column is kept when its `std` is above 0, which can round above 0 for a
column holding one value (a site coordinate, say). Of the kept columns the
search covers only those with at least one adjacent pair of distinct
sorted values: every candidate split of any other column joins equal
values, so it never has a finite gain and can never win. Trees are fitted
on the searched columns and their features renumbered to kept columns, so
`kept_columns` and the model file are what the full search gives.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .orbital import DEFAULT_ELEVATION_MASK_DEG, look_angles
from .telemetry import METRIC_GETTERS, InsufficientHistory, TelemetryWindow
from .triggers import OrbitalContext

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 8
PAD_SENTINEL = -1.0
HISTORY_LAGS = 5
MODEL_FORMAT_VERSION = 1
RIDGE_LAMBDA = 1e-6


class ZeroActual(ValueError):
    """MAPE undefined: a test-set actual is not strictly positive."""


class DegenerateDesign(ValueError):
    """No usable (non-constant) feature columns."""


# --- features ------------------------------------------------------------

def feature_names(k: int = DEFAULT_TOP_K) -> tuple[str, ...]:
    names = ["site_lat", "site_lon", "site_alt_m"]
    for i in range(1, k + 1):
        names += [f"sat{i}_az", f"sat{i}_el", f"sat{i}_range_km"]
    names += ["term_az", "term_el"]
    names += [f"h{i}" for i in range(1, HISTORY_LAGS + 1)]
    names += ["second_of_day"]
    return tuple(names)


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]
    sat_slot_valid: tuple[bool, ...]
    names: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


# Elements (instants x satellites) of geometry per `look_angles` call: rows
# go through it in blocks, so its temporaries stay small however long the
# trace is.
_GEOMETRY_BLOCK_ELEMENTS = 16384


def _feature_rows(orbital: OrbitalContext, ts_ms: list[int], lags: list,
                  term: list, k: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Feature names, the feature matrix with one row per instant of ts_ms,
    and each row's number of visible satellites.

    lags[i] holds row i's h1..h5 and term[i] its terminal (az, el).
    Satellites fill the slots by descending elevation, ties by name; empty
    slots hold the -1 sentinel.
    """
    names = feature_names(k)
    sat_cols, term_col = 3, 3 + 3 * k
    X = np.empty((len(ts_ms), len(names)))
    X[:, 0] = orbital.site.latitude_deg
    X[:, 1] = orbital.site.longitude_deg
    X[:, 2] = orbital.site.altitude_m
    X[:, sat_cols:term_col] = PAD_SENTINEL
    X[:, term_col:term_col + 2] = np.asarray(term, dtype=float).reshape(-1, 2)
    X[:, term_col + 2:-1] = np.asarray(lags, dtype=float).reshape(-1, HISTORY_LAGS)
    X[:, -1] = [float((t // 1000) % 86400) for t in ts_ms]

    catalog = orbital.catalog
    rank_of = {name: i for i, name in enumerate(sorted({r.name for r in catalog}))}
    name_rank = np.array([rank_of[r.name] for r in catalog], dtype=np.intp)
    times = [datetime.fromtimestamp(t / 1000.0, tz=timezone.utc) for t in ts_ms]
    visible = np.zeros(len(ts_ms), dtype=np.intp)
    block = max(1, _GEOMETRY_BLOCK_ELEMENTS // max(1, len(catalog)))
    for lo in range(0, len(times), block):
        az, el, rng = look_angles(orbital.site, catalog, times[lo:lo + block])
        row, sat = np.nonzero(el >= DEFAULT_ELEVATION_MASK_DEG)
        order = np.lexsort((name_rank[sat], -el[row, sat], row))
        row, sat = row[order], sat[order]
        count = np.bincount(row, minlength=len(el))
        slot = np.arange(len(row)) - (np.cumsum(count) - count)[row]
        kept = slot < k
        row, sat, col = row[kept], sat[kept], sat_cols + 3 * slot[kept]
        for offset, values in enumerate((az, el, rng)):
            X[lo + row, col + offset] = values[row, sat]
        visible[lo:lo + len(el)] = count
    return names, X, visible


def assemble_features(window: TelemetryWindow,
                      orbital: OrbitalContext,
                      now_ms: int,
                      k: int = DEFAULT_TOP_K,
                      metric: str = "latency_ms") -> FeatureVector:
    """Deterministic feature vector for predicting `metric` at now_ms.

    History lags h1..h5 are the metric over the most recent 5 samples
    (h1 newest). Satellites are ordered by descending elevation; absent
    slots hold the -1 sentinel and a False validity flag.
    """
    history = window.last_values(metric, HISTORY_LAGS)
    if len(history) < HISTORY_LAGS:
        raise InsufficientHistory(
            f"need {HISTORY_LAGS} contiguous {metric} values, have {len(history)}")
    latest = window.latest
    names, X, visible = _feature_rows(orbital, [now_ms], [history[::-1]],
                                      [(latest.az_deg, latest.el_deg)], k)
    n_visible = int(visible[0])
    return FeatureVector(tuple(X[0].tolist()), tuple(i < n_visible for i in range(k)), names)


# --- datasets ------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    ts_ms: np.ndarray           # (n,)
    targets: np.ndarray         # (n,)
    features: np.ndarray        # (n, d)
    feature_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.ts_ms)
        if not (len(self.targets) == n and self.features.shape[0] == n):
            raise ValueError("row count mismatch")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature name/column mismatch")
        if n and np.any(np.diff(self.ts_ms) <= 0):
            raise ValueError("dataset must be chronologically ordered")

    def __len__(self) -> int:
        return len(self.ts_ms)

    def column(self, name: str) -> np.ndarray:
        return self.features[:, self.feature_names.index(name)]

    def temporal_split(self, train_frac: float = 19 / 24) -> tuple["Dataset", "Dataset"]:
        """Chronological split; every test timestamp follows all train ones."""
        if not 0.0 < train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")
        cut = int(round(len(self) * train_frac))
        cut = min(max(cut, 1), len(self) - 1)
        take = lambda sl: Dataset(self.ts_ms[sl], self.targets[sl],
                                  self.features[sl], self.feature_names)
        return take(slice(None, cut)), take(slice(cut, None))

    def to_csv(self) -> str:
        header = "ts_ms,target," + ",".join(self.feature_names)
        lines = [header]
        for i in range(len(self)):
            feats = ",".join(f"{v:.10g}" for v in self.features[i])
            lines.append(f"{int(self.ts_ms[i])},{self.targets[i]:.10g},{feats}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        if header[:2] != ["ts_ms", "target"]:
            raise ValueError("dataset CSV must start with ts_ms,target")
        names = tuple(header[2:])
        ts, targets, rows = [], [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            ts.append(int(parts[0]))
            targets.append(float(parts[1]))
            rows.append([float(p) for p in parts[2:]])
        return cls(np.array(ts, dtype=np.int64), np.array(targets),
                   np.array(rows, dtype=float), names)


def dataset_from_trace(samples, orbital: OrbitalContext,
                       k: int = DEFAULT_TOP_K,
                       metric: str = "latency_ms") -> Dataset:
    """Replay a telemetry trace into supervised rows: features at t predict
    the metric observed at t.

    Samples without the metric are skipped. Each sample with it becomes a
    row once five earlier ones have it: h1..h5 are their values, newest
    first, and the terminal orientation is that of the newest of them.
    """
    getter = METRIC_GETTERS[metric]
    history: deque = deque(maxlen=HISTORY_LAGS)
    last = None
    ts, targets, lags, term = [], [], [], []
    for s in samples:
        value = getter(s)
        if value is None:
            continue
        if last is not None and s.ts_ms <= last.ts_ms:
            raise ValueError(f"out-of-order sample: {s.ts_ms} after {last.ts_ms}")
        if len(history) == HISTORY_LAGS:
            ts.append(s.ts_ms)
            targets.append(value)
            lags.append(list(reversed(history)))
            term.append((last.az_deg, last.el_deg))
        history.append(value)
        last = s
    if not ts:
        raise InsufficientHistory("trace too short to build any rows")
    names, X, _ = _feature_rows(orbital, ts, lags, term, k)
    return Dataset(np.array(ts, dtype=np.int64), np.array(targets), X, names)


# --- models --------------------------------------------------------------

class Model:
    kind = "?"

    def predict_row(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _lag_indices(names: tuple[str, ...]) -> list[int]:
    try:
        return [names.index(f"h{i}") for i in range(1, HISTORY_LAGS + 1)]
    except ValueError as exc:
        raise ValueError("dataset has no h1..h5 history columns") from exc


@dataclass
class PersistenceModel(Model):
    kind = "persistence"
    h1_index: int
    feature_names: tuple[str, ...]

    def predict_row(self, x: np.ndarray) -> float:
        return float(x[self.h1_index])

    def to_json(self) -> dict:
        return {"format_version": MODEL_FORMAT_VERSION, "kind": self.kind,
                "h1_index": self.h1_index, "feature_names": list(self.feature_names)}


@dataclass
class HarmonicMeanModel(Model):
    kind = "harmonic_mean"
    lag_indices: tuple[int, ...]
    feature_names: tuple[str, ...]

    def predict_row(self, x: np.ndarray) -> float:
        lags = x[list(self.lag_indices)]
        if np.any(lags <= 0):
            return float(np.mean(lags))  # harmonic mean undefined; fall back
        return float(len(lags) / np.sum(1.0 / lags))

    def to_json(self) -> dict:
        return {"format_version": MODEL_FORMAT_VERSION, "kind": self.kind,
                "lag_indices": list(self.lag_indices),
                "feature_names": list(self.feature_names)}


@dataclass
class RidgeARModel(Model):
    kind = "ridge_ar"
    lag_indices: tuple[int, ...]
    feature_names: tuple[str, ...]
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    beta: np.ndarray  # standardized-space coefficients
    lam: float

    def predict_row(self, x: np.ndarray) -> float:
        lags = np.asarray(x, dtype=float)[list(self.lag_indices)]
        z = (lags - self.x_mean) / self.x_std
        return float(z @ self.beta * self.y_std + self.y_mean)

    @property
    def coefficients(self) -> np.ndarray:
        """Lag coefficients mapped back to the raw scale."""
        return self.beta * self.y_std / self.x_std

    def to_json(self) -> dict:
        return {"format_version": MODEL_FORMAT_VERSION, "kind": self.kind,
                "lag_indices": list(self.lag_indices),
                "feature_names": list(self.feature_names),
                "x_mean": self.x_mean.tolist(), "x_std": self.x_std.tolist(),
                "y_mean": self.y_mean, "y_std": self.y_std,
                "beta": self.beta.tolist(), "lam": self.lam}


def _fit_ridge_ar(dataset: Dataset) -> RidgeARModel:
    idx = _lag_indices(dataset.feature_names)
    X = dataset.features[:, idx]
    y = dataset.targets
    x_mean, x_std = X.mean(axis=0), X.std(axis=0)
    keep = x_std > 0
    if not np.any(keep):
        raise DegenerateDesign("all lag columns constant")
    if not np.all(keep):
        log.warning("dropping %d constant lag columns", int(np.count_nonzero(~keep)))
    x_std_safe = np.where(keep, x_std, 1.0)
    y_mean, y_std = float(y.mean()), float(y.std())
    if y_std == 0:
        y_std = 1.0
    Z = (X - x_mean) / x_std_safe
    Z[:, ~keep] = 0.0
    t = (y - y_mean) / y_std
    d = Z.shape[1]
    beta = np.linalg.solve(Z.T @ Z + RIDGE_LAMBDA * np.eye(d), Z.T @ t)
    beta[~keep] = 0.0
    return RidgeARModel(tuple(idx), dataset.feature_names, x_mean, x_std_safe,
                        y_mean, y_std, beta, RIDGE_LAMBDA)


# --- gradient-boosted trees ---------------------------------------------

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def predict(self, x: np.ndarray) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left.to_json(), "right": self.right.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "TreeNode":
        if "value" in obj:
            return cls(value=float(obj["value"]))
        return cls(feature=int(obj["feature"]), threshold=float(obj["threshold"]),
                   left=cls.from_json(obj["left"]), right=cls.from_json(obj["right"]))


# Elements (columns x node rows) searched per numpy call: few calls per
# node, without (rows x columns) temporaries over every column of a large
# node at once.
_SPLIT_BLOCK_ELEMENTS = 8192


def _best_split(XT: np.ndarray, residuals: np.ndarray, rows: np.ndarray,
                orders: np.ndarray, min_leaf: int):
    """Exact greedy split minimizing squared error over one node; returns
    (feature, threshold, sse_gain) or None.

    XT is the transposed design (features x all rows). `rows` holds the
    node's row indices in ascending order and `orders[f]` the same rows
    stably sorted by feature f.
    """
    n = len(rows)
    if n < max(2, 2 * min_leaf):
        return None
    total_sum = residuals[rows].sum()
    base_sse_term = -(total_sum ** 2) / n
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    out_of_bounds = (left_n < min_leaf) | (right_n < min_leaf)
    row_offsets = np.arange(len(orders))[:, None] * XT.shape[1]
    flat_x = XT.ravel()
    block = max(1, _SPLIT_BLOCK_ELEMENTS // n)
    best = None
    for lo in range(0, len(orders), block):
        order = orders[lo:lo + block]
        xs = flat_x[order + row_offsets[lo:lo + block]]   # xs[j] = XT[lo + j, order[j]]
        csum = np.cumsum(residuals[order], axis=1)[:, :-1]
        # sum^2/n of the two children, higher is better: the negation of
        # -(csum^2)/left_n - (rest^2)/right_n, bit for bit
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.square(csum)
            score /= left_n
            rest = total_sum - csum
            np.square(rest, out=rest)
            rest /= right_n
            score += rest
        invalid = xs[:, :-1] == xs[:, 1:]
        invalid |= out_of_bounds
        np.putmask(score, invalid, -np.inf)
        at = score.argmax(axis=1)
        gains = base_sse_term + score[np.arange(len(at)), at]
        for j in range(len(at)):
            gain = gains[j]
            if gain > 1e-12 and (best is None or gain > best[2]):
                i = at[j]
                best = (lo + j, float((xs[j, i] + xs[j, i + 1]) / 2.0), float(gain))
    return best


def _fit_tree(XT: np.ndarray, residuals: np.ndarray, rows: np.ndarray,
              orders: np.ndarray | None, depth: int, max_depth: int,
              min_leaf: int, fitted: np.ndarray) -> TreeNode:
    """Grow one tree over `rows`; writes each row's leaf value to `fitted`.

    `orders` is None where no split is searched: at max_depth, and on a
    node with fewer rows than two leaves need."""
    node = TreeNode(value=float(residuals[rows].mean()))
    split = None
    if depth < max_depth and orders is not None:
        split = _best_split(XT, residuals, rows, orders, min_leaf)
    if split is None:
        fitted[rows] = node.value
        return node
    f, thr, _ = split
    node.feature, node.threshold = f, thr
    at_rows = XT[f, rows] <= thr
    child_rows = (rows[at_rows], rows[~at_rows])
    child_orders = (None, None)
    if depth + 1 < max_depth:
        # a child's order for a feature is this node's filtered to the
        # child's rows, which is the stable argsort of the child's rows
        goes_left = np.zeros(len(residuals), dtype=bool)
        goes_left[rows] = at_rows
        in_left = goes_left[orders].ravel()
        child_orders = tuple(np.compress(keep, orders).reshape(len(orders), len(r))
                             if len(r) >= max(2, 2 * min_leaf) else None
                             for keep, r in zip((in_left, ~in_left), child_rows))
    node.left, node.right = (_fit_tree(XT, residuals, r, o, depth + 1, max_depth,
                                       min_leaf, fitted)
                             for r, o in zip(child_rows, child_orders))
    return node


def _to_kept_columns(node: TreeNode, searched: np.ndarray) -> None:
    """Renumber the split features of a tree fitted on the searched
    columns to their index among the kept columns."""
    if not node.is_leaf:
        node.feature = int(searched[node.feature])
        _to_kept_columns(node.left, searched)
        _to_kept_columns(node.right, searched)


def _leaf_values(node: TreeNode, X: np.ndarray, rows: np.ndarray,
                 out: np.ndarray) -> None:
    """out[rows] = the value of the leaf each row of X reaches."""
    if node.is_leaf:
        out[rows] = node.value
        return
    goes_left = X[rows, node.feature] <= node.threshold
    _leaf_values(node.left, X, rows[goes_left], out)
    _leaf_values(node.right, X, rows[~goes_left], out)


@dataclass
class GBRTModel(Model):
    kind = "gbrt"
    init_value: float
    learning_rate: float
    trees: list
    feature_names: tuple[str, ...]
    kept_columns: tuple[int, ...]

    def predict_row(self, x: np.ndarray) -> float:
        xk = np.asarray(x, dtype=float)[list(self.kept_columns)]
        out = self.init_value
        for tree in self.trees:
            out += self.learning_rate * tree.predict(xk)
        return out

    def _predict_rows(self, X: np.ndarray) -> np.ndarray:
        """predict_row for every row of X, with the same float operations
        per row: the tree walks run for all rows at once."""
        Xk = np.asarray(X, dtype=float)[:, list(self.kept_columns)]
        rows = np.arange(len(Xk))
        leaf = np.empty(len(Xk))
        out = np.full(len(Xk), self.init_value)
        for tree in self.trees:
            _leaf_values(tree, Xk, rows, leaf)
            out += self.learning_rate * leaf
        return out

    def to_json(self) -> dict:
        return {"format_version": MODEL_FORMAT_VERSION, "kind": self.kind,
                "init_value": self.init_value, "learning_rate": self.learning_rate,
                "kept_columns": list(self.kept_columns),
                "feature_names": list(self.feature_names),
                "trees": [t.to_json() for t in self.trees]}


def _fit_gbrt(dataset: Dataset, n_trees: int = 200, max_depth: int = 3,
              learning_rate: float = 0.1, min_leaf: int = 5) -> GBRTModel:
    if n_trees > 200 or max_depth > 3:
        raise ValueError("ensemble budget: <= 200 trees of depth <= 3")
    X_full = dataset.features
    stds = X_full.std(axis=0)
    kept = np.nonzero(stds > 0)[0]
    if len(kept) == 0:
        raise DegenerateDesign("all feature columns constant")
    if len(kept) < X_full.shape[1]:
        log.warning("dropping %d constant feature columns",
                    X_full.shape[1] - len(kept))
    XT = np.ascontiguousarray(X_full[:, kept].T)
    orders = np.argsort(XT, axis=1, kind="stable")
    # a column whose sorted values are all equal never offers a split
    sorted_x = np.take_along_axis(XT, orders, axis=1)
    searched = np.nonzero((sorted_x[:, :-1] != sorted_x[:, 1:]).any(axis=1))[0]
    XT, orders = XT[searched], orders[searched]
    rows = np.arange(XT.shape[1])
    y = dataset.targets.astype(float)
    init = float(y.mean())
    pred = np.full(len(y), init)
    fitted = np.empty(len(y))
    trees: list[TreeNode] = []
    for _ in range(n_trees):
        residuals = y - pred
        tree = _fit_tree(XT, residuals, rows, orders, 0, max_depth, min_leaf, fitted)
        if tree.is_leaf and abs(tree.value) < 1e-12:
            break
        _to_kept_columns(tree, searched)
        trees.append(tree)
        pred += learning_rate * fitted
    return GBRTModel(init, learning_rate, trees, dataset.feature_names,
                     tuple(int(i) for i in kept))


# --- fit / predict / persistence -----------------------------------------

MODEL_KINDS = ("persistence", "harmonic_mean", "ridge_ar", "gbrt")


def fit(model_kind: str, dataset: Dataset, **hyper) -> Model:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if model_kind == "persistence":
        idx = _lag_indices(dataset.feature_names)
        return PersistenceModel(idx[0], dataset.feature_names)
    if model_kind == "harmonic_mean":
        idx = _lag_indices(dataset.feature_names)
        return HarmonicMeanModel(tuple(idx), dataset.feature_names)
    if model_kind == "ridge_ar":
        return _fit_ridge_ar(dataset, **hyper)
    if model_kind == "gbrt":
        return _fit_gbrt(dataset, **hyper)
    raise ValueError(f"unknown model kind {model_kind!r}; choose from {MODEL_KINDS}")


def predict(model: Model, features) -> float:
    if isinstance(features, FeatureVector):
        features = features.as_array()
    return model.predict_row(np.asarray(features, dtype=float))


def predict_batch(model: Model, dataset: Dataset) -> np.ndarray:
    batch = getattr(model, "_predict_rows", None)
    if batch is not None:
        return batch(dataset.features)
    return np.array([model.predict_row(row) for row in dataset.features])


def save_model(model: Model, path: str) -> None:
    with open(path, "w") as f:
        json.dump(model.to_json(), f, indent=1)


def load_model(path: str) -> Model:
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError(f"model file holds a JSON {type(obj).__name__}, not an object")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    kind = obj["kind"]
    names = tuple(obj["feature_names"])
    if kind == "persistence":
        return PersistenceModel(int(obj["h1_index"]), names)
    if kind == "harmonic_mean":
        return HarmonicMeanModel(tuple(obj["lag_indices"]), names)
    if kind == "ridge_ar":
        return RidgeARModel(tuple(obj["lag_indices"]), names,
                            np.array(obj["x_mean"]), np.array(obj["x_std"]),
                            float(obj["y_mean"]), float(obj["y_std"]),
                            np.array(obj["beta"]), float(obj["lam"]))
    if kind == "gbrt":
        return GBRTModel(float(obj["init_value"]), float(obj["learning_rate"]),
                         [TreeNode.from_json(t) for t in obj["trees"]],
                         names, tuple(obj["kept_columns"]))
    raise ValueError(f"unknown model kind in file: {kind!r}")


# --- evaluation ----------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    mape_pct: float
    rmse: float
    within5_pct: float
    within10_pct: float

    def __post_init__(self):
        if self.within5_pct > self.within10_pct + 1e-9:
            raise ValueError("within5 cannot exceed within10")


def evaluate(model: Model, test: Dataset) -> EvalReport:
    if len(test) == 0:
        raise ValueError("empty test set")
    actual = test.targets
    if np.any(actual <= 0):
        raise ZeroActual("MAPE needs strictly positive actuals")
    pred = predict_batch(model, test)
    rel = np.abs(pred - actual) / actual
    return EvalReport(
        mape_pct=float(rel.mean() * 100.0),
        rmse=float(np.sqrt(np.mean((pred - actual) ** 2))),
        within5_pct=float(np.mean(rel <= 0.05) * 100.0),
        within10_pct=float(np.mean(rel <= 0.10) * 100.0),
    )
