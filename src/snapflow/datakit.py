"""Snapshot datasets: CSV ingestion, count preprocessing (library-size
normalization, log1p, HVG selection), holdout splitting, seeded synthetic
benchmark generators, and the JSON and record-CSV writers of run outputs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np


class CsvParseError(ValueError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class SnapshotDataset:
    """Ordered timepoints, each with an unordered matrix of cell vectors.

    Rows within a timepoint are kept in canonical (lexicographic) order so
    loading is independent of file row order.
    """

    times: np.ndarray
    matrices: list
    gene_names: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.times) != len(self.matrices):
            raise ValueError("times and matrices length mismatch")
        if len(self.times) and not np.all(np.diff(self.times) > 0):
            raise ValueError("timepoints must be strictly increasing")
        G = len(self.gene_names)
        for t, M in zip(self.times, self.matrices):
            if M.ndim != 2 or M.shape[1] != G:
                raise ValueError(f"matrix at t={t} has shape {M.shape}, expected (*, {G})")
            if M.shape[0] < 1:
                raise ValueError(f"timepoint t={t} has no cells")
            if not np.isfinite(M).all():
                raise ValueError(f"matrix at t={t} contains non-finite values")

    @property
    def n_timepoints(self):
        return len(self.times)

    @property
    def gene_dim(self):
        return len(self.gene_names)

    def matrix_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"no timepoint at t={t}")
        return self.matrices[idx]

    def total_cells(self):
        return int(sum(M.shape[0] for M in self.matrices))


def _canonical_rows(M):
    order = np.lexsort(M.T[::-1])
    return M[order]


def load_csv(path):
    """Read "time,gene_1,...,gene_G" rows into a SnapshotDataset.

    Rows are grouped by the time column (duplicate-time groups merge), times
    sorted, rows canonically ordered within each group. Malformed content
    raises CsvParseError with the 1-based line number.
    """
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file")
        if len(header) < 2 or header[0].strip() != "time":
            raise CsvParseError(1, f"expected header 'time,gene_1,...', got {header[:3]}")
        gene_names = [h.strip() for h in header[1:]]
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise CsvParseError(lineno, f"expected {width} fields, got {len(row)}")
            try:
                vals = [float(x) for x in row]
            except ValueError as e:
                raise CsvParseError(lineno, str(e))
            groups.setdefault(vals[0], []).append(vals[1:])
    if not groups:
        raise CsvParseError(2, "no data rows")
    times = sorted(groups)
    matrices = [_canonical_rows(np.array(groups[t], dtype=np.float64)) for t in times]
    return SnapshotDataset(times=np.array(times), matrices=matrices,
                           gene_names=gene_names,
                           provenance={"source": str(path)})


def save_csv(ds, path):
    """Inverse of load_csv; floats are written with full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + list(ds.gene_names))
        for t, M in zip(ds.times, ds.matrices):
            for row in M:
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def write_records_csv(path, columns, records):
    """One CSV row per dict record, in column order: floats by repr (exact
    round trip), a missing or None value as an empty cell."""
    def cell(v):
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(columns)]
    lines += [",".join(cell(rec.get(c)) for c in columns) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_atomic(path, blob):
    """Indented, key-sorted JSON, written to a temporary file and renamed
    into place so a reader never sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def preprocess(ds, target_hvg):
    """Library-size normalize to the median, log1p, keep the top variance genes.

    Expects raw nonnegative counts; all-zero cells are an error. Gene
    variance is computed on the log-normalized matrix pooled across all
    timepoints; selected genes are ordered by decreasing variance and the
    choice is recorded in provenance.
    """
    if not 1 <= target_hvg <= ds.gene_dim:
        raise ValueError(f"target_hvg must be in [1, {ds.gene_dim}], got {target_hvg}")
    for t, M in zip(ds.times, ds.matrices):
        if (M < 0).any():
            raise ValueError(f"negative counts at t={t}; preprocess expects raw counts")
        zero_cells = np.where(M.sum(axis=1) == 0)[0]
        if zero_cells.size:
            raise ValueError(f"all-zero cell at t={t}, row {int(zero_cells[0])}")
    libs = np.concatenate([M.sum(axis=1) for M in ds.matrices])
    median_lib = float(np.median(libs))
    logged = [np.log1p(M * (median_lib / M.sum(axis=1, keepdims=True)))
              for M in ds.matrices]
    pooled = np.concatenate(logged, axis=0)
    variances = pooled.var(axis=0)
    order = np.argsort(-variances, kind="stable")[:target_hvg]
    matrices = [L[:, order] for L in logged]
    gene_names = [ds.gene_names[i] for i in order]
    prov = dict(ds.provenance)
    prov["preprocess"] = {
        "library_size": "median",
        "median_library": median_lib,
        "log1p": True,
        "hvg_method": "variance",
        "target_hvg": int(target_hvg),
        "selected_genes": gene_names,
    }
    return SnapshotDataset(times=ds.times.copy(), matrices=matrices,
                           gene_names=gene_names, provenance=prov)


# ---------------------------------------------------------------------------
# holdout splits
# ---------------------------------------------------------------------------

@dataclass
class HoldoutSplit:
    """Which timepoints were withheld, with their ground-truth matrices."""

    train_times: np.ndarray
    interp_times: np.ndarray
    extrap_times: np.ndarray
    truth: dict = field(default_factory=dict)

    @property
    def mode(self):
        has_i, has_e = len(self.interp_times) > 0, len(self.extrap_times) > 0
        if has_i and has_e:
            return "mixed"
        if has_e:
            return "extrap"
        return "interp" if has_i else "none"

    def to_json(self, path):
        write_json_atomic(path, {"interp": list(map(float, self.interp_times)),
                                 "extrap": list(map(float, self.extrap_times))})

    @staticmethod
    def request_from_json(path):
        """Read an {interp: [...], extrap: [...]} request file."""
        with open(path) as fh:
            blob = json.load(fh)
        unknown = set(blob) - {"interp", "extrap"}
        if unknown:
            raise ValueError(f"unknown keys in split file: {sorted(unknown)}")
        return blob.get("interp", []), blob.get("extrap", [])


def split_holdout(ds, interp_times, extrap_times):
    """Withhold the requested timepoints; returns (training dataset, split).

    Every interpolation holdout must be bracketed by remaining training
    times, every extrapolation holdout must lie beyond all of them, and at
    least two training timepoints must remain.
    """
    interp = np.asarray(sorted(interp_times), dtype=np.float64)
    extrap = np.asarray(sorted(extrap_times), dtype=np.float64)
    all_holdout = np.concatenate([interp, extrap])
    if len(np.unique(all_holdout)) != len(all_holdout):
        raise ValueError("holdout lists overlap")
    for t in all_holdout:
        if not np.any(np.isclose(ds.times, t, atol=1e-9)):
            raise ValueError(f"requested holdout t={t} not present in dataset")
    keep = [i for i, t in enumerate(ds.times)
            if not np.any(np.isclose(all_holdout, t, atol=1e-9))]
    train_times = ds.times[keep]
    if len(train_times) < 2:
        raise ValueError("training set must retain at least 2 timepoints")
    for t in interp:
        if not (train_times.min() < t < train_times.max()):
            raise ValueError(f"interpolation holdout t={t} is not bracketed by training times")
    for t in extrap:
        if not (t > train_times.max()):
            raise ValueError(f"extrapolation holdout t={t} has a later training time")
    train = SnapshotDataset(times=train_times,
                            matrices=[ds.matrices[i] for i in keep],
                            gene_names=list(ds.gene_names),
                            provenance=dict(ds.provenance))
    truth = {float(t): ds.matrix_at(t) for t in all_holdout}
    split = HoldoutSplit(train_times=train_times.copy(), interp_times=interp,
                         extrap_times=extrap, truth=truth)
    return train, split


# ---------------------------------------------------------------------------
# synthetic benchmarks
# ---------------------------------------------------------------------------

VALID_KINDS = ("drift-gaussian", "bifurcation", "rotation")


@dataclass
class SyntheticSpec:
    """Parameters of a seeded synthetic snapshot generator.

    Intrinsic dynamics run in ``dim`` dimensions and are lifted to ``genes``
    ambient dimensions through a fixed random orthonormal map when
    genes > dim.
    """

    kind: str = "drift-gaussian"
    dim: int = 2
    genes: int = 2
    timepoints: int = 8
    cells: int = 300
    noise: float = 0.1
    lift_noise: float = 0.05
    drift: float = 1.0
    split_time: float = 2.5
    branch_rate: float = 1.2
    omega: float = 0.6
    radius: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; choose from {VALID_KINDS}")
        if min(self.dim, self.genes, self.timepoints, self.cells) < 1:
            raise ValueError("dim, genes, timepoints, and cells must be positive")
        if self.genes < self.dim:
            raise ValueError("genes must be >= dim")
        if self.noise < 0 or self.lift_noise < 0:
            raise ValueError("noise scales must be nonnegative")
        if self.kind in ("bifurcation", "rotation") and self.dim < 2:
            raise ValueError(f"{self.kind} generator needs dim >= 2")

    @staticmethod
    def from_json(path):
        with open(path) as fh:
            blob = json.load(fh)
        valid = set(SyntheticSpec.__dataclass_fields__)
        unknown = set(blob) - valid
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        return SyntheticSpec(**blob)


def _intrinsic_mean(spec, t):
    if spec.kind == "drift-gaussian":
        return np.full(spec.dim, spec.drift * t)
    if spec.kind == "rotation":
        mean = np.zeros(spec.dim)
        mean[0] = spec.radius * np.cos(spec.omega * t)
        mean[1] = spec.radius * np.sin(spec.omega * t)
        return mean
    raise AssertionError(spec.kind)


def synth_generate(spec):
    """Sample a SnapshotDataset from the generator; identical specs give
    identical matrices. Ground-truth parameters (means, branch axis, lift
    map) land in provenance for oracle checks.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.genes > spec.dim:
        raw = rng.normal(size=(spec.genes, spec.dim))
        lift, _ = np.linalg.qr(raw)
        lift *= np.sign(lift[0])   # deterministic sign convention
    else:
        lift = np.eye(spec.dim)
    times = np.arange(spec.timepoints, dtype=np.float64)
    matrices = []
    intrinsic_means = []
    branch_flags = []
    for t in times:
        if spec.kind == "bifurcation":
            base = np.zeros(spec.dim)
            base[0] = spec.drift * t
            offset = spec.branch_rate * max(0.0, t - spec.split_time)
            sides = rng.integers(0, 2, size=spec.cells) * 2 - 1
            Y = base + spec.noise * rng.normal(size=(spec.cells, spec.dim))
            Y[:, 1] += sides * offset
            intrinsic_means.append(base.tolist())
            branch_flags.append(float(offset))
        else:
            mean = _intrinsic_mean(spec, t)
            Y = mean + spec.noise * rng.normal(size=(spec.cells, spec.dim))
            intrinsic_means.append(mean.tolist())
        X = Y @ lift.T
        if spec.lift_noise > 0:
            X = X + spec.lift_noise * rng.normal(size=X.shape)
        matrices.append(_canonical_rows(X))
    gene_names = [f"gene_{i + 1}" for i in range(spec.genes)]
    provenance = {
        "generator": {
            "spec": asdict(spec),
            "intrinsic_means": intrinsic_means,
            "lift": lift.tolist(),
        },
    }
    if spec.kind == "bifurcation":
        provenance["generator"]["branch_axis"] = lift[:, 1].tolist()
        provenance["generator"]["branch_offsets"] = branch_flags
    return SnapshotDataset(times=times, matrices=matrices,
                           gene_names=gene_names, provenance=provenance)
