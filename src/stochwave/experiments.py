"""Config-driven experiment runner: presets, validation, CSV and manifest output.

An experiment bundles a problem definition (drift, diffusion, initial data,
scheme) with one or more studies: convergence-rate ladders, stability series,
or the analytic linear check.  Results are written as CSV tables whose header
comments carry the manifest hash, so a rerun with the same resolved config
reproduces files byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffusion import Diffusion
from .drift import MODIFIED_CN, SCHEMES, PolynomialDrift
from .ensemble import (
    EnsembleStats,
    ProblemSpec,
    StabilityStudy,
    ladder_problems,
    run_ensemble,
    steps_for,
    subset_fraction,
)
from .fields import (
    Constant,
    CosineProduct,
    TentBump,
)
from .metrics import (
    AnalyticStudy,
    ErrorTable,
    RateStudy,
    analytic_error_table,
    analytic_problems,
    convergence_table,
)

__all__ = [
    "RateStudy",
    "StabilityStudy",
    "AnalyticStudy",
    "ExperimentConfig",
    "ExperimentResult",
    "PRESETS",
    "preset_config",
    "config_from_dict",
    "config_to_dict",
    "validate_config",
    "run_experiment",
]

@dataclass
class ExperimentConfig:
    name: str = "custom"
    dimension: int = 1
    drift: PolynomialDrift = PolynomialDrift()
    diffusion: Diffusion = Diffusion()
    h1: Constant | CosineProduct | TentBump = Constant()
    h2: Constant | CosineProduct | TentBump = Constant()
    studies: list[RateStudy | StabilityStudy | AnalyticStudy] = field(default_factory=list)
    degree: int = 1
    scheme: str = MODIFIED_CN
    n_samples: int = 200
    master_seed: int = 20240901
    threads: int = 1
    # a Newton tolerance near the attainable floor, so the recorded per-step
    # energy residuals measure the scheme, not the solver
    newton_abs_tol: float = 1e-13

    def problem(self) -> ProblemSpec:
        """The problem every study of this experiment solves."""
        return ProblemSpec(
            dimension=self.dimension,
            degree=self.degree,
            drift=self.drift,
            diffusion=self.diffusion,
            h1=self.h1,
            h2=self.h2,
            master_seed=self.master_seed,
            scheme=self.scheme,
            newton_abs_tol=self.newton_abs_tol,
        )


# ---------------------------------------------------------------------------
# Serialization: one walk over the dataclass fields and their annotations
# ---------------------------------------------------------------------------

# The "kind" tag of each class a union annotation may hold.  A zero Constant
# is written {"kind": "zero"}, a tag that takes no other field.
_TAGS = {
    RateStudy: "rates", StabilityStudy: "stability", AnalyticStudy: "analytic",
    Constant: "constant", CosineProduct: "cosine", TentBump: "tent",
}
# The kinds of study an experiment runs.
_STUDIES = (RateStudy, StabilityStudy, AnalyticStudy)
# The drift's lam is written "lambda", and "lam" is read as an alias.
_RENAMED = {(PolynomialDrift, "lam"): "lambda"}
# threads is an execution detail: results are independent of it, so it stays
# out of the written config and the manifest hash.
_UNWRITTEN = {(ExperimentConfig, "threads")}
# the exact JSON types of a scalar annotation: a bool is no int, a float may be an int
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _expected(path: str, annotation: str, value) -> ValueError:
    return ValueError(f"{path or 'config'}: expected {annotation}, got {value!r}")


def _dump(value):
    """The JSON form of a config value."""
    if isinstance(value, Constant) and value.value == 0.0:
        return {"kind": "zero"}
    if isinstance(value, (list, tuple)):
        return [_dump(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    cls = type(value)
    out = {"kind": _TAGS[cls]} if cls in _TAGS else {}
    for f in dataclasses.fields(cls):
        if (cls, f.name) not in _UNWRITTEN:
            out[_RENAMED.get((cls, f.name), f.name)] = _dump(getattr(value, f.name))
    return out


def _load(value, annotation, path: str):
    """A JSON value read as ``annotation``: type-checked, never coerced."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        kinds = {tag: cls for cls, tag in _TAGS.items() if cls in args}
        if not kinds:  # X | None
            return _load(value, args[0], path)
        if not isinstance(value, dict):
            raise _expected(path, "object", value)
        if Constant in args:
            kinds["zero"] = Constant
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise _expected(_key(path, "kind"), f"one of {sorted(kinds)}", kind)
        rest = {k: v for k, v in value.items() if k != "kind"}
        return _load_object(rest, kinds[kind], path, () if kind == "zero" else None)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _expected(path, "list", value)
        return origin(_load(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(annotation):
        return _load_object(value, annotation, path)
    if type(value) in _JSON_TYPES[annotation]:
        if annotation is float and not abs(value) <= sys.float_info.max:  # NaN, 1e400, 10**400
            raise _expected(path, "finite float", value)
        return value
    raise _expected(path, annotation.__name__, value)


def _load_object(d, cls, path: str, names=None):
    """A ``cls`` read from the JSON object ``d``; ``names`` limits the fields it may set."""
    if not isinstance(d, dict):
        raise _expected(path, "object", d)
    fields = [f for f in dataclasses.fields(cls) if names is None or f.name in names]
    keys = {f.name: [_RENAMED.get((cls, f.name), f.name), f.name] for f in fields}
    unknown = sorted(set(d).difference(*keys.values()))
    if unknown:
        raise ValueError("; ".join(f"{_key(path, k)}: unknown field" for k in unknown))
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        key = next((k for k in keys[f.name] if k in d), None)
        if key is not None:
            kwargs[f.name] = _load(d[key], hints[f.name], _key(path, key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{_key(path, f.name)}: missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path or 'config'}: {exc}") from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _dump(cfg)


def config_from_dict(d: dict) -> ExperimentConfig:
    return _load_object(d, ExperimentConfig, "")


def manifest_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_config(cfg: ExperimentConfig) -> list[str]:
    """All violations with field paths; empty list means the config is runnable."""
    errors: list[str] = []
    if cfg.dimension not in (1, 2):
        errors.append(f"dimension: must be 1 or 2, got {cfg.dimension}")
    if cfg.degree not in (1, 2):
        errors.append(f"degree: must be 1 or 2, got {cfg.degree}")
    if cfg.scheme not in SCHEMES:
        errors.append(f"scheme: must be one of {SCHEMES}, got {cfg.scheme!r}")
    if not (math.isfinite(cfg.newton_abs_tol) and cfg.newton_abs_tol > 0):
        errors.append(f"newton_abs_tol: must be finite and > 0, got {cfg.newton_abs_tol}")
    if cfg.master_seed < 0:
        errors.append(f"master_seed: must be >= 0, got {cfg.master_seed}")
    if cfg.threads < 1:
        errors.append(f"threads: must be >= 1, got {cfg.threads}")
    if cfg.n_samples < 1:
        errors.append(f"n_samples: must be >= 1, got {cfg.n_samples}")
    errors.extend(f"drift: {v}" for v in cfg.drift.validate(cfg.scheme))
    if not cfg.studies:
        errors.append("studies: at least one study is required")
    for i, s in enumerate(cfg.studies):
        p = f"studies[{i}]"
        if isinstance(s, RateStudy):
            ladder = ladder_problems(s.mode, s.levels, s.taus, s.reference_extra_levels)
            taus = s.taus
        elif isinstance(s, StabilityStudy):
            ladder = [] if s.level >= 1 else [f"level: must be >= 1, got {s.level}"]
            if s.kappa is not None and not s.kappa >= 0:
                errors.append(f"{p}.kappa: must be >= 0")
            taus = [s.tau]
        elif isinstance(s, AnalyticStudy):
            ladder = ladder_problems("spatial", s.levels, [s.tau])
            errors.extend(f"{p}: {msg}" for msg in analytic_problems(cfg.problem()))
            taus = [s.tau]
        else:
            kind = type(s).__name__
            errors.append(f"{p}: expected a rate, stability or analytic study, got {kind}")
            continue
        errors.extend(f"{p}.{msg}" for msg in ladder)
        for t in taus:
            try:
                steps_for(s.T, t)
            except ValueError as exc:
                errors.append(f"{p}: {exc}")
    errors.extend(_output_problems(cfg))
    return errors


def _csv_names(name: str, study) -> list[str]:
    """The CSV files a study writes: ``<name>_<label>.csv``, and for a
    stability study with a companion ``<name>_<label>_deterministic.csv``."""
    companion = isinstance(study, StabilityStudy) and study.deterministic_companion
    suffixes = ["", "_deterministic"] if companion else [""]
    return [f"{name}_{study.label}{x}.csv" for x in suffixes]


def _output_problems(cfg: ExperimentConfig) -> list[str]:
    """Names that are no plain file name part, and CSV files two studies would write."""
    errors = []
    studies = [(i, s) for i, s in enumerate(cfg.studies) if isinstance(s, _STUDIES)]
    labels = [(f"studies[{i}].label", s.label) for i, s in studies]
    for path, part in [("name", cfg.name), *labels]:
        if not part or "/" in part or "\\" in part:
            errors.append(f"{path}: must be non-empty, with no '/' or '\\', got {part!r}")
    writer: dict[str, int] = {}
    for i, s in studies:
        for name in _csv_names(cfg.name, s):
            j = writer.setdefault(name, i)
            if j != i:
                errors.append(f"studies[{i}].label: {name} is also written by studies[{j}]")
    return errors


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
_DEG7 = PolynomialDrift([-1.0] + [0.0] * 5 + [-1.0], alpha=1.0, lam=0.25)
_DEG11 = PolynomialDrift([-1.0] + [0.0] * 9 + [-1.0], alpha=1.0, lam=1.0 / 6.0)
_ZERO_DRIFT = PolynomialDrift([0.0], alpha=0.0, lam=0.0)


def _rate_preset(name, drift, diffusion, paper):
    return ExperimentConfig(
        name=name,
        dimension=1,
        drift=drift,
        diffusion=diffusion,
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=5000 if paper else 200,
        studies=[
            RateStudy(
                mode="spatial",
                levels=[4, 8, 16, 32, 64],
                taus=[1e-3],
                T=0.01,
                reference_extra_levels=1,
                label="spatial_rates",
            ),
            RateStudy(
                mode="temporal",
                levels=[128],
                taus=[0.1 / 2**k for k in range(6)],
                T=0.4,
                reference_extra_levels=2,
                label="temporal_rates",
            ),
        ],
    )


def _test2_preset(paper):
    spatial_levels = [16, 32, 64, 128, 256] if paper else [16, 32, 64, 128]
    temporal_level = 512 if paper else 128
    temporal_taus = [0.1 / 2**k for k in range(3, 8 if paper else 7)]
    return ExperimentConfig(
        name="test2",
        dimension=1,
        drift=_CUBIC,
        diffusion=Diffusion.linear(1.0),
        h1=Constant(0.0),
        h2=TentBump(center=0.5, slope=4.0),
        n_samples=5000 if paper else 200,
        studies=[
            RateStudy(
                mode="spatial",
                levels=spatial_levels,
                taus=[5e-3],
                T=0.05,
                reference_extra_levels=1,
                label="spatial_rates",
            ),
            RateStudy(
                mode="temporal",
                levels=[temporal_level],
                taus=temporal_taus,
                T=1.0,
                reference_extra_levels=2,
                label="temporal_rates",
            ),
        ],
    )


def _test3_preset(name, drift, diffusion, paper):
    return ExperimentConfig(
        name=name,
        dimension=2,
        drift=drift,
        diffusion=diffusion,
        h1=CosineProduct(kx=1, ky=2),
        h2=Constant(0.0),
        n_samples=5000 if paper else 200,
        studies=[
            StabilityStudy(
                level=16 if paper else 8,
                tau=0.01,
                T=1.0,
                kappa=None,
                deterministic_companion=True,
            )
        ],
    )


def _lin_det_preset(paper):
    return ExperimentConfig(
        name="lin-det-check",
        dimension=1,
        drift=_ZERO_DRIFT,
        diffusion=Diffusion.zero(),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=1,
        studies=[AnalyticStudy(levels=[8, 16, 32, 64], tau=1e-4, T=0.5)],
    )


PRESETS = {
    "test1a": lambda paper: _rate_preset("test1a", _CUBIC, Diffusion.linear(1.0), paper),
    "test1b": lambda paper: _rate_preset("test1b", _DEG11, Diffusion.linear(1.0), paper),
    "test1c": lambda paper: _rate_preset(
        "test1c", _CUBIC, Diffusion.smoothed_abs(0.01), paper
    ),
    "test2": _test2_preset,
    "test3a": lambda paper: _test3_preset("test3a", _CUBIC, Diffusion.linear(1.0), paper),
    "test3b": lambda paper: _test3_preset("test3b", _DEG7, Diffusion.linear(1.0), paper),
    "test3c": lambda paper: _test3_preset(
        "test3c", _CUBIC, Diffusion.smoothed_abs(1.0), paper
    ),
    "lin-det-check": _lin_det_preset,
}


def preset_config(name: str, paper_scale: bool = False) -> ExperimentConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](paper_scale)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    out_dir: Path
    manifest_path: Path
    files: list[str]  # every CSV written, in study order
    max_energy_violation: float
    worst_files: list[str]  # the CSVs of the study with that worst residual
    n_failures: int


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _fmt_order(x: float | None) -> str:
    return "" if x is None else f"{x:.4f}"


def write_csv(path: Path, lines: list[str], columns: dict[str, typing.Sequence]) -> None:
    """The comment ``lines``, a header row of the column names, then one row
    per entry.  A ``*_order`` column prints 4 decimals (blank for None),
    every other column 13 significant digits."""
    fmts = [_fmt_order if name.endswith("_order") else _fmt for name in columns]
    rows = zip(*columns.values(), strict=True)
    body = [",".join(columns)] + [",".join(f(x) for f, x in zip(fmts, row)) for row in rows]
    path.write_text("\n".join(lines + body) + "\n")


def _samples_line(run: ErrorTable | EnsembleStats) -> str:
    """The header line of the paths a CSV's numbers come from, failed ones
    included: the config's count, or 1 for a single deterministic path."""
    return f"# samples: {run.n_samples + run.n_failures}"


def _rate_csvs(problem: ProblemSpec, study: RateStudy | AnalyticStudy, cfg: ExperimentConfig):
    """The study's error table and its one CSV: header lines and named columns."""
    if isinstance(study, RateStudy):
        table = convergence_table(problem, study, cfg.n_samples, cfg.threads)
    else:
        table = analytic_error_table(problem, study)
    columns = {"param": table.params}
    for name in ("l2", "h1", "dtl2"):
        columns[name] = getattr(table, name)
        columns[f"{name}_order"] = table.orders(columns[name])
    lines = [_samples_line(table), f"# mode: {table.mode}", f"# reference: {table.reference}"]
    return table, [(lines, columns)]


# the EnsembleStats series a stability CSV prints, in column order
_STABILITY_COLUMNS = (
    "mean_l2sq", "min_l2sq", "max_l2sq", "mean_h1sq", "min_h1sq", "max_h1sq",
    "mean_dtl2sq", "min_dtl2sq", "max_dtl2sq", "mean_H", "mean_H2", "mean_H4",
)


def _stability_csvs(problem: ProblemSpec, study: StabilityStudy, cfg: ExperimentConfig):
    """The ensemble's statistics and its CSVs, then the zero-noise companion's.

    Both print the fraction of samples whose running H1 norm stays within
    kappa, by default the 90th percentile of the ensemble's per-sample maxima.
    """
    runs = [run_ensemble(problem, study, cfg.n_samples, cfg.threads)]
    if study.deterministic_companion:
        zero_noise = dataclasses.replace(problem, diffusion=Diffusion.zero())
        runs.append(run_ensemble(zero_noise, study, 1, 1))
    h1_full = [run.sample_l2sq + run.sample_h1sq for run in runs]
    kappa = study.kappa
    if kappa is None:
        kappa = float(np.percentile(h1_full[0].max(axis=1), 90.0))
    csvs = []
    for run, h1 in zip(runs, h1_full):
        columns = {"t": run.times, **{c: getattr(run, c) for c in _STABILITY_COLUMNS}}
        columns["subset_fraction"] = subset_fraction(h1, kappa)
        csvs.append(([_samples_line(run), f"# kappa: {_fmt(kappa)}"], columns))
    return runs[0], csvs


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Execute every study and write CSVs plus the manifest."""
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid config:\n" + "\n".join(problems))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mhash = manifest_hash(cfg)
    header = [
        f"# manifest_hash: {mhash}",
        f"# experiment: {cfg.name}",
        f"# seed: {cfg.master_seed}",
    ]

    problem = cfg.problem()
    files: list[str] = []
    violation = -np.inf
    worst: list[str] = []
    failures = 0
    for study in cfg.studies:
        names = _csv_names(cfg.name, study)
        run_study = _stability_csvs if isinstance(study, StabilityStudy) else _rate_csvs
        run, csvs = run_study(problem, study, cfg)
        for name, (lines, columns) in zip(names, csvs, strict=True):
            write_csv(out / name, header + lines, columns)
        files += names
        if run.max_energy_violation > violation:
            violation, worst = run.max_energy_violation, names
        failures += run.n_failures

    manifest = {
        "config": config_to_dict(cfg),
        "manifest_hash": mhash,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "stochwave": _package_version(),
        },
        "outputs": files,
        "newton_failures": failures,
    }
    manifest_path = out / f"{cfg.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(
        out_dir=out,
        manifest_path=manifest_path,
        files=files,
        max_energy_violation=float(violation),
        worst_files=worst,
        n_failures=failures,
    )


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("stochwave")
    except Exception:
        return "unknown"
