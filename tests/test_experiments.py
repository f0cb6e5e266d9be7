import json
from pathlib import Path

import numpy as np
import pytest

from stochwave.cli import main
from stochwave.diffusion import Diffusion
from stochwave.drift import SCHEMES, PolynomialDrift
from stochwave.experiments import (
    AnalyticStudy,
    ExperimentConfig,
    PRESETS,
    RateStudy,
    StabilityStudy,
    config_from_dict,
    config_to_dict,
    manifest_hash,
    preset_config,
    run_experiment,
    validate_config,
)
from stochwave.fields import Constant, CosineProduct, TentBump


def _tiny_rate_config(threads=1, seed=77):
    return ExperimentConfig(
        name="tiny",
        dimension=1,
        drift=PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5),
        diffusion=Diffusion.linear(1.0),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=6,
        master_seed=seed,
        threads=threads,
        studies=[
            RateStudy(
                mode="spatial", levels=[4, 8], taus=[0.01], T=0.05,
                reference_extra_levels=1, label="spatial_rates",
            ),
            StabilityStudy(level=4, tau=0.02, T=0.1, label="stability"),
        ],
    )


def _analytic_config(levels=(4, 8), **overrides):
    kwargs = dict(
        name="lincheck",
        dimension=1,
        drift=PolynomialDrift([0.0]),
        diffusion=Diffusion.zero(),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=1,
        studies=[AnalyticStudy(levels=list(levels), tau=1e-3, T=0.05)],
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _with_study(study):
    cfg = _tiny_rate_config()
    cfg.studies = [study]
    return cfg


# ---------------------------------------------------------------------------
# Presets and config plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_validate(name):
    for paper in (False, True):
        cfg = preset_config(name, paper_scale=paper)
        assert validate_config(cfg) == []
        assert cfg.n_samples == (5000 if paper and name != "lin-det-check" else cfg.n_samples)


@pytest.mark.parametrize(
    "drift",
    [
        PolynomialDrift([np.nan, 0.0, -1.0], alpha=1.0, lam=0.5),
        PolynomialDrift([-1.0, 0.0, -1.0], alpha=np.nan, lam=0.5),
    ],
    ids=["coeff-nan", "alpha-nan"],
)
def test_validate_config_reports_non_finite_drift(drift):
    cfg = _tiny_rate_config()
    cfg.drift = drift
    assert [e for e in validate_config(cfg) if e.startswith("drift: ")] == [
        f"drift: {drift.validate(cfg.scheme)[0]}"
    ]


def test_drift_faults_are_reported_beside_an_invalid_sample_count():
    cfg = _tiny_rate_config()
    cfg.n_samples = 0
    cfg.drift = PolynomialDrift([1.0, 1.0])
    problems = validate_config(cfg)
    assert "n_samples: must be >= 1, got 0" in problems
    assert "drift: drift polynomial degree must be odd, got q=2" in problems


def test_unknown_scheme_is_reported_once():
    cfg = _tiny_rate_config()
    cfg.scheme = "foo"
    assert [p for p in validate_config(cfg) if "scheme" in p] == [
        f"scheme: must be one of {SCHEMES}, got 'foo'"
    ]


def test_preset_paper_scale_sample_count():
    assert preset_config("test1a").n_samples == 200
    assert preset_config("test1a", paper_scale=True).n_samples == 5000


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset_config("test9z")


def test_config_dict_roundtrip():
    cfg = _tiny_rate_config()
    d = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(d)))
    assert config_to_dict(back) == d
    assert manifest_hash(back) == manifest_hash(cfg)


# (desk scale, paper scale) manifest hashes of each preset: a dumper that moves
# one byte of the canonical config changes them
PRESET_HASHES = {
    "lin-det-check": (
        "b37dcbf1a0753b98129e988d9c41cd57b97316f44493a4debe1a39ba40eb04a2",
        "b37dcbf1a0753b98129e988d9c41cd57b97316f44493a4debe1a39ba40eb04a2",
    ),
    "test1a": (
        "870a889e83a10a8129da28e040a1874fe6988dba537cd574e2522c71505473f5",
        "18a9c774452cf3f604fe4aff0aa3b05ebd2b9e7a189231d8a5c0d70dc6eacd3d",
    ),
    "test1b": (
        "f987a27c61b7769c7fff49ab8b92ea779f6e61d059cc0e084a3bcf4e72adb9e2",
        "83c963d2425639185233f3c3c2be4a198ba65acb59078ca51d7d161cdab0981b",
    ),
    "test1c": (
        "6a144cea03b8f1fee7814aced6789a57834e4d600563701e388c61064acf8b71",
        "6b6d88f4cf730bb6fe78e35a214e42043783d8c35cd709a9f22f9e17a8dca18b",
    ),
    "test2": (
        "c1445eb1606b333926f4094165181209bb33add037769632fbd1e318b872521c",
        "302c35498993d08f9d756f45a275815e4ef0cc5b5d9ac7f95a098c6c1f765a5c",
    ),
    "test3a": (
        "5fca4b7f89937a7739115f9a9263d097cced46a64ec931901d979449a19e041f",
        "36626e14f041c81351e55d2f6a052377e9bc159e4fe70b0610f528890c65c6b5",
    ),
    "test3b": (
        "82f96d177c0a48b1ae8fb4f3b9d9362cdced857e0a9c684cab20a4f507b9d833",
        "21268fb1b5b45b5d66de6369a4bc688a8774cc5c1d402e30c644bc1a7592594a",
    ),
    "test3c": (
        "abbced380ba3d3a0280f19f5854827f5c4a9800cfa7491194ffcc2c2ad1dff9e",
        "6364e5fc99e4efa53014e6881be7c7103d55f92cdb3827c80c3df6ae59bebf59",
    ),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_configs_are_pinned(name):
    for paper, want in zip((False, True), PRESET_HASHES[name]):
        cfg = preset_config(name, paper_scale=paper)
        assert manifest_hash(cfg) == want
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_readme_config_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("### Config files", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(example))
    assert validate_config(cfg) == []
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert back == cfg and manifest_hash(back) == manifest_hash(cfg)


def test_config_accepts_threads_and_the_lam_alias():
    cfg = _tiny_rate_config(threads=2)
    d = config_to_dict(cfg)
    d["threads"] = 2
    d["drift"]["lam"] = d["drift"].pop("lambda")
    back = config_from_dict(d)
    assert back.threads == 2 and back.drift == cfg.drift
    assert manifest_hash(back) == manifest_hash(cfg)


def test_validation_even_degree_drift():
    cfg = _tiny_rate_config()
    cfg.drift = PolynomialDrift([-1.0, -1.0], alpha=1.0, lam=0.5)
    problems = validate_config(cfg)
    assert any("odd" in p and p.startswith("drift:") for p in problems)


def test_validation_bad_ladder():
    cfg = _tiny_rate_config()
    cfg.studies[0].levels = [4, 12]
    problems = validate_config(cfg)
    assert any("studies[0]" in p for p in problems)


def test_validation_non_integral_steps():
    cfg = _tiny_rate_config()
    cfg.studies[1].tau = 0.03
    problems = validate_config(cfg)
    assert any("integer multiple" in p for p in problems)


# ---------------------------------------------------------------------------
# Runner outputs
# ---------------------------------------------------------------------------

def test_run_experiment_writes_outputs(tmp_path):
    cfg = _tiny_rate_config()
    result = run_experiment(cfg, tmp_path)
    rate_csv = tmp_path / "tiny_spatial_rates.csv"
    stab_csv = tmp_path / "tiny_stability.csv"
    det_csv = tmp_path / "tiny_stability_deterministic.csv"
    manifest = tmp_path / "tiny_manifest.json"
    for f in (rate_csv, stab_csv, det_csv, manifest):
        assert f.exists()

    meta = json.loads(manifest.read_text())
    assert meta["manifest_hash"] == manifest_hash(cfg)
    assert meta["config"]["n_samples"] == 6
    assert set(meta["outputs"]) == {
        "tiny_spatial_rates.csv",
        "tiny_stability.csv",
        "tiny_stability_deterministic.csv",
    }
    assert result.files == meta["outputs"]

    text = rate_csv.read_text()
    assert f"# manifest_hash: {manifest_hash(cfg)}" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "param,l2,l2_order,h1,h1_order,dtl2,dtl2_order"

    stab_lines = [l for l in stab_csv.read_text().splitlines() if not l.startswith("#")]
    assert stab_lines[0].startswith("t,mean_l2sq,min_l2sq,max_l2sq,mean_h1sq")
    assert stab_lines[0].endswith("mean_H,mean_H2,mean_H4,subset_fraction")
    assert len(stab_lines) == 1 + 6  # header + nodes of T/tau = 5 steps

    assert result.n_failures == 0
    assert result.max_energy_violation <= 1e-8


def test_rerun_is_byte_identical(tmp_path):
    cfg = _tiny_rate_config()
    run_experiment(cfg, tmp_path / "a")
    run_experiment(_tiny_rate_config(), tmp_path / "b")
    for name in ("tiny_spatial_rates.csv", "tiny_stability.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_thread_count_does_not_change_outputs(tmp_path):
    run_experiment(_tiny_rate_config(threads=1), tmp_path / "t1")
    run_experiment(_tiny_rate_config(threads=2), tmp_path / "t2")
    for name in ("tiny_spatial_rates.csv", "tiny_stability.csv"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t2" / name).read_bytes()
        assert a == b


def test_analytic_study_runs(tmp_path):
    result = run_experiment(_analytic_config(), tmp_path)
    assert result.files == ["lincheck_analytic_rates.csv"]
    text = (tmp_path / result.files[0]).read_text()
    header, *rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    l2 = [float(row[header.index("l2")]) for row in rows]
    assert l2[1] < l2[0]


def test_samples_header_counts_the_paths_each_csv_ran(tmp_path):
    # a one-path table prints 1, whatever the config's n_samples says
    def samples(path):
        return [l for l in path.read_text().splitlines() if l.startswith("# samples:")]

    run_experiment(_analytic_config(n_samples=50), tmp_path / "a")
    assert samples(tmp_path / "a" / "lincheck_analytic_rates.csv") == ["# samples: 1"]
    run_experiment(_tiny_rate_config(), tmp_path / "b")
    for name, n in (("spatial_rates", 6), ("stability", 6), ("stability_deterministic", 1)):
        assert samples(tmp_path / "b" / f"tiny_{name}.csv") == [f"# samples: {n}"], name


def test_run_experiment_rejects_invalid(tmp_path):
    cfg = _tiny_rate_config()
    cfg.scheme = "leapfrog"
    with pytest.raises(ValueError):
        run_experiment(cfg, tmp_path)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_cli_config_run(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(config_to_dict(_tiny_rate_config())))
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--samples", "4", "--seed", "123"])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "tiny_manifest.json").read_text())
    assert meta["config"]["n_samples"] == 4  # flag beats file
    assert meta["config"]["master_seed"] == 123


def test_cli_tau_override(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg = _tiny_rate_config()
    cfg.studies = [cfg.studies[1]]  # stability only
    cfg_file.write_text(json.dumps(config_to_dict(cfg)))
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--tau", "0.01", "--samples", "2"])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "tiny_manifest.json").read_text())
    assert meta["config"]["studies"][0]["tau"] == 0.01


@pytest.mark.parametrize(
    "studies, flags, named",
    [
        ("analytic", ["--h-level", "4"], "--h-level"),
        ("spatial", ["--h-level", "4"], "--h-level"),
        ("temporal", ["--tau", "0.01"], "--tau"),
        ("temporal", ["--tau", "0.01", "--h-level", "4"], "--tau"),
        ("spatial", ["--tau", "0.01", "--h-level", "4"], "--h-level"),
    ],
)
def test_cli_override_that_reaches_no_study_exits_2(tmp_path, capsys, studies, flags, named):
    if studies == "analytic":
        cfg = _analytic_config()
    else:
        cfg = _with_study(
            RateStudy(mode="spatial", levels=[4, 8], taus=[0.01], T=0.05)
            if studies == "spatial"
            else RateStudy(mode="temporal", levels=[4], taus=[0.02, 0.01], T=0.04)
        )
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert f"{named} overrides no study" in err
    assert not out.exists()  # nothing is run or written


def test_cli_h_level_on_the_analytic_preset_exits_2(tmp_path, capsys):
    assert main(["--preset", "lin-det-check", "--h-level", "4", "--out", str(tmp_path)]) == 2
    assert "--h-level overrides no study of 'lin-det-check'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_warns_when_the_energy_contract_is_broken(tmp_path, capsys):
    # at tau = 5e-5 the preset's chord tolerance leaves a worst residual of
    # about 3.5e-8; at its own tau = 1e-4 it reads about 3.2e-9
    assert main(["--preset", "lin-det-check", "--tau", "5e-5", "--out", str(tmp_path)]) == 0
    warning = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert len(warning) == 1 and "worst energy residual 3.5" in warning[0]
    assert "1e-08" in warning[0]
    assert main(["--preset", "lin-det-check", "--out", str(tmp_path)]) == 0
    assert "warning" not in capsys.readouterr().err


def test_cli_invalid_drift_exits_2(tmp_path, capsys):
    cfg = _tiny_rate_config()
    cfg.drift = PolynomialDrift([-1.0, -1.0], alpha=1.0, lam=0.5)  # even degree
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(config_to_dict(cfg)))
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "odd" in err


def _raw_study(**fields):
    """The JSON form of a small stability config whose one study has these fields."""
    raw = config_to_dict(_with_study(StabilityStudy(level=4, tau=0.02, T=0.1)))
    raw["studies"][0] = {"kind": "stability", "tau": 0.02, "T": 0.1, **fields}
    return raw


_STABILITY = {"kind": "stability", "level": 4, "tau": 0.02, "T": 0.1}


@pytest.mark.parametrize(
    "cfg, field",
    [
        (_analytic_config(levels=(8, 12)), "studies[0].levels: ladder entries must double"),
        (_with_study(StabilityStudy(level=0, tau=0.02, T=0.1)), "studies[0].level: must be >= 1"),
        (
            _with_study(RateStudy(mode="spatial", levels=[], taus=[0.01], T=0.05)),
            "studies[0].levels: the ladder is empty",
        ),
        (
            _with_study(RateStudy(mode="temporal", levels=[8], taus=[], T=0.05)),
            "studies[0].taus: the ladder is empty",
        ),
        (
            _analytic_config(dimension=2, h1=TentBump(), h2=Constant(1.0)),
            "studies[0]: the closed-form solution needs dimension 1",
        ),
        (_raw_study(level=4, lvl=3), "studies[0].lvl: unknown field"),
        (_raw_study(level="8"), "studies[0].level: expected int"),
        (_raw_study(), "studies[0].level: missing"),
        ({**_raw_study(level=4), "h1": {"kind": "cosine", "k": 2}}, "h1.k: unknown field"),
        ({**_raw_study(level=4), "n_sample": 5}, "n_sample: unknown field"),
        (
            {**_raw_study(level=4), "drift": {"coeffs": [0.0], "lamda": 1.0}},
            "drift.lamda: unknown field",
        ),
        (
            {**_raw_study(level=4), "diffusion": {"kind": "linear", "eps": 0.1}},
            "diffusion.eps: unknown field",
        ),
        ({**_raw_study(level=4), "h1": "zero"}, "h1: expected object, got 'zero'"),
        ({**_raw_study(level=4), "studies": {"kind": "stability"}}, "studies: expected list"),
        ({**_raw_study(level=4), "studies": ["stability"]}, "studies[0]: expected object"),
        ({**_raw_study(level=4), "h1": {"kind": "cosine", "kx": "1"}}, "h1.kx: expected int"),
        (
            {**_raw_study(level=4), "diffusion": {"kind": "linear", "c": "1"}},
            "diffusion.c: expected float",
        ),
        ({**_raw_study(level=4), "n_samples": 2.7}, "n_samples: expected int, got 2.7"),
        ({**_raw_study(level=4), "n_samples": True}, "n_samples: expected int, got True"),
        ({**_raw_study(level=4), "master_seed": 1.5}, "master_seed: expected int, got 1.5"),
        ({**_raw_study(level=4), "name": 5}, "name: expected str, got 5"),
        ({**_raw_study(level=4), "drift": {"coeffs": ["-1"]}}, "drift.coeffs[0]: expected float"),
        (
            {**_raw_study(level=4), "diffusion": {"kind": "cubic"}},
            "diffusion: unknown diffusion kind 'cubic'",
        ),
        (
            {**_raw_study(level=4), "diffusion": {"kind": "smoothed_abs", "epsilon": 0.0}},
            "diffusion: smoothed_abs needs epsilon > 0",
        ),
        (
            {**_raw_study(level=4), "drift": {"coeffs": []}},
            "drift: drift needs at least one coefficient",
        ),
        ({**_raw_study(level=4), "h2": {"kind": "zero", "value": 3.0}}, "h2.value: unknown field"),
        ({**_raw_study(level=4), "newton_abs_tol": -1.0}, "newton_abs_tol: must be finite and > 0"),
        ({**_raw_study(level=4), "newton_abs_tol": 0}, "newton_abs_tol: must be finite and > 0"),
        (
            {**_raw_study(level=4), "newton_abs_tol": float("inf")},
            "newton_abs_tol: expected finite float, got inf",
        ),
        ({**_raw_study(level=4), "master_seed": -1}, "master_seed: must be >= 0"),
        ({**_raw_study(level=4), "threads": 0}, "threads: must be >= 1"),
        (
            {**_raw_study(level=4), "studies": [_STABILITY, _STABILITY]},
            "studies[1].label: tiny_stability.csv is also written by studies[0]",
        ),
        (
            {
                **_raw_study(level=4),
                "studies": [_STABILITY, {**_STABILITY, "label": "stability_deterministic"}],
            },
            "studies[1].label: tiny_stability_deterministic.csv is also written by studies[0]",
        ),
        ({**_raw_study(level=4), "name": "a/b"}, "name: must be non-empty, with no '/'"),
        ({**_raw_study(level=4), "name": ""}, "name: must be non-empty, with no '/'"),
        (_raw_study(level=4, label="x\\y"), "studies[0].label: must be non-empty, with no '/'"),
        (_raw_study(level=4, label=""), "studies[0].label: must be non-empty, with no '/'"),
    ],
    ids=[
        "analytic-ladder", "stability-level-0", "empty-levels", "empty-taus",
        "analytic-2d-tent", "unknown-field", "wrong-type", "missing-field", "unknown-h1-field",
        "unknown-top-level-key", "unknown-drift-key", "unknown-diffusion-key",
        "h1-not-an-object", "studies-not-a-list", "study-not-an-object", "h1-kx-string",
        "diffusion-c-string", "n-samples-float", "n-samples-bool", "master-seed-float",
        "name-int", "drift-coeff-string", "unknown-diffusion-kind", "smoothed-abs-epsilon-0",
        "drift-no-coefficients", "zero-field-with-value", "newton-abs-tol-negative",
        "newton-abs-tol-zero", "newton-abs-tol-infinite", "master-seed-negative", "threads-0",
        "one-label-twice", "label-meets-companion-file", "name-with-slash", "name-empty",
        "label-with-backslash", "label-empty",
    ],
)
def test_cli_config_errors_exit_2(cfg, field, tmp_path, capsys):
    raw = cfg if isinstance(cfg, dict) else config_to_dict(cfg)
    try:
        problems = validate_config(config_from_dict(raw))
    except ValueError as exc:
        problems = [str(exc)]
    assert any(p.startswith(field) for p in problems)
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_HOLE = "<non-finite>"  # replaced by a JSON number beyond the finite floats


@pytest.mark.parametrize(
    "literal, shown", [("NaN", "nan"), ("1e400", "inf"), ("1" + "0" * 400, "1" + "0" * 400)],
    ids=["NaN", "1e400", "10**400"],
)
@pytest.mark.parametrize(
    "path, raw",
    [
        ("studies[0].kappa", _raw_study(level=4, kappa=_HOLE)),
        ("studies[0].T", _raw_study(level=4, T=_HOLE)),
        (
            "diffusion.epsilon",
            {**_raw_study(level=4), "diffusion": {"kind": "smoothed_abs", "epsilon": _HOLE}},
        ),
        ("drift.coeffs[0]", {**_raw_study(level=4), "drift": {"coeffs": [_HOLE, 0.0, -1.0]}}),
    ],
    ids=["kappa", "T", "epsilon", "drift-coeff"],
)
def test_cli_rejects_non_finite_floats(path, raw, literal, shown, tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps(raw).replace(json.dumps(_HOLE), literal))
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: expected finite float, got {shown}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validation_rejects_nan_kappa():
    cfg = _with_study(StabilityStudy(level=4, tau=0.02, T=0.1, kappa=float("nan")))
    assert "studies[0].kappa: must be >= 0" in validate_config(cfg)


def test_cli_unreadable_config_exits_2(tmp_path):
    rc = main(["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        main(["--preset", "nope"])
