import csv
import json

import numpy as np
import pytest

from vmpfpca import cli
from vmpfpca.data import read_dataset_csv


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--n", "20", "--seed", "3", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture(scope="module")
def fit_paths(sim_dir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fit")
    fit_path = out_dir / "fit.json"
    code = run_cli(
        "fit",
        str(sim_dir / "dataset.csv"),
        "--num-eigen",
        "3",
        "--num-splines",
        "10",
        "--tol",
        "1e-5",
        "--max-iter",
        "2000",
        "--out",
        str(fit_path),
    )
    assert code == 0
    return sim_dir, fit_path


class TestSimulate:
    def test_outputs_exist_with_expected_rows(self, sim_dir):
        dataset = read_dataset_csv(sim_dir / "dataset.csv")
        assert dataset.num_curves == 20
        with (sim_dir / "dataset.csv").open() as handle:
            rows = sum(1 for _ in handle) - 1
        assert rows == dataset.num_observations
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["score_variances"] == [1.0, 0.25]
        assert len(truth["grid"]) == 1001
        assert len(truth["eigenfunctions"]) == 2

    def test_zero_curves_rejected(self, tmp_path):
        assert run_cli("simulate", "--n", "0", "--out", str(tmp_path)) == cli.EXIT_VALIDATION

    def test_bad_score_variances_rejected(self, tmp_path):
        code = run_cli(
            "simulate", "--n", "5", "--score-variances", "1.0", "--out", str(tmp_path)
        )
        assert code == cli.EXIT_VALIDATION

    def test_seeded_simulation_reproducible(self, tmp_path):
        run_cli("simulate", "--n", "6", "--seed", "11", "--out", str(tmp_path / "a"))
        run_cli("simulate", "--n", "6", "--seed", "11", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == (
            tmp_path / "b" / "dataset.csv"
        ).read_bytes()


class TestFit:
    def test_fit_converges_and_writes_schema(self, fit_paths):
        _, fit_path = fit_paths
        doc = json.loads(fit_path.read_text())
        assert set(doc) == {"fit", "manifest"}
        fit_doc = doc["fit"]
        for key in (
            "grid",
            "mean",
            "eigenfunctions",
            "scores",
            "score_covariances",
            "eigenvalues",
            "noise_precision_mean",
        ):
            assert key in fit_doc
        assert len(fit_doc["eigenfunctions"]) == 3
        assert len(fit_doc["scores"]) == 20
        manifest = doc["manifest"]
        assert manifest["converged"] is True
        assert manifest["final_metric"] < 1e-5
        assert manifest["version"]
        assert (fit_path.parent / "fit.manifest.json").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli("fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json"))
        assert code == cli.EXIT_IO

    def test_single_component_fit_still_converges(self, sim_dir, tmp_path):
        code = run_cli(
            "fit",
            str(sim_dir / "dataset.csv"),
            "--num-eigen",
            "1",
            "--max-iter",
            "2000",
            "--out",
            str(tmp_path / "fit1.json"),
        )
        assert code == 0

    def test_nonconvergence_exit_code_and_retained_output(self, sim_dir, tmp_path):
        out = tmp_path / "partial.json"
        code = run_cli(
            "fit", str(sim_dir / "dataset.csv"), "--max-iter", "2", "--out", str(out)
        )
        assert code == cli.EXIT_NONCONVERGENCE
        doc = json.loads(out.read_text())
        assert doc["manifest"]["converged"] is False

    def test_rerun_is_bitwise_reproducible(self, sim_dir, tmp_path):
        args = [
            "fit",
            str(sim_dir / "dataset.csv"),
            "--max-iter",
            "2000",
            "--seed",
            "5",
        ]
        run_cli(*args, "--out", str(tmp_path / "a.json"))
        run_cli(*args, "--out", str(tmp_path / "b.json"))
        payload_a = json.dumps(json.loads((tmp_path / "a.json").read_text())["fit"])
        payload_b = json.dumps(json.loads((tmp_path / "b.json").read_text())["fit"])
        assert payload_a == payload_b

    def test_manifest_driven_rerun_reproduces_fit(self, fit_paths, tmp_path):
        sim_dir, fit_path = fit_paths
        manifest_path = fit_path.parent / "fit.manifest.json"
        out = tmp_path / "rerun.json"
        code = run_cli("fit", "--from-manifest", str(manifest_path), "--out", str(out))
        assert code == 0
        original = json.dumps(json.loads(fit_path.read_text())["fit"])
        rerun = json.dumps(json.loads(out.read_text())["fit"])
        assert original == rerun

    def test_rescale_time_flag(self, tmp_path):
        path = tmp_path / "wide.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["curve_id", "t", "y"])
            rng = np.random.default_rng(0)
            for cid in ("a", "b", "c", "d"):
                for t in np.linspace(0.0, 2.0, 25):
                    writer.writerow([cid, t, np.sin(t) + 0.1 * rng.standard_normal()])
        out = tmp_path / "fit.json"
        code = run_cli(
            "fit", str(path), "--num-eigen", "1", "--max-iter", "2000",
            "--rescale-time", "--out", str(out),
        )
        assert code in (0, cli.EXIT_NONCONVERGENCE)
        doc = json.loads(out.read_text())
        assert doc["manifest"]["time_rescale"] == [0.0, 2.0]
        # without the flag the same file is a validation error
        assert run_cli("fit", str(path), "--out", str(out)) == cli.EXIT_VALIDATION

    def test_single_curve_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        rows = [f"only,{t!r},{float(np.sin(t))!r}" for t in np.linspace(0.0, 1.0, 20).tolist()]
        path.write_text("curve_id,t,y\n" + "\n".join(rows) + "\n")
        code = run_cli("fit", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "at least two" in err
        assert "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_degeneracy_exit_code(self, sim_dir, tmp_path, monkeypatch):
        from vmpfpca.postprocess import DegenerateComponentError

        def boom(*args, **kwargs):
            raise DegenerateComponentError("synthetic degeneracy")

        monkeypatch.setattr(cli, "run_fit", boom)
        code = run_cli(
            "fit", str(sim_dir / "dataset.csv"), "--out", str(tmp_path / "x.json")
        )
        assert code == cli.EXIT_DEGENERACY

    def test_export_curves_long_format(self, sim_dir, tmp_path):
        out = tmp_path / "fit.json"
        curves = tmp_path / "curves.csv"
        code = run_cli(
            "fit",
            str(sim_dir / "dataset.csv"),
            "--max-iter",
            "2000",
            "--out",
            str(out),
            "--export-curves",
            str(curves),
        )
        assert code == 0
        with curves.open() as handle:
            reader = csv.reader(handle)
            header = next(reader)
            assert header == ["series", "t", "value"]
            series = {row[0] for row in reader}
        assert "mean" in series
        assert "eigenfunction_1" in series
        assert "fit_1" in series


def write_csv(path, rows):
    path.write_text("curve_id,t,y\n" + "".join(f"{c},{t!r},{y!r}\n" for c, t, y in rows))
    return path


def valid_rows():
    rng = np.random.default_rng(5)
    return [(c, t, float(rng.standard_normal())) for c in "abc" for t in (0.0, 0.3, 0.6, 0.9)]


def _equal_times(tmp_path):
    rows = [(c, 5.0, y) for c, _, y in valid_rows()]
    return ["fit", str(write_csv(tmp_path / "d.csv", rows)), "--rescale-time"]


def _nan_time(tmp_path):
    rows = [*valid_rows(), ("a", float("nan"), 2.0)]
    return ["fit", str(write_csv(tmp_path / "d.csv", rows)), "--rescale-time"]


def _manifest(text):
    def build(tmp_path):
        dataset = write_csv(tmp_path / "d.csv", valid_rows())
        manifest = tmp_path / "m.json"
        manifest.write_text(text.replace("DATASET", json.dumps(str(dataset))))
        return ["fit", "--from-manifest", str(manifest)]

    return build


class TestFitInputErrors:
    """Bad inputs to ``fit`` print one error line and exit 2, without a traceback."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (_equal_times, "cannot rescale"),
            (_nan_time, "curve 'a' contains non-finite entries"),
            (_manifest("{not json"), "JSONDecodeError"),
            (_manifest('{"dataset": DATASET, "config": {"num_eigen": 0}}'), "num_eigen"),
            (_manifest('{"dataset": DATASET, "config": {"bogus": 1}}'), "bogus"),
            (_manifest('{"dataset": DATASET, "config": {"num_eigen": 2.5}}'), "integer"),
            (_manifest('{"dataset": DATASET}'), "config"),
            (_manifest('{"config": {}}'), "dataset"),
            (_manifest('[1, 2]'), "TypeError"),
            (
                _manifest('{"dataset": DATASET, "config": {"score_prior_cov": [[1.0]]}}'),
                "score_prior_cov was removed",
            ),
        ],
        ids=[
            "rescale-equal-times",
            "rescale-nan-time",
            "manifest-malformed-json",
            "manifest-invalid-config",
            "manifest-unknown-key",
            "manifest-non-integer-size",
            "manifest-missing-config",
            "manifest-missing-dataset",
            "manifest-not-an-object",
            "manifest-score-prior-cov",
        ],
    )
    def test_exits_2_with_error_line(self, build, message, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run_cli(*build(tmp_path), "--out", str(out))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_constant_response_is_validation_error(self, tmp_path, capsys):
        rows = [(c, t, 2.5) for c, t, _ in valid_rows()]
        path = write_csv(tmp_path / "d.csv", rows)
        code = run_cli("fit", str(path), "--out", str(tmp_path / "f.json"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert "zero variance" in err and "Traceback" not in err

    def test_manifest_with_null_score_prior_cov_reruns(self, fit_paths, tmp_path):
        _, fit_path = fit_paths
        manifest = json.loads((fit_path.parent / "fit.manifest.json").read_text())
        manifest["config"]["score_prior_cov"] = None
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        out = tmp_path / "rerun.json"
        assert run_cli("fit", "--from-manifest", str(old), "--out", str(out)) == 0
        assert json.loads(out.read_text())["fit"] == json.loads(fit_path.read_text())["fit"]


class TestEval:
    def test_self_evaluation_is_zero(self, fit_paths, tmp_path):
        _, fit_path = fit_paths
        fit_doc = json.loads(fit_path.read_text())["fit"]
        truth_doc = {
            "grid": fit_doc["grid"],
            "mean": fit_doc["mean"],
            "eigenfunctions": fit_doc["eigenfunctions"],
        }
        truth_path = tmp_path / "self_truth.json"
        truth_path.write_text(json.dumps(truth_doc))
        out = tmp_path / "metrics.json"
        code = run_cli(
            "eval", "--fit", str(fit_path), "--truth", str(truth_path), "--out", str(out)
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["ise_mean"] == 0.0
        assert all(v == 0.0 for v in metrics["ise_eigenfunctions"])

    def test_eval_against_simulation_truth(self, fit_paths, tmp_path):
        sim_dir, fit_path = fit_paths
        out = tmp_path / "metrics.json"
        code = run_cli(
            "eval",
            "--fit",
            str(fit_path),
            "--truth",
            str(sim_dir / "truth.json"),
            "--out",
            str(out),
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert len(metrics["ise_eigenfunctions"]) == 2  # one per true component
        assert len(metrics["eigenvalues"]) == 3
        assert metrics["noise_variance_estimate"] == pytest.approx(1.0, rel=0.5)
        assert metrics["ise_mean"] < 1.0

    def test_grid_mismatch_resampled_with_warning(self, fit_paths, tmp_path, caplog):
        _, fit_path = fit_paths
        fit_doc = json.loads(fit_path.read_text())["fit"]
        coarse = np.linspace(0.0, 1.0, 401)
        truth_doc = {
            "grid": coarse.tolist(),
            "mean": np.interp(coarse, fit_doc["grid"], fit_doc["mean"]).tolist(),
            "eigenfunctions": [
                np.interp(coarse, fit_doc["grid"], f).tolist()
                for f in fit_doc["eigenfunctions"]
            ],
        }
        import logging

        with caplog.at_level(logging.WARNING):
            metrics = cli.evaluate_fit_against_truth(fit_doc, truth_doc)
        assert any("resampling" in rec.message for rec in caplog.records)
        assert metrics["ise_mean"] < 1e-4  # only interpolation error remains

    def test_eval_requires_inputs(self):
        assert run_cli("eval") == cli.EXIT_VALIDATION

    def test_missing_fit_file_is_io_error(self, tmp_path):
        code = run_cli(
            "eval", "--fit", str(tmp_path / "no.json"), "--truth", str(tmp_path / "no2.json")
        )
        assert code == cli.EXIT_IO

    def test_study_mode_emits_one_row_per_cell(self, tmp_path):
        out = tmp_path / "study.json"
        code = run_cli(
            "eval",
            "--study",
            "--replicates",
            "2",
            "--n-grid",
            "10,14",
            "--max-iter",
            "2000",
            "--seed",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        cells = {(row["replicate"], row["n"]) for row in rows}
        assert cells == {(0, 10), (0, 14), (1, 10), (1, 14)}
        for row in rows:
            assert set(row) >= {
                "replicate",
                "n",
                "seed",
                "converged",
                "iterations",
                "ise_mean",
                "ise_psi1",
                "ise_psi2",
                "noise_variance_estimate",
            }

    def test_study_validation(self, tmp_path):
        assert (
            run_cli("eval", "--study", "--replicates", "0", "--out", str(tmp_path / "s.json"))
            == cli.EXIT_VALIDATION
        )

    def test_study_worker_pool_matches_serial(self, tmp_path):
        from vmpfpca.orchestrator import FitConfig

        config = FitConfig(max_iter=2000)
        serial = cli.run_study(2, [10], config, base_seed=4, workers=1)
        pooled = cli.run_study(2, [10], config, base_seed=4, workers=2)
        assert serial == pooled


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2
