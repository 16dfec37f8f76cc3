import csv
import ctypes
import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from vmpfpca import cli
from vmpfpca.data import read_dataset_csv
from vmpfpca.orchestrator import FitConfig


def run_cli(*args):
    return cli.main(list(args))


def _blas_threads(_):
    getter = cli._openblas_function("get_num_threads")
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


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

    @pytest.mark.parametrize("level, lines", [("warning", 1), ("info", 2)])
    def test_nonconvergence_reported_once(self, sim_dir, tmp_path, level, lines):
        # fit's warning line is the report; the fit's own record is logged at INFO
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "VMPFPCA_LOG": level}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "vmpfpca.cli", "fit", str(sim_dir / "dataset.csv"),
             "--max-iter", "5", "--out", str(tmp_path / "fit.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == cli.EXIT_NONCONVERGENCE
        reports = [line for line in done.stderr.splitlines() if "converge" in line]
        assert len(reports) == lines and reports[-1].startswith("warning: not converged")

    def test_rerun_is_bitwise_reproducible(self, sim_dir, tmp_path):
        args = [
            "fit",
            str(sim_dir / "dataset.csv"),
            "--max-iter",
            "2000",
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

    def test_fit_names_the_curve_of_each_score_row(self, sim_dir, tmp_path):
        # the labels in order of first appearance, here "b" before "a"
        with (sim_dir / "dataset.csv").open(newline="") as handle:
            header, *rows = csv.reader(handle)
        relabel = {"1": "b", "2": "a"}
        path = tmp_path / "labels.csv"
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *([relabel.get(c, c), t, y] for c, t, y in rows)])
        out = tmp_path / "fit.json"
        assert run_cli("fit", str(path), "--max-iter", "2000", "--out", str(out)) == 0
        fit = json.loads(out.read_text())["fit"]
        assert fit["curve_ids"][:3] == ["b", "a", "3"]
        assert len(fit["curve_ids"]) == len(fit["scores"]) == len(fit["score_covariances"]) == 20
        manifest = str(out.with_suffix(".manifest.json"))
        rerun = tmp_path / "rerun.json"
        assert run_cli("fit", "--from-manifest", manifest, "--out", str(rerun)) == 0
        assert json.loads(rerun.read_text())["fit"] == fit
        # eval reads the curves and eigenvalues and ignores the labels
        metrics = tmp_path / "metrics.json"
        truth = str(sim_dir / "truth.json")
        assert run_cli("eval", "--fit", str(out), "--truth", truth, "--out", str(metrics)) == 0

    def test_byte_order_mark_is_read(self, fit_paths, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with one
        sim_dir, fit_path = fit_paths
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (sim_dir / "dataset.csv").read_bytes())
        out = tmp_path / "bom.json"
        code = run_cli(
            "fit", str(path), "--num-eigen", "3", "--num-splines", "10", "--tol", "1e-5",
            "--max-iter", "2000", "--out", str(out),
        )  # fmt: skip
        assert code == 0
        assert json.loads(out.read_text())["fit"] == json.loads(fit_path.read_text())["fit"]

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e154, 1e200], ids=["1e154", "1e200"])
    def test_overflowing_response_is_validation_error(self, scale, tmp_path, capsys):
        # the sum of squared responses is not finite: rejected before any sweep
        rng = np.random.default_rng(0)
        rows = [(c, rng.uniform(), scale * rng.normal()) for c in range(10) for _ in range(20)]
        path = write_csv(tmp_path / "huge.csv", rows)
        code = run_cli("fit", str(path), "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert "error: the response overflows" in err and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "failing_call, where", [(1, "starting values: "), (2, "iteration 2: ")],
        ids=["start", "sweep"],
    )
    def test_linalg_error_is_degeneracy(
        self, sim_dir, failing_call, where, tmp_path, capsys, monkeypatch
    ):
        # the fit's first eigh is in the starting values, its next in the snap of sweep 2,
        # since the first sweep does not snap
        calls = []
        original = np.linalg.eigh

        def eigh(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "vmpfpca.orchestrator":
                calls.append(None)
            if len(calls) == failing_call:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        code = run_cli("fit", str(sim_dir / "dataset.csv"), "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DEGENERACY
        assert f"error: {where}Eigenvalues did not converge" in err and "Traceback" not in err

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


def _flag(flag, value):
    def build(tmp_path):
        return ["fit", str(write_csv(tmp_path / "d.csv", valid_rows())), flag, value]

    return build


def _over_long_label(tmp_path):
    label = "c" * (csv.field_size_limit() + 1)
    return ["fit", str(write_csv(tmp_path / "d.csv", [*valid_rows(), (label, 0.5, 1.0)]))]


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
            (
                _manifest('{"dataset": DATASET, "config": {"num_eigen": true, "tol": true}}'),
                "tol must be a number, not a boolean",
            ),
            (_manifest('{"dataset": DATASET, "config": {"max_iter": true}}'), "max_iter"),
            (_manifest('{"dataset": DATASET, "config": {"hyper_a_mu": true}}'), "hyper_a_mu"),
            (_manifest('{"dataset": DATASET, "config": {"prior_beta_var": false}}'), "boolean"),
            (_manifest('{"dataset": DATASET}'), "config"),
            (_manifest('{"config": {}}'), "dataset"),
            (_manifest('[1, 2]'), "TypeError"),
            (
                _manifest('{"dataset": DATASET, "config": {"score_prior_cov": [[1.0]]}}'),
                "score_prior_cov was removed",
            ),
            (_flag("--hyper-a-psi", "1e-300"), "hyper_a_psi"),
            (_flag("--hyper-a-eps", "1e200"), "hyper_a_eps"),
            (_flag("--prior-beta-var", "1e-320"), "prior_beta_var"),
            (_flag("--num-eigen", "13"), "num_eigen must be <= num_splines + 2"),
            (
                _manifest('{"dataset": DATASET, "config": {"num_eigen": 6, "num_splines": 3}}'),
                "num_eigen must be <= num_splines + 2",
            ),
            (_flag("--num-splines", "800"), "num_splines must be from 3 to 603"),
            (
                _manifest('{"dataset": DATASET, "config": {"num_splines": 604}}'),
                "num_splines must be from 3 to 603",
            ),
            (
                _manifest('{"dataset": DATASET, "config": {"freeze_scores_at_zero": true}}'),
                "freeze_scores_at_zero",
            ),
            (_over_long_label, "d.csv:14: field larger than field limit"),
        ],
        ids=[
            "rescale-equal-times",
            "rescale-nan-time",
            "manifest-malformed-json",
            "manifest-invalid-config",
            "manifest-unknown-key",
            "manifest-non-integer-size",
            "manifest-boolean-size-and-tol",
            "manifest-boolean-size",
            "manifest-boolean-hyper",
            "manifest-boolean-prior-var",
            "manifest-missing-config",
            "manifest-missing-dataset",
            "manifest-not-an-object",
            "manifest-score-prior-cov",
            "precision-underflow",
            "precision-overflow",
            "precision-infinite",
            "more-components-than-coefficients",
            "manifest-more-components-than-coefficients",
            "too-many-splines",
            "manifest-too-many-splines",
            "manifest-frozen-scores",
            "csv-field-over-limit",
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

    def test_value_error_inside_fit_propagates(self, tmp_path, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("synthetic fault")

        monkeypatch.setattr(cli, "run_fit", fault)
        path = write_csv(tmp_path / "d.csv", valid_rows())
        with pytest.raises(ValueError, match="synthetic fault"):
            run_cli("fit", str(path), "--out", str(tmp_path / "f.json"))

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

    def test_manifest_with_retired_seed_reruns(self, fit_paths, tmp_path):
        # Manifests of older versions record the seed, which never changed a fit.
        _, fit_path = fit_paths
        manifest = json.loads((fit_path.parent / "fit.manifest.json").read_text())
        assert manifest["config"]["freeze_scores_at_zero"] is False and "seed" not in manifest
        manifest["seed"] = manifest["config"]["seed"] = 5
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        out = tmp_path / "rerun.json"
        assert run_cli("fit", "--from-manifest", str(old), "--out", str(out)) == 0
        rerun = json.dumps(json.loads(out.read_text())["fit"])
        assert rerun == json.dumps(json.loads(fit_path.read_text())["fit"])
        assert "seed" not in json.loads(out.read_text())["manifest"]["config"]


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

    def test_study_row_equals_the_row_from_json_documents(self, tmp_path, monkeypatch):
        # the cell scores its fit on arrays; scoring the fit.json and truth.json
        # documents of the same fit, read back from disk, gives the same row bit for bit
        task = (0, 10, 3, FitConfig(max_iter=2000))
        documents = []
        original = cli.evaluate_fit_against_truth

        def recording(fit_doc, truth_doc):
            documents.append((fit_doc, truth_doc))
            return original(fit_doc, truth_doc)

        monkeypatch.setattr(cli, "evaluate_fit_against_truth", recording)
        row = cli._study_cell(task)
        [(fit_doc, truth_doc)] = documents
        curves = [fit_doc[key] for key in ("grid", "mean", "eigenfunctions", "eigenvalues")]
        assert all(isinstance(value, np.ndarray) for value in [*curves, *truth_doc.values()])

        def from_json(doc, name):
            cli._write_json(tmp_path / name, doc)
            return cli._read_json(tmp_path / name)

        monkeypatch.setattr(
            cli,
            "evaluate_fit_against_truth",
            lambda fit_doc, truth_doc: original(
                from_json(fit_doc, "fit.json"), from_json(truth_doc, "truth.json")
            ),
        )
        from_documents = cli._study_cell(task)
        assert row.keys() == from_documents.keys()
        for key, value in row.items():
            assert type(value) is type(from_documents[key]), key
            assert repr(value) == repr(from_documents[key]), key

    def test_study_closing_line_counts_unconverged_cells(self, tmp_path, capsys):
        out = tmp_path / "study.json"
        args = ["eval", "--study", "--replicates", "2", "--n-grid", "10", "--out", str(out)]
        assert run_cli(*args, "--max-iter", "2") == 0
        assert capsys.readouterr().out.strip().endswith("; 2 did not converge")
        assert run_cli(*args, "--max-iter", "2000") == 0
        assert capsys.readouterr().out.strip().endswith("; 0 did not converge")

    def test_study_validation(self, tmp_path):
        assert (
            run_cli("eval", "--study", "--replicates", "0", "--out", str(tmp_path / "s.json"))
            == cli.EXIT_VALIDATION
        )

    def test_study_worker_pool_matches_serial(self, monkeypatch):
        from vmpfpca.orchestrator import FitConfig

        initializers = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initializers.append(kwargs.get("initializer"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = FitConfig(max_iter=2000)
        serial = cli.run_study(2, [10, 20], config, base_seed=4, workers=1)
        pooled = cli.run_study(2, [10, 20], config, base_seed=4, workers=2)
        assert serial == pooled
        assert initializers == [cli._one_blas_thread]

    def test_study_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        # A stand-in pool records its size and runs the cells in this process.
        from vmpfpca.orchestrator import FitConfig

        sizes = []

        class SizedPool:
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
        config = FitConfig(max_iter=20, grid_size=101)
        assert len(cli.run_study(1, [10, 12], config, workers=500)) == 2
        assert sizes == [2]
        assert len(cli.run_study(1, [10], config, workers=500)) == 1
        assert sizes == [2]  # one cell runs in this process

    def test_study_workers_run_one_blas_thread(self):
        if cli._openblas_function("get_num_threads") is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        parent_threads = _blas_threads(None)
        with ProcessPoolExecutor(max_workers=2, initializer=cli._one_blas_thread) as pool:
            assert list(pool.map(_blas_threads, range(2))) == [1, 1]
        assert _blas_threads(None) == parent_threads


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_fit_flag_defaults_are_fit_config(self):
        args = cli.build_parser().parse_args(["fit", "data.csv"])
        assert cli._config_from_args(args) == FitConfig()

    def test_study_flag_defaults_are_fit_config(self):
        args = cli.build_parser().parse_args(["eval", "--study"])
        assert cli._config_from_args(args) == FitConfig()

    @pytest.mark.parametrize("command", [["fit", "data.csv"], ["eval", "--study"]])
    def test_fit_flags_cover_config_fields(self, command):
        flags = [
            "--num-eigen", "--num-splines", "--tol", "--max-iter", "--grid-size",
            "--prior-beta-var", "--hyper-a-eps", "--hyper-a-mu", "--hyper-a-psi",
        ]  # fmt: skip
        values = ["2", "7", "1e-4", "9", "201", "1e8", "3.5", "4.5", "5.5"]
        args = cli.build_parser().parse_args(command + [x for pair in zip(flags, values) for x in pair])
        assert cli._config_from_args(args) == FitConfig(
            num_eigen=2, num_splines=7, tol=1e-4, max_iter=9, grid_size=201,
            prior_beta_var=1e8, hyper_a_eps=3.5, hyper_a_mu=4.5, hyper_a_psi=5.5,
        )  # fmt: skip

    def test_study_seed_is_the_base_seed(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: calls.append(kwargs) or [])
        out = str(tmp_path / "s.json")
        assert run_cli("eval", "--study", "--seed", "11", "--out", out) == cli.EXIT_OK
        assert run_cli("eval", "--study", "--out", out) == cli.EXIT_OK
        assert [call["base_seed"] for call in calls] == [11, 0]

    def test_fit_has_no_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("fit", "data.csv", "--seed", "5")
        assert exit_info.value.code == cli.EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    def test_no_flag_freezes_scores(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fit", "data.csv", "--freeze-scores-at-zero"])


def test_write_json_writes_the_indented_document_and_a_newline(tmp_path):
    payload = {"fit": {"grid": [0.0, 0.5, 1.0], "curve": "é"}, "iterations": 7, "converged": True}
    path = tmp_path / "new" / "fit.json"
    cli._write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode("utf-8")


NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity


def _document(kind, mutate):
    """``eval`` arguments whose ``kind`` document ("fit" or "truth") is mutated."""

    def build(tmp_path):
        grid = [0.0, 0.5, 1.0]
        curves = {"grid": grid, "mean": [0.0, 1.0, 0.0], "eigenfunctions": [[1.0, 0.0, -1.0]]}
        docs = {"fit": {**curves, "eigenvalues": [1.0]}, "truth": dict(curves)}
        docs[kind] = mutate(docs[kind])
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        return ["eval", "--fit", str(tmp_path / "fit.json"), "--truth", str(tmp_path / "truth.json")]

    return build


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


class TestOtherInputErrors:
    """Bad inputs to ``simulate`` and ``eval`` print one error line and exit 2."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--noise-variance", "inf"], "noise_variance"),
            (["simulate", "--noise-variance", "nan"], "noise_variance"),
            (["simulate", "--score-variances", "inf,1"], "score variances"),
            (["simulate", "--seed", "-1"], "seed"),
            (["eval", "--study", "--n-grid", "1"], "curve count"),
            (["eval", "--study", "--n-grid", "0"], "curve count"),
            (["eval", "--study", "--n-grid", "10,-3"], "curve count"),
            (["eval", "--study", "--seed", "-1"], "seed"),
            (
                ["eval", "--study", "--num-eigen", "9", "--num-splines", "5"],
                "num_eigen must be <= num_splines + 2",
            ),
            (["eval", "--study", "--num-splines", "800"], "num_splines must be from 3 to 603"),
        ],
        ids=[
            "simulate-inf-noise",
            "simulate-nan-noise",
            "simulate-inf-score-variance",
            "simulate-negative-seed",
            "study-one-curve",
            "study-zero-curves",
            "study-negative-curves",
            "study-negative-seed",
            "study-more-components-than-coefficients",
            "study-too-many-splines",
        ],
    )
    def test_flags_exit_2(self, args, message, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(*args, "--out", str(out))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "build, message",
        [
            (_document("fit", lambda doc: {}), "fit document"),
            (_document("fit", lambda doc: [doc]), "expected a JSON object"),
            (_document("fit", lambda doc: {"fit": [doc]}), "expected a JSON object"),
            (_document("fit", _without("eigenvalues")), "missing eigenvalues"),
            (_document("truth", lambda doc: {}), "truth document"),
            (_document("truth", lambda doc: [doc]), "expected a JSON object"),
            (_document("truth", _without("grid")), "missing grid"),
            (_document("truth", lambda doc: {**doc, "mean": doc["mean"][:2]}), "per grid point"),
            (
                _document("fit", lambda doc: {**doc, "eigenfunctions": [[1.0, 0.0]]}),
                "per grid point",
            ),
            (_document("fit", lambda doc: {**doc, "grid": []}), "nonempty"),
            (_document("truth", lambda doc: {**doc, "grid": doc["grid"][::-1]}), "increasing"),
            (_document("fit", lambda doc: {**doc, "noise_precision_mean": "x"}), "noise_precision"),
            (_document("fit", lambda doc: {**doc, "noise_precision_mean": True}), "noise_precision"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": [[1, 2], [3]]}), "eigenvalues"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": "abc"}), "eigenvalues"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": {"a": 1}}), "eigenvalues"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": [1, None, 2]}), "eigenvalues"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": [1.0, 0.5]}), "eigenvalues"),
            (_document("fit", lambda doc: {**doc, "eigenvalues": [NAN]}), "finite numbers"),
            (_document("fit", lambda doc: {**doc, "grid": [0.0, 0.5, INF]}), "finite numbers"),
            (_document("fit", lambda doc: {**doc, "mean": [0.0, NAN, 0.0]}), "finite numbers"),
            (
                _document("fit", lambda doc: {**doc, "noise_precision_mean": INF}),
                "noise_precision_mean must be a finite number",
            ),
            (_document("fit", lambda doc: {**doc, "grid": [0, 10**400, 2]}), "lists of numbers"),
            (_document("truth", lambda doc: {**doc, "grid": [0.0, NAN, 1.0]}), "finite numbers"),
            (
                _document("truth", lambda doc: {**doc, "eigenfunctions": [[1.0, -INF, 0.0]]}),
                "finite numbers",
            ),
        ],
        ids=[
            "fit-empty",
            "fit-list",
            "fit-wrapped-list",
            "fit-no-eigenvalues",
            "truth-empty",
            "truth-list",
            "truth-no-grid",
            "truth-truncated-mean",
            "fit-truncated-eigenfunction",
            "fit-empty-grid",
            "truth-decreasing-grid",
            "fit-string-precision",
            "fit-boolean-precision",
            "fit-ragged-eigenvalues",
            "fit-string-eigenvalues",
            "fit-object-eigenvalues",
            "fit-null-eigenvalue",
            "fit-eigenvalue-per-missing-eigenfunction",
            "fit-nan-eigenvalue",
            "fit-infinite-grid",
            "fit-nan-mean",
            "fit-infinite-precision",
            "fit-huge-integer-grid",
            "truth-nan-grid",
            "truth-infinite-eigenfunction",
        ],
    )
    def test_eval_documents_exit_2(self, build, message, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = run_cli(*build(tmp_path), "--out", str(out))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_well_formed_documents_evaluate(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert run_cli(*_document("fit", dict)(tmp_path), "--out", str(out)) == 0
        assert json.loads(out.read_text())["ise_mean"] == 0.0
