"""Command-line front end: config validation, builders, file formats, verbs,
exit codes, and output determinism.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
are asserted directly; the experiment presets are exercised with shrunken
knob overrides.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from kgd.cli import (
    ConfigError,
    _apply_overrides,
    _lv_arms,
    _write_arm_runs,
    build_init,
    build_kernel,
    build_loss,
    build_reference,
    main,
    parse_config,
    read_particles,
    write_particles,
    )
from kgd.core import seeded_stream
from kgd.kernels import IMQ, Gaussian, Mixture, WeightedMatrixKernel
from kgd.losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    ZeroLoss,
    )
from kgd.models import gen_lv_data
from kgd.samplers import drive


def _assert_environment(meta: dict) -> None:
    env = meta["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}


def _write_config(tmp_path: Path, body: dict, name: str = "config.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return str(path)


class TestParseConfig:
    def test_defaults_fill_an_empty_config(self):
        cfg = parse_config({})
        assert cfg["kernel"] == {"family": "imq", "lengthscale": 1.0}
        assert cfg["reference"] == {"dimension": 2, "mean": 0.0, "variance": 1.0}
        assert cfg["loss"] == {"family": "zero"}
        assert cfg["sampler"]["algorithm"] == "mfld"
        assert cfg["sampler"]["init"]["kind"] == "reference"
        assert cfg["run"]["seed"] == 0

    def test_sections_merge_over_defaults(self):
        cfg = parse_config(
            {"kernel": {"lengthscale": 0.5}, "sampler": {"particles": 7}}
        )
        assert cfg["kernel"] == {"family": "imq", "lengthscale": 0.5}
        assert cfg["sampler"]["particles"] == 7
        assert cfg["sampler"]["steps"] == 100  # untouched default

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"'<top>\.kernell'"):
            parse_config({"kernell": {}})

    def test_unknown_nested_keys_name_their_path(self):
        with pytest.raises(ConfigError, match=r"kernel\.members\[1\]\.scale"):
            parse_config(
                {"kernel": {"members": [{"family": "imq"}, {"scale": 2.0}]}}
            )
        with pytest.raises(ConfigError, match=r"sampler\.init\.sigma"):
            parse_config({"sampler": {"init": {"sigma": 1.0}}})
        with pytest.raises(ConfigError, match=r"kernel\.base\.c"):
            parse_config({"kernel": {"base": {"c": 1.0}}})

    def test_sections_must_be_mappings(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config({"kernel": 5})

    def test_reads_yaml_files(self, tmp_path):
        path = _write_config(
            tmp_path,
            {"run": {"seed": 3}, "reference": {"dimension": 1}},
        )
        cfg = parse_config(path)
        assert cfg["run"]["seed"] == 3
        assert cfg["reference"]["dimension"] == 1


class TestBuilders:
    def test_kernel_families(self):
        assert build_kernel({"family": "imq", "lengthscale": 0.7}) == IMQ(0.7)
        assert build_kernel({"family": "gaussian"}) == Gaussian(1.0)
        mix = build_kernel(
            {
                "family": "mixture",
                "members": [{"family": "imq", "lengthscale": 0.1}, {"family": "gaussian"}],
                "weights": [1.0, 2.0],
            }
        )
        assert isinstance(mix, Mixture) and mix.weights == (1.0, 2.0)
        wm = build_kernel(
            {"family": "weighted-matrix", "c": 2.0, "exponent": 1.0,
             "base": {"family": "gaussian", "lengthscale": 0.5}}
        )
        assert isinstance(wm, WeightedMatrixKernel) and wm.base == Gaussian(0.5)

    def test_kernel_errors(self):
        with pytest.raises(ConfigError, match="unknown kernel.family"):
            build_kernel({"family": "matern"})
        with pytest.raises(ConfigError, match="non-empty"):
            build_kernel({"family": "mixture", "members": []})

    def test_reference_broadcasts_scalars(self):
        ref = build_reference({"dimension": 3, "mean": 1.5, "variance": 2.0})
        np.testing.assert_array_equal(ref.mean, [1.5, 1.5, 1.5])
        np.testing.assert_array_equal(ref.variances, [2.0, 2.0, 2.0])
        ref = build_reference({"dimension": 2, "mean": [0.0, 1.0], "variance": [1.0, 4.0]})
        np.testing.assert_array_equal(ref.mean, [0.0, 1.0])

    def test_loss_families(self):
        assert isinstance(build_loss({"family": "zero"}, 2), ZeroLoss)
        lin = build_loss(
            {"family": "linear-quadratic", "center": 1.0, "weights": [2.0, 3.0]}, 2
        )
        assert isinstance(lin, LinearLoss)
        assert isinstance(
            build_loss({"family": "interaction-quadratic"}, 2), InteractionLoss
        )
        mfr = build_loss({"family": "mean-field-regression", "n_data": 20}, 4)
        assert isinstance(mfr, MeanFieldRegressionLoss)
        assert mfr.covariates.size == 20
        pk = build_loss({"family": "predictive-kernel", "sigma": 1.0}, 2)
        assert isinstance(pk, PredictiveKernelLoss)

    def test_loss_dimension_guards(self):
        with pytest.raises(ConfigError, match="dimension = 4"):
            build_loss({"family": "mean-field-regression"}, 2)
        with pytest.raises(ConfigError, match="dimension = 2"):
            build_loss({"family": "predictive-kernel"}, 4)
        with pytest.raises(ConfigError, match="unknown loss.family"):
            build_loss({"family": "entropy"}, 2)

    def test_init_kinds(self):
        ref = build_reference({"dimension": 2, "mean": 0.0, "variance": 1.0})
        a = build_init({"kind": "reference"}, ref, 5, seeded_stream(0, "i"))
        np.testing.assert_array_equal(a, ref.sample(seeded_stream(0, "i"), 5))
        b = build_init(
            {"kind": "gaussian", "mean": 2.0, "variance": 0.25}, ref, 400,
            seeded_stream(1, "i"),
        )
        assert abs(b.mean() - 2.0) < 0.1 and abs(b.std() - 0.5) < 0.05
        with pytest.raises(ConfigError, match="init.kind"):
            build_init({"kind": "uniform"}, ref, 2, seeded_stream(2, "i"))


class TestParticleFiles:
    def test_round_trip(self, tmp_path):
        atoms = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "p.csv"
        write_particles(path, atoms)
        np.testing.assert_array_equal(read_particles(path), atoms)

    def test_metadata_stays_in_comment_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        write_particles(path, np.ones((2, 2)), groups=[("a", 1), ("b", 1)])
        lines = path.read_text().splitlines()
        assert lines[0] == "# columns: x0,x1"
        assert lines[1] == "# rows 0..0: a" and lines[2] == "# rows 1..1: b"
        # Everything after the comments is bare float rows.
        assert all(not line.startswith("#") for line in lines[3:])
        np.testing.assert_array_equal(read_particles(path), np.ones((2, 2)))

    def test_single_row_keeps_two_dimensions(self, tmp_path):
        path = tmp_path / "p.csv"
        write_particles(path, np.array([[1.0, 2.0]]))
        assert read_particles(path).shape == (1, 2)


class TestOverrides:
    KNOBS = {"steps": 10, "step_size": 0.5, "sizes": [25, 50], "tag": "x"}

    def test_typed_parsing(self):
        out = _apply_overrides(
            self.KNOBS, ["steps=20", "step_size=1e-3", "sizes=10;20;40", "tag=y"]
        )
        assert out == {"steps": 20, "step_size": 1e-3, "sizes": [10, 20, 40], "tag": "y"}

    def test_unknown_key_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            _apply_overrides(self.KNOBS, ["stepss=20"])

    def test_malformed_values(self):
        with pytest.raises(ConfigError, match="key=value"):
            _apply_overrides(self.KNOBS, ["steps"])
        with pytest.raises(ConfigError, match="cannot parse"):
            _apply_overrides(self.KNOBS, ["steps=many"])


class TestSampleVerb:
    def _config(self, tmp_path, **sampler) -> str:
        body = {
            "run": {"seed": 4},
            "kernel": {"family": "imq", "lengthscale": 1.0},
            "reference": {"dimension": 2},
            "loss": {"family": "zero"},
            "sampler": {"algorithm": "mfld", "particles": 8, "steps": 6,
                        "step_size": 0.05, "trace_every": 3} | sampler,
        }
        return _write_config(tmp_path, body)

    def test_writes_trace_particles_meta(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "run1"
        assert main(["sample", "--config", cfg, "--output", str(out)]) == 0
        assert "final kgd_v2" in capsys.readouterr().out
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,kgd_v2,wall_time_s"
        steps = [int(line.split(",")[0]) for line in trace[1:]]
        assert steps == [0, 3, 6]
        atoms = read_particles(out / "particles.csv")
        assert atoms.shape == (8, 2)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["run"]["seed"] == 4
        assert "version" in meta and "elapsed_s" in meta
        _assert_environment(meta)

    def test_trace_rows_match_a_recomputation(self, tmp_path):
        # The final trace row must equal the discrepancy of the particle
        # file as an eval would recompute it.
        from kgd.core import EmpiricalMeasure
        from kgd.discrepancy import kgd_v_squared
        from kgd.kernels import IMQ as IMQKernel
        from kgd.core import DiagonalGaussian

        cfg = self._config(tmp_path)
        out = tmp_path / "run2"
        main(["sample", "--config", cfg, "--output", str(out)])
        atoms = read_particles(out / "particles.csv")
        final = kgd_v_squared(
            IMQKernel(1.0), DiagonalGaussian.standard(2), ZeroLoss(),
            EmpiricalMeasure(atoms),
        ).value2
        last = (out / "trace.csv").read_text().splitlines()[-1]
        np.testing.assert_allclose(float(last.split(",")[1]), final, rtol=1e-15)

    def test_identical_runs_produce_identical_bytes(self, tmp_path):
        cfg = self._config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "--output", str(out_a)])
        main(["sample", "--config", cfg, "--output", str(out_b)])
        assert (out_a / "particles.csv").read_bytes() == (out_b / "particles.csv").read_bytes()
        # The trace is deterministic except for the wall-clock column.
        rows_a = [l.rsplit(",", 1)[0] for l in (out_a / "trace.csv").read_text().splitlines()]
        rows_b = [l.rsplit(",", 1)[0] for l in (out_b / "trace.csv").read_text().splitlines()]
        assert rows_a == rows_b

    def test_different_seed_changes_the_particles(self, tmp_path):
        cfg_a = self._config(tmp_path)
        body = yaml.safe_load(Path(cfg_a).read_text())
        body["run"]["seed"] = 5
        cfg_b = _write_config(tmp_path, body, name="other.yaml")
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        main(["sample", "--config", cfg_a, "--output", str(out_a)])
        main(["sample", "--config", cfg_b, "--output", str(out_b)])
        assert (out_a / "particles.csv").read_bytes() != (out_b / "particles.csv").read_bytes()

    def test_greedy_algorithm(self, tmp_path):
        body = {
            "reference": {"dimension": 1},
            "sampler": {"algorithm": "greedy", "points": 3, "n_candidates": 40,
                        "refine_rounds": 2},
        }
        cfg = _write_config(tmp_path, body)
        out = tmp_path / "greedy"
        assert main(["sample", "--config", cfg, "--output", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert [int(l.split(",")[0]) for l in trace[1:]] == [1, 2, 3]
        assert read_particles(out / "particles.csv").shape == (3, 1)

    def test_vgd_and_kgdd_algorithms(self, tmp_path):
        for algo in ("vgd", "kgdd"):
            body = {
                "loss": {"family": "linear-quadratic"},
                "sampler": {"algorithm": algo, "particles": 4, "steps": 3,
                            "step_size": 0.1, "trace_every": 1},
            }
            cfg = _write_config(tmp_path, body, name=f"{algo}.yaml")
            out = tmp_path / algo
            assert main(["sample", "--config", cfg, "--output", str(out)]) == 0
            assert read_particles(out / "particles.csv").shape == (4, 2)

    @pytest.mark.parametrize(
        "body",
        [
            {"kernel": {"family": "weighted-matrix", "exponent": 0.5, "c": 1.2}},
            {"reference": {"dimension": 4},
             "loss": {"family": "mean-field-regression", "n_data": 20, "lam": 3.0}},
        ],
        ids=["weighted-matrix", "mean-field-regression"],
    )
    def test_kgdd_runs_with_every_kernel_and_vjp_loss(self, tmp_path, body):
        body = body | {"sampler": {"algorithm": "kgdd", "particles": 4, "steps": 3,
                                   "step_size": 0.01, "optimizer": "adam"}}
        cfg = _write_config(tmp_path, body)
        out = tmp_path / "kgdd"
        assert main(["sample", "--config", cfg, "--output", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert [int(l.split(",")[0]) for l in trace[1:]] == [0, 1, 2, 3]

    def test_kgdd_with_the_predictive_loss_is_a_config_error(self, tmp_path, capsys):
        body = {"loss": {"family": "predictive-kernel"},
                "sampler": {"algorithm": "kgdd", "particles": 2, "steps": 1}}
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "kgdd" in err and "predictive-kernel" in err

    @pytest.mark.parametrize(
        "sampler, key",
        [
            ({"steps": -3}, "sampler.steps"),
            ({"steps": 2.5}, "sampler.steps"),
            ({"steps": True}, "sampler.steps"),
            ({"optimizer": "sgd"}, "sampler.optimizer"),
            ({"algorithm": "kgdd", "grad_method": "fd"}, "sampler.grad_method"),
        ],
        ids=["negative-steps", "fractional-steps", "boolean-steps", "optimizer", "grad-method"],
    )
    def test_bad_sampler_setting_is_a_config_error(self, tmp_path, capsys, sampler, key):
        body = {"sampler": {"algorithm": "vgd", "particles": 3} | sampler}
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_missing_output_is_a_config_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["sample", "--config", cfg]) == 2
        assert "output" in capsys.readouterr().err

    def test_divergence_maps_to_exit_code_three(self, tmp_path, capsys):
        body = {
            "loss": {"family": "linear-quadratic", "weights": -50.0},
            "sampler": {"algorithm": "mfld", "particles": 4, "steps": 60,
                        "step_size": 1.0},
        }
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "d")]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_unknown_algorithm(self, tmp_path):
        cfg = _write_config(tmp_path, {"sampler": {"algorithm": "hmc"}})
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"reference": {"dimension": 3, "mean": [0.0, 1.0]}}, "reference.mean"),
            ({"loss": {"family": "linear-quadratic", "center": [1.0, 2.0, 3.0]}},
             "loss.center"),
            ({"loss": {"family": "linear-quadratic", "center": "north"}}, "loss.center"),
            ({"sampler": {"init": {"kind": "gaussian", "mean": [0.0, 1.0, 2.0]}}},
             "sampler.init.mean"),
            ({"sampler": {"algorithm": "greedy", "proposal_mean": [[0.0, 1.0]]}},
             "sampler.proposal_mean"),
        ],
        ids=["reference-length", "loss-length", "loss-text", "init-length", "proposal-shape"],
    )
    def test_per_axis_value_of_wrong_shape_is_a_config_error(self, tmp_path, capsys, body, key):
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"reference": {"dimension": 0}}, "reference.dimension"),
            ({"reference": {"dimension": -1}}, "reference.dimension"),
            ({"sampler": {"particles": 0}}, "sampler.particles"),
            ({"sampler": {"algorithm": "greedy", "points": 0}}, "sampler.points"),
            ({"sampler": {"algorithm": "greedy", "n_candidates": 0}}, "sampler.n_candidates"),
            ({"sampler": {"trace_every": 0}}, "sampler.trace_every"),
            ({"sampler": {"step_size": float("nan")}}, "sampler.step_size"),
            ({"sampler": {"step_size": float("inf")}}, "sampler.step_size"),
            ({"sampler": {"step_size": 0.0}}, "sampler.step_size"),
            ({"kernel": {"family": "imq", "lengthscale": -1.0}}, "lengthscale"),
            ({"kernel": {"family": "weighted-matrix", "c": 0.0}}, "c must be positive"),
            ({"kernel": {"family": "mixture", "members": [{"family": "imq"}] * 2,
                         "weights": [1.0, -1.0]}}, "weights"),
            ({"kernel": {"family": "mixture",
                         "members": [{"family": "gaussian", "lengthscale": 0.0}]}},
             "kernel.members[0]"),
        ],
        ids=["dimension-0", "dimension-negative", "particles-0", "points-0", "candidates-0",
             "trace-every-0", "step-nan", "step-inf", "step-0", "lengthscale", "c",
             "weights", "member"],
    )
    def test_bad_numeric_value_is_a_config_error(self, tmp_path, capsys, body, key):
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err


class TestEvalVerb:
    def test_round_trips_a_sampled_file(self, tmp_path, capsys):
        body = {
            "sampler": {"algorithm": "mfld", "particles": 6, "steps": 4,
                        "step_size": 0.05},
        }
        cfg = _write_config(tmp_path, body)
        out = tmp_path / "run"
        main(["sample", "--config", cfg, "--output", str(out)])
        trace_last = (out / "trace.csv").read_text().splitlines()[-1]
        capsys.readouterr()
        rc = main(
            ["eval", "--config", cfg, "--particles", str(out / "particles.csv")]
        )
        assert rc == 0
        lines = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["n"] == "6"
        np.testing.assert_allclose(
            float(lines["kgd_v2"]), float(trace_last.split(",")[1]), rtol=1e-15
        )
        assert float(lines["kgd_v"]) == pytest.approx(float(lines["kgd_v2"]) ** 0.5)
        assert "kgd_u2" in lines

    def test_single_particle_skips_the_u_statistic(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        write_particles(p, np.array([[0.0, 0.0]]))
        cfg = _write_config(tmp_path, {})
        assert main(["eval", "--config", cfg, "--particles", str(p)]) == 0
        out = capsys.readouterr().out
        assert "kgd_u2" not in out and "kgd_v2" in out

    def test_dimension_mismatch(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        write_particles(p, np.zeros((3, 4)))
        cfg = _write_config(tmp_path, {"reference": {"dimension": 2}})
        assert main(["eval", "--config", cfg, "--particles", str(p)]) == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gram_maps_to_exit_code_three(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        write_particles(p, np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        cfg = _write_config(tmp_path, {})
        assert main(["eval", "--config", cfg, "--particles", str(p)]) == 3
        captured = capsys.readouterr()
        assert "non-finite Stein Gram entry (0, 0)" in captured.err
        assert "kgd_v2" not in captured.out

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_score_maps_to_exit_code_three(self, tmp_path, capsys):
        # The potential's gradient overflows at the first atom: the score is
        # named before any Stein entry is built from it.
        p = tmp_path / "far.csv"
        write_particles(p, np.array([[1e10, 0.0], [0.0, 1.0]]))
        cfg = _write_config(tmp_path, {"loss": {"family": "linear-quadratic", "weights": 1e300}})
        assert main(["eval", "--config", cfg, "--particles", str(p)]) == 3
        captured = capsys.readouterr()
        assert "non-finite score at atom 0" in captured.err
        assert "kgd_v2" not in captured.out

    def test_missing_config_file(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        write_particles(p, np.zeros((1, 2)))
        rc = main(["eval", "--config", str(tmp_path / "nope.yaml"), "--particles", str(p)])
        assert rc == 2


class TestExperimentVerb:
    def test_unknown_preset(self, capsys):
        assert main(["experiment", "--preset", "nope"]) == 2
        assert "available" in capsys.readouterr().err

    def test_unknown_override(self, tmp_path):
        rc = main(
            ["experiment", "--preset", "gauss-identity", "--output",
             str(tmp_path / "o"), "--set", "szies=10"]
        )
        assert rc == 2

    @pytest.mark.parametrize("preset", ["gauss-identity", "clt-study"])
    @pytest.mark.parametrize("item", ["sizes=1;25", "replicates=1", "sizes=10", "sizes=10;10"])
    def test_degenerate_scaling_study_is_a_config_error(self, tmp_path, capsys, preset, item):
        out = tmp_path / "o"
        argv = ["experiment", "--preset", preset, "--output", str(out), "--set", item]
        assert main(argv) == 2
        assert "scaling study" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def _run(self, tmp_path, preset: str, *sets: str, seed: str = "0") -> Path:
        out = tmp_path / preset
        argv = ["experiment", "--preset", preset, "--seed", seed, "--output", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 0
        return out

    def _meta(self, out: Path) -> dict:
        return json.loads((out / "meta.json").read_text())

    def test_gauss_identity_small(self, tmp_path):
        out = self._run(
            tmp_path, "gauss-identity", "sizes=10;20", "replicates=3"
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "n,mean_v2,sd_v2,mean_u2,se_u2"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [10, 20]
        meta = self._meta(out)
        assert meta["knobs"]["sizes"] == [10, 20]
        assert {"slope_v_mean", "slope_v_sd"} <= set(meta["summary"])
        assert read_particles(out / "particles.csv").shape == (20, 2)

    def test_clt_study_small(self, tmp_path):
        out = self._run(
            tmp_path, "clt-study", "sizes=10;20", "replicates=3", "dimensions=2"
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "dimension,n,sd_v2"
        assert len(lines) == 3
        assert "slope_sd_d2" in self._meta(out)["summary"]

    def test_mfnn_stepsize_small(self, tmp_path):
        out = self._run(
            tmp_path, "mfnn-stepsize", "step_sizes=1e-4", "particles=6",
            "steps=5", "replicates=2", "n_data=30",
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step_size,median_kgd,p5_kgd,p95_kgd,n_diverged"
        parts = lines[1].split(",")
        assert float(parts[0]) == 1e-4 and int(parts[4]) == 0
        summary = self._meta(out)["summary"]["median_kgd_by_step_size"]
        assert len(summary) == 1

    def test_mfnn_compare_small(self, tmp_path):
        out = self._run(
            tmp_path, "mfnn-compare", "particles=6", "mfld_steps=4",
            "kgdd_particles=3", "kgdd_steps=2", "vi_sample=6", "vi_steps=2",
            "trace_every=2", "n_data=25",
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "arm,step,score_evals,kgd_v2"
        arms = {l.split(",")[0] for l in lines[1:]}
        assert arms == {"mfld", "kgdd", "param-vi"}
        finals = self._meta(out)["summary"]["final_kgd_v2"]
        assert set(finals) == arms
        # Particle file annotates one block per arm.
        header = (out / "particles.csv").read_text().splitlines()[:4]
        assert sum(l.startswith("# rows") for l in header) == 3

    def test_lv_compare_small(self, tmp_path):
        out = self._run(
            tmp_path, "lv-compare", "particles=2", "steps=2", "n_candidates=4",
            "refine_rounds=1", "trace_every=1",
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "arm,step,kgd_v2"
        arms = {l.split(",")[0] for l in lines[1:]}
        assert arms == {"mfld", "vgd", "greedy"}
        meta = self._meta(out)
        summary = meta["summary"]
        assert summary["ode_solves"] > 0
        # Each solved point was a miss first; the flow arms' first steps hit.
        assert summary["cache_misses"] >= summary["ode_solves"]
        assert summary["cache_hits"] > 0 and summary["cache_clears"] == 0
        assert read_particles(out / "particles.csv").shape == (6, 2)

    def test_lv_compare_lockstep_equals_separate_runs(self, tmp_path):
        # The preset drives its three arms together; each arm driven alone
        # on a fresh loss must give the same bytes and solve the same points.
        out = self._run(
            tmp_path, "lv-compare", "particles=2", "steps=2", "n_candidates=4",
            "refine_rounds=1", "trace_every=1", seed="3",
        )
        knobs = self._meta(out)["knobs"]
        series = gen_lv_data(int(knobs["data_seed"]))
        names, runs, solves = [], [], 0
        for k in range(3):
            loss = PredictiveKernelLoss(series.times, series.observations)
            name, stepper = _lv_arms(3, knobs, loss)[k]
            (run,), _ = drive([stepper], loss)
            names.append(name)
            runs.append(run)
            solves += loss.n_solves
        alone = tmp_path / "alone"
        alone.mkdir()
        _write_arm_runs(alone, names, runs)
        for name in ("trace.csv", "particles.csv"):
            assert (alone / name).read_bytes() == (out / name).read_bytes()
        assert self._meta(out)["summary"]["ode_solves"] == solves

    def test_lv_compare_solver_calls(self, tmp_path):
        # The lv-ode benchmark shape. Run one after another, the arms made
        # seven solver calls: three of two points per flow arm and one of
        # greedy's 240 candidates. In lockstep, the three rounds make three
        # calls, of 244, 4 and 4 points.
        out = self._run(
            tmp_path, "lv-compare", "particles=2", "steps=2", "refine_rounds=0",
            "n_candidates=120",
        )
        summary = self._meta(out)["summary"]
        assert summary["ode_solves"] == 252
        assert summary["solver_calls"] == 3 and summary["driver_rounds"] == 3

    def test_seed_is_recorded_and_respected(self, tmp_path):
        out_a = self._run(tmp_path, "gauss-identity", "sizes=10;20", "replicates=2")
        meta = self._meta(out_a)
        assert meta["seed"] == 0 and meta["preset"] == "gauss-identity"
        _assert_environment(meta)


class TestSelfCheck:
    def test_all_checks_pass(self, capsys):
        assert main(["self-check"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 14
        assert all(l.startswith("PASS ") for l in lines)
        assert any(l.startswith("PASS predictive-pair-block ") for l in lines)
        assert any(l.startswith("PASS stein-sums ") for l in lines)
        assert any(l.startswith("PASS particle-gradient ") for l in lines)
        assert any(l.startswith("PASS ode-sensitivities ") for l in lines)
        assert any(l.startswith("PASS ode-batch-invariance ") for l in lines)
        assert any(l.startswith("PASS radial-gram ") for l in lines)
        assert any(l.startswith("PASS tilted-gram ") for l in lines)
        assert any(l.startswith("PASS stein-gram ") for l in lines)
        assert any(l.startswith("PASS kernel-derivatives ") for l in lines)


class TestBenchmarkTracer:
    def test_wraps_every_entry_point_it_names(self):
        # The benchmark's tracer wraps kgd functions by name once the CLI is
        # loaded, and raises on a name that is gone: a traced benchmark run
        # then fails instead of measuring.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "benchmarks")]))
        probe = "import kgd.cli; import tracing; tracing.Tracer().install()"
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
