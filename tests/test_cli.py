"""Command-line front end: config validation, builders, file formats, verbs,
exit codes, and output determinism.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
are asserted directly; the experiment presets are exercised with shrunken
knob overrides.
"""

import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import kgd.cli as kgd_cli
from kgd import selfcheck
from kgd.cli import (
    _INITS,
    _KERNELS,
    _LOSSES,
    _PRESETS,
    _REFERENCE,
    _RUN,
    _SAMPLERS,
    ConfigError,
    Outputs,
    _apply_overrides,
    _count,
    _drive_arms,
    _family,
    _finite,
    _list,
    _positive,
    _lv_arms,
    _mfnn_arms,
    build_init,
    build_kernel,
    build_loss,
    build_reference,
    main,
    parse_config,
    read_particles,
    run_sampler,
    write_outputs,
    write_particles,
    )
from kgd.core import DiagonalGaussian, seeded_stream
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
                {"kernel": {"family": "mixture", "members": [{"family": "imq"}, {"scale": 2.0}]}}
            )
        with pytest.raises(ConfigError, match=r"sampler\.init\.sigma"):
            parse_config({"sampler": {"init": {"sigma": 1.0}}})
        with pytest.raises(ConfigError, match=r"kernel\.base\.c"):
            parse_config({"kernel": {"family": "weighted-matrix", "base": {"c": 1.0}}})

    def test_sections_must_be_mappings(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config({"kernel": 5})

    def test_readme_example_is_a_valid_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(yaml.safe_load(example))
        assert cfg["run"]["seed"] == 7 and cfg["sampler"]["steps"] == 200
        build_loss(cfg["loss"], build_reference(cfg["reference"]).dim)
        build_kernel(cfg["kernel"])

    def test_reads_yaml_files(self, tmp_path):
        path = _write_config(
            tmp_path,
            {"run": {"seed": 3}, "reference": {"dimension": 1}},
        )
        cfg = parse_config(path)
        assert cfg["run"]["seed"] == 3
        assert cfg["reference"]["dimension"] == 1


def _section(name: str, body: dict) -> dict:
    """Config section ``name`` resolved from ``body``, as the builders get it."""
    return parse_config({name: body})[name]


class TestBuilders:
    def test_kernel_families(self):
        assert build_kernel(_section("kernel", {"family": "imq", "lengthscale": 0.7})) == IMQ(0.7)
        assert build_kernel(_section("kernel", {"family": "gaussian"})) == Gaussian(1.0)
        mix = build_kernel(_section("kernel", {
            "family": "mixture",
            "members": [{"family": "imq", "lengthscale": 0.1}, {"family": "gaussian"}],
            "weights": [1.0, 2.0],
        }))
        assert isinstance(mix, Mixture) and mix.weights == (1.0, 2.0)
        wm = build_kernel(_section("kernel", {
            "family": "weighted-matrix", "c": 2.0, "exponent": 1.0,
            "base": {"family": "gaussian", "lengthscale": 0.5},
        }))
        assert isinstance(wm, WeightedMatrixKernel) and wm.base == Gaussian(0.5)

    def test_kernel_errors(self):
        with pytest.raises(ConfigError, match="unknown kernel.family"):
            _section("kernel", {"family": "matern"})
        with pytest.raises(ConfigError, match="non-empty"):
            _section("kernel", {"family": "mixture", "members": []})
        # A nested kernel is radial.
        with pytest.raises(ConfigError, match=r"unknown kernel\.base\.family"):
            _section("kernel", {"family": "weighted-matrix", "base": {"family": "mixture"}})

    def test_reference_broadcasts_scalars(self):
        ref = build_reference(_section("reference", {"dimension": 3, "mean": 1.5, "variance": 2.0}))
        np.testing.assert_array_equal(ref.mean, [1.5, 1.5, 1.5])
        np.testing.assert_array_equal(ref.variances, [2.0, 2.0, 2.0])
        ref = build_reference(_section("reference", {"dimension": 2, "mean": [0.0, 1.0],
                                                     "variance": [1.0, 4.0]}))
        np.testing.assert_array_equal(ref.mean, [0.0, 1.0])

    def test_loss_families(self):
        assert isinstance(build_loss(_section("loss", {"family": "zero"}), 2), ZeroLoss)
        lin = build_loss(
            _section("loss", {"family": "linear-quadratic", "center": 1.0, "weights": [2.0, 3.0]}), 2
        )
        assert isinstance(lin, LinearLoss)
        assert isinstance(
            build_loss(_section("loss", {"family": "interaction-quadratic"}), 2), InteractionLoss
        )
        mfr = build_loss(_section("loss", {"family": "mean-field-regression", "n_data": 20}), 4)
        assert isinstance(mfr, MeanFieldRegressionLoss)
        assert mfr.covariates.size == 20
        pk = build_loss(_section("loss", {"family": "predictive-kernel", "sigma": 1.0}), 2)
        assert isinstance(pk, PredictiveKernelLoss)

    def test_loss_dimension_guards(self):
        with pytest.raises(ConfigError, match="dimension = 4"):
            build_loss(_section("loss", {"family": "mean-field-regression"}), 2)
        with pytest.raises(ConfigError, match="dimension = 2"):
            build_loss(_section("loss", {"family": "predictive-kernel"}), 4)
        with pytest.raises(ConfigError, match="unknown loss.family"):
            _section("loss", {"family": "entropy"})

    def test_init_kinds(self):
        def init(body: dict) -> dict:
            return _section("sampler", {"init": body})["init"]

        ref = build_reference(_section("reference", {"dimension": 2}))
        a = build_init(init({"kind": "reference"}), ref, 5, seeded_stream(0, "i"))
        np.testing.assert_array_equal(a, ref.sample(seeded_stream(0, "i"), 5))
        b = build_init(
            init({"kind": "gaussian", "mean": 2.0, "variance": 0.25}), ref, 400,
            seeded_stream(1, "i"),
        )
        assert abs(b.mean() - 2.0) < 0.1 and abs(b.std() - 0.5) < 0.05
        with pytest.raises(ConfigError, match="init.kind"):
            init({"kind": "uniform"})
        point = build_init(init({"kind": "gaussian", "mean": [1.0, -2.0], "variance": 0}), ref,
                           3, seeded_stream(1, "i"))
        np.testing.assert_array_equal(point, [[1.0, -2.0]] * 3)  # a point mass


class _Spy(dict):
    """A resolved config section that records which keys are read."""

    def __init__(self, section: dict) -> None:
        super().__init__(section)
        self.read: set[str] = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)


FAMILY_TABLES = {"kernel": _KERNELS, "loss": _LOSSES, "sampler": _SAMPLERS,
                 "sampler.init": _INITS}
# (label, path, table) for every key table: the config sections, each family
# a section can pick, and each preset's knobs (path '': a knob is named by
# its key alone).
KEY_TABLES = ([("run", "run", _RUN), ("reference", "reference", _REFERENCE)]
              + [(f"{path}[{family}]", path, table)
                 for path, (_, _, families) in FAMILY_TABLES.items()
                 for family, table in families.items()]
              + [(preset, "", table) for preset, (_, table) in _PRESETS.items()])


class TestTables:
    """Every user-set value comes from one table: a config family lists
    exactly the keys its builder reads, and every key of every config and
    preset knob table has a parser that its default passes."""

    @staticmethod
    def _reads(section: dict, build) -> None:
        spy = _Spy(section)
        build(spy)
        assert spy.read == set(section)

    @pytest.mark.parametrize("family", sorted(_KERNELS[2]))
    def test_kernel_families_read_exactly_their_keys(self, family):
        body = {"family": family} | ({"members": [{}]} if family == "mixture" else {})
        self._reads(_section("kernel", body), build_kernel)

    @pytest.mark.parametrize("family", sorted(_LOSSES[2]))
    def test_loss_families_read_exactly_their_keys(self, family):
        dim = 4 if family == "mean-field-regression" else 2
        self._reads(_section("loss", {"family": family}), lambda cfg: build_loss(cfg, dim))

    @pytest.mark.parametrize("kind", sorted(_INITS[2]))
    def test_init_kinds_read_exactly_their_keys(self, kind):
        ref = DiagonalGaussian.standard(2)
        self._reads(_section("sampler", {"init": {"kind": kind}})["init"],
                    lambda cfg: build_init(cfg, ref, 3, seeded_stream(0, "i")))

    def test_reference_reads_exactly_its_keys(self):
        self._reads(_section("reference", {}), build_reference)

    @pytest.mark.parametrize("algorithm", sorted(_SAMPLERS[2]))
    def test_sampler_algorithms_read_exactly_their_keys(self, algorithm):
        small = {"particles": 2, "steps": 1, "points": 1, "n_candidates": 2, "refine_rounds": 0}
        keys = _SAMPLERS[2][algorithm]
        body = {"algorithm": algorithm} | {k: v for k, v in small.items() if k in keys}
        ref = DiagonalGaussian.standard(2)
        self._reads(_section("sampler", body),
                    lambda cfg: run_sampler(cfg, IMQ(1.0), ref, ZeroLoss(), 0))

    # A key whose default its parser refuses: the config must give it.
    REQUIRED = {"kernel[mixture].members"}

    @pytest.mark.parametrize("label, path, table", KEY_TABLES,
                             ids=[label for label, _, _ in KEY_TABLES])
    def test_every_knob_has_a_parser_that_its_default_passes(self, label, path, table):
        for key, entry in table.items():
            assert isinstance(entry, tuple) and len(entry) == 2, key
            default, parse = entry
            assert callable(parse), key
            name = f"{path}.{key}" if path else key
            if f"{label}.{key}" in self.REQUIRED:
                with pytest.raises(ConfigError, match=re.escape(name)):
                    parse(default, name)
                continue
            value = parse(default, name)
            if isinstance(default, dict):  # a nested section: its family's keys
                assert isinstance(value, dict) and value, key
            else:
                assert value == default and type(value) is type(default), key

    def test_runners_read_typed_knobs(self):
        source = Path(kgd_cli.__file__).read_text()
        for cast in ("int(knobs", "float(knobs", "_count(knobs"):
            assert cast not in source, cast


def _selector(table: tuple, path: str):
    """The key that picks a family of ``table``, read by its section's parser."""
    section = _family(table)
    return lambda raw, name: section({table[0]: raw}, path)


# (case id, name, parser) for every leaf key of every table. A new key joins
# the sweep by being in its table.
LEAVES = ([(f"{label}.{key}", f"{path}.{key}" if path else key, parse)
           for label, path, table in KEY_TABLES for key, (_, parse) in table.items()]
          + [(f"{path}.{table[0]}", f"{path}.{table[0]}", _selector(table, path))
             for path, table in FAMILY_TABLES.items()])
SWEEP = [None, True, False, "x", "", [], {}, [1.0], -1, 0, 0.5, 2.5, -0.0,
         math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-200]


class TestSweep:
    """Every leaf key of every table gets the same values through its own
    parser. Each is a ConfigError naming the key, unless listed valid here."""

    REALS = [-1, 0, 0.5, 2.5, -0.0, 1e308, -1e308, 1e-200]
    PER_AXIS = REALS + [[1.0]]
    POSITIVE = [0.5, 2.5, 1e308, 1e-200]
    # A kernel divides by its squared scale: the square must be finite and
    # non-zero (1e-200 squares to 0.0).
    SCALE = [0.5, 2.5]
    SEED = [0, -0.0]  # a whole-valued float is a count
    VALID = {
        "run.seed": SEED,
        "run.output": [None, "x", ""],  # the empty path is refused before the run
        "reference.mean": PER_AXIS,
        "reference.variance": POSITIVE + [[1.0]],
        "kernel[imq].lengthscale": SCALE,
        "kernel[gaussian].lengthscale": SCALE,
        "kernel[mixture].weights": [None] + POSITIVE + [[1.0]],
        "kernel[weighted-matrix].c": SCALE,
        "kernel[weighted-matrix].exponent": REALS,
        "kernel[weighted-matrix].base": [None, {}],
        "loss[linear-quadratic].center": PER_AXIS,
        "loss[linear-quadratic].weights": PER_AXIS,
        "loss[mean-field-regression].data_seed": SEED,
        "loss[mean-field-regression].lam": POSITIVE,
        "loss[predictive-kernel].data_seed": SEED,
        "loss[predictive-kernel].sigma": [0, 0.5, 2.5, -0.0, 1e-200],  # enters as 1 + sigma^2
        "loss[predictive-kernel].lam": [None] + POSITIVE,
        "sampler[mfld].step_size": POSITIVE,
        "sampler[mfld].init": [None, {}],
        "sampler[vgd].step_size": POSITIVE,
        "sampler[vgd].init": [None, {}],
        "sampler[kgdd].step_size": POSITIVE,
        "sampler[kgdd].init": [None, {}],
        "sampler[greedy].proposal_mean": PER_AXIS,
        "sampler[greedy].proposal_scale": POSITIVE,
        "sampler[greedy].refine_rounds": SEED,
        "sampler.init[gaussian].mean": PER_AXIS,
        "sampler.init[gaussian].variance": [0, 0.5, 2.5, -0.0, 1e308, 1e-200, [1.0]],
        "gauss-identity.sizes": [[1.0]],
        "gauss-identity.lengthscale": SCALE,
        "clt-study.sizes": [[1.0]],
        "clt-study.dimensions": [[1.0]],
        "clt-study.offset": REALS,
        "clt-study.lengthscale": SCALE,
        "mfnn-stepsize.data_seed": SEED,
        "mfnn-stepsize.lam": POSITIVE,
        "mfnn-stepsize.lengthscale": SCALE,
        "mfnn-stepsize.step_sizes": POSITIVE + [[1.0]],
        "mfnn-compare.data_seed": SEED,
        "mfnn-compare.lam": POSITIVE,
        "mfnn-compare.lengthscale": SCALE,
        "mfnn-compare.mfld_step_size": POSITIVE,
        "mfnn-compare.kgdd_step_size": POSITIVE,
        "mfnn-compare.vi_step_size": POSITIVE,
        "lv-compare.data_seed": SEED,
        "lv-compare.mfld_step_size": POSITIVE,
        "lv-compare.vgd_step_size": POSITIVE,
        "lv-compare.proposal_scale": POSITIVE,
        "lv-compare.refine_rounds": SEED,
        "lv-compare.true_x2": REALS,
    }

    @pytest.mark.parametrize("case, name, parse", LEAVES, ids=[case for case, _, _ in LEAVES])
    def test_value_is_valid_or_a_config_error_naming_the_key(self, case, name, parse):
        valid = {repr(value) for value in self.VALID.get(case, [])}
        for value in SWEEP:
            try:
                parse(value, name)
            except ConfigError as exc:
                assert repr(value) not in valid, f"{name} refuses {value!r}: {exc}"
                assert name in str(exc), f"{name} given {value!r}: {exc}"
            else:
                assert repr(value) in valid, f"{name} accepts {value!r}"

    def test_every_valid_list_names_a_swept_key(self):
        assert set(self.VALID) <= {case for case, _, _ in LEAVES}

    # Loop counts (steps, replicates, ...) get 1e308 through their parsers in
    # the sweep above, not through main: before the bound, such a run did
    # not end.
    def test_counts_stop_at_two_to_the_53(self):
        assert _count(2**53, "n") == 2**53
        assert _count(1e3, "n") == 1000 and type(_count(1e3, "n")) is int
        for raw in (2**53 + 1, 1e308, 10**400):
            with pytest.raises(ConfigError, match="n must be a whole number"):
                _count(raw, "n")


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
    TABLE = {"steps": (10, _count), "step_size": (0.5, _positive),
             "sizes": ([25, 50], _list(_count)), "offset": (1.0, _finite)}

    def test_typed_parsing(self):
        out = _apply_overrides(
            self.TABLE, ["steps=20", "step_size=1e-3", "sizes=10;20;40", "offset=-2"]
        )
        assert out == {"steps": 20, "step_size": 1e-3, "sizes": [10, 20, 40], "offset": -2.0}
        assert type(out["offset"]) is float
        # A single value for a list knob is a list of one.
        assert _apply_overrides(self.TABLE, ["sizes=30"])["sizes"] == [30]

    def test_defaults_pass_through_their_parsers(self):
        assert _apply_overrides(self.TABLE, []) == {
            "steps": 10, "step_size": 0.5, "sizes": [25, 50], "offset": 1.0}
        with pytest.raises(ConfigError, match="steps must be a whole number"):
            _apply_overrides({"steps": (-1, _count)}, [])

    def test_unknown_key_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            _apply_overrides(self.TABLE, ["stepss=20"])

    def test_malformed_values(self):
        with pytest.raises(ConfigError, match="key=value"):
            _apply_overrides(self.TABLE, ["steps"])
        with pytest.raises(ConfigError, match="cannot parse"):
            _apply_overrides(self.TABLE, ["steps=many"])
        with pytest.raises(ConfigError, match=r"sizes\[1\] must be a whole number"):
            _apply_overrides(self.TABLE, ["sizes=10;0"])
        with pytest.raises(ConfigError, match="steps must be a whole number"):
            _apply_overrides(self.TABLE, ["steps=1;2"])


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
        final = kgd_v_squared(IMQKernel(1.0), DiagonalGaussian.standard(2), ZeroLoss(),
                              EmpiricalMeasure(atoms))
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

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"kernel": {"family": "imq", "c": 1.0}}, "kernel.c"),
            ({"sampler": {"algorithm": "mfld", "optimizer": "adam"}}, "sampler.optimizer"),
            ({"sampler": {"algorithm": "greedy", "trace_every": 2}}, "sampler.trace_every"),
            ({"loss": {"family": "zero", "center": 1.0}}, "loss.center"),
            ({"sampler": {"init": {"kind": "reference", "mean": 1.0}}}, "sampler.init.mean"),
            ({"loss": {"lam": -4}}, "loss.lam"),
            ({"sampler": {"points": -7}}, "sampler.points"),
        ],
        ids=["imq-c", "mfld-optimizer", "greedy-trace-every", "zero-center",
             "reference-init-mean", "zero-lam", "mfld-points"],
    )
    def test_key_the_family_does_not_read_is_a_config_error(self, tmp_path, capsys, body, key):
        cfg = _write_config(tmp_path, body)
        out = tmp_path / "o"
        assert main(["sample", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", [True, False], ids=["--output", "run.output"])
    def test_output_naming_a_file_is_a_config_error(self, tmp_path, capsys, flag):
        # Checked before the run: exit 2 naming the path, the file untouched.
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        if flag:
            argv = ["sample", "--config", self._config(tmp_path), "--output", str(afile)]
        else:
            body = {"run": {"seed": 4, "output": str(afile)}, "loss": {"family": "zero"}}
            argv = ["sample", "--config", _write_config(tmp_path, body)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(afile) in err
        assert afile.read_text() == "keep\n"

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
            ({"sampler": {"algorithm": "greedy", "proposal_scale": "abc"}},
             "sampler.proposal_scale"),
            ({"sampler": {"algorithm": "greedy", "refine_rounds": -3}}, "sampler.refine_rounds"),
            ({"reference": {"dimension": 4},
              "loss": {"family": "mean-field-regression", "lam": "abc"}}, "loss.lam"),
            ({"reference": {"dimension": 4},
              "loss": {"family": "mean-field-regression", "n_data": 0}}, "loss.n_data"),
            ({"loss": {"family": "predictive-kernel", "data_seed": "abc"}}, "loss.data_seed"),
            ({"loss": {"family": "predictive-kernel", "sigma": "abc"}}, "loss.sigma"),
            ({"loss": {"family": "predictive-kernel", "sigma": -1.0}}, "loss.sigma"),
            ({"loss": {"family": "predictive-kernel", "sigma": float("nan")}}, "loss.sigma"),
            ({"run": {"seed": -1}}, "run.seed"),
        ],
        ids=["dimension-0", "dimension-negative", "particles-0", "points-0", "candidates-0",
             "trace-every-0", "step-nan", "step-inf", "step-0", "lengthscale", "c",
             "weights", "member", "proposal-scale-text", "refine-rounds-negative", "lam-text",
             "n-data-0", "data-seed-text", "sigma-text", "sigma-negative", "sigma-nan",
             "seed-negative"],
    )
    def test_bad_numeric_value_is_a_config_error(self, tmp_path, capsys, body, key):
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"kernel": {"family": "imq", "lengthscale": True}}, "kernel.lengthscale"),
            ({"kernel": {"family": "mixture", "members": [{"family": "imq"}] * 2,
                         "weights": [1.0, True]}}, "kernel.weights[1]"),
            ({"reference": {"mean": [True, False]}}, "reference.mean"),
            ({"loss": {"family": "predictive-kernel", "sigma": False}}, "loss.sigma"),
            ({"sampler": {"step_size": True}}, "sampler.step_size"),
        ],
        ids=["lengthscale", "weights", "mean", "sigma", "step-size"],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, body, key):
        # YAML reads true, false, yes and no as booleans, which float() would
        # take as 1.0 and 0.0.
        cfg = _write_config(tmp_path, body)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err

    def test_numeric_strings_are_numbers(self):
        # PyYAML reads 1e-3 (no dot) as the string '1e-3'.
        cfg = parse_config(yaml.safe_load("kernel: {lengthscale: 5e-1}\n"
                                          "reference: {mean: [1e-3, 2]}"))
        assert build_kernel(cfg["kernel"]) == IMQ(0.5)
        np.testing.assert_array_equal(build_reference(cfg["reference"]).mean, [1e-3, 2.0])


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

    def test_root_clips_roundoff_below_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kgd_cli, "kgd_v_squared", lambda *args: -1e-16)
        p = tmp_path / "p.csv"
        write_particles(p, np.array([[0.0, 0.0]]))
        assert main(["eval", "--config", _write_config(tmp_path, {}), "--particles", str(p)]) == 0
        assert "kgd_v 0\n" in capsys.readouterr().out

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

    def test_non_finite_gram_maps_to_exit_code_three(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        write_particles(p, np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        cfg = _write_config(tmp_path, {})
        assert main(["eval", "--config", cfg, "--particles", str(p)]) == 3
        captured = capsys.readouterr()
        assert "non-finite Stein Gram entry (0, 0)" in captured.err
        assert "kgd_v2" not in captured.out

    def test_stein_overflow_is_one_stderr_line(self, tmp_path):
        # Scores near 1e200 overflow the Stein pass. Run outside pytest's
        # warning filters, so a numpy warning would print before the message.
        root = Path(__file__).resolve().parents[1]
        (tmp_path / "p.csv").write_text("1,2\n3,4\n0.5,1\n")
        cfg = _write_config(tmp_path, {"reference": {"variance": 1.0e-200}})
        argv = ["eval", "--config", cfg, "--particles", "p.csv"]
        out = subprocess.run([sys.executable, "-m", "kgd.cli", *argv], cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=str(root / "src")),
                             capture_output=True, text=True)
        assert out.returncode == 3
        assert out.stderr.startswith("numeric failure: non-finite Stein Gram entry")
        assert len(out.stderr.splitlines()) == 1 and out.stdout == ""

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


class TestInputFaults:
    """Inputs that once ended in a traceback or a misleading message. Each is
    exit 2 naming what is wrong, with no traceback and nothing written."""

    CASES = {
        "reference-variance-sample": ("sample", {"reference": {"variance": -1}}, None,
                                      "reference.variance"),
        "reference-variance-eval": ("eval", {"reference": {"variance": [1.0, -1.0]}}, "1,2\n",
                                    "reference.variance[1]"),
        "init-variance": ("sample", {"sampler": {"init": {"kind": "gaussian", "variance": -1}}},
                          None, "sampler.init.variance"),
        "run-output": ("sample", {"run": {"output": 7}}, None, "run.output"),
        "header-without-hash": ("eval", {}, "x0,x1\n1,2\n", "particles file"),
        "ragged-rows": ("eval", {}, "1,2\n3,4,5\n", "particles file"),
        "non-numeric-cell": ("eval", {}, "1,2\n3,abc\n", "particles file"),
        "directory": ("eval", {}, "", "particles file"),
        "nan-coordinate": ("eval", {}, "1,2\nnan,4\n", "particles file"),
        "empty-file": ("eval", {}, "", "particles file"),
        "negative-seed": ("experiment", ["--preset", "gauss-identity", "--seed", "-1", "--set",
                                         "sizes=10;20", "--set", "replicates=2"], None, "--seed"),
        # The parametric arm differentiates the U-statistic; one atom failed mid-run.
        "vi-sample-one": ("experiment", ["--preset", "mfnn-compare", "--set", "vi_sample=1"], None,
                          "vi_sample"),
        # eval builds no sampler, but every section is parsed.
        "eval-unbuilt-section": ("eval", {"sampler": {"steps": -1}}, "1,2\n", "sampler.steps"),
        # A count under 2**53 that asks for 64 PiB: numpy refuses it at once, allocating nothing.
        "reference-dimension-memory": ("eval", {"reference": {"dimension": 2**53}}, "1,2\n",
                                       "the run needs more memory than is available"),
        # Its square underflows to 0.0, which the kernel divides by.
        "tiny-lengthscale": ("eval", {"kernel": {"family": "imq", "lengthscale": 1e-200}},
                             "1,2\n", "kernel.lengthscale"),
    }

    @staticmethod
    def _refused(argv: list[str], key: str, tmp_path: Path, capsys) -> None:
        """``main(argv)`` is exit 2 with one config-error line naming ``key``,
        no traceback, and nothing written to ``tmp_path``."""
        before = set(tmp_path.iterdir())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("case", list(CASES))
    def test_is_a_config_error(self, tmp_path, capsys, monkeypatch, case):
        verb, body, particles, key = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        if verb == "experiment":
            argv = ["experiment", *body, "--output", "o"]
        elif verb == "sample":  # run.output is the output unless --output is given
            argv = ["sample", "--config", _write_config(tmp_path, body)]
            argv += [] if "run" in body else ["--output", "o"]
        else:
            argv = ["eval", "--config", _write_config(tmp_path, body)]
            path = tmp_path / "p.csv"
            if case == "directory":
                path.mkdir()
            else:
                path.write_text(particles)
            argv += ["--particles", str(path)]
        self._refused(argv, key, tmp_path, capsys)

    # A config file that is not YAML, not UTF-8 or not a file, and an empty output path,
    # which would otherwise name the working directory.
    PATH_CASES = {
        "config-not-yaml": (["sample", "--config", "bad.yaml", "--output", "o"],
                            "config error: config file 'bad.yaml': expected ',' or ']', but got "
                            "'<stream end>' (line 2, column 1)\n"),
        "config-not-utf8": (["sample", "--config", "binary.yaml", "--output", "o"],
                            "config file 'binary.yaml'"),
        "config-directory": (["sample", "--config", "cfgdir", "--output", "o"], "config file"),
        "sample-empty-output": (["sample", "--config", "ok.yaml", "--output", ""], "--output"),
        "run-output-empty": (["sample", "--config", "empty-out.yaml"], "run.output"),
        "experiment-empty-output": (["experiment", "--preset", "gauss-identity", "--set",
                                     "sizes=10;20", "--set", "replicates=2", "--output", ""],
                                    "--output"),
    }

    @pytest.mark.parametrize("case", list(PATH_CASES))
    def test_bad_path_is_a_config_error(self, tmp_path, capsys, monkeypatch, case):
        argv, key = self.PATH_CASES[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text("reference: [1, 2\n")
        (tmp_path / "binary.yaml").write_bytes(b"run: {seed: 1}\n\xff\n")
        (tmp_path / "cfgdir").mkdir()
        _write_config(tmp_path, {"loss": {"family": "zero"}}, "ok.yaml")
        _write_config(tmp_path, {"run": {"output": ""}, "loss": {"family": "zero"}},
                      "empty-out.yaml")
        self._refused(argv, key, tmp_path, capsys)

    # A huge real that a kernel or the predictive loss squares as a Python
    # float (OverflowError), and a huge count that sizes an array (numpy's
    # "Maximum allowed dimension exceeded"): both ended in a traceback.
    HUGE_CASES = {
        "kernel-lengthscale": ({"kernel": {"lengthscale": 1e308}}, "kernel.lengthscale"),
        "member-lengthscale": ({"kernel": {"family": "mixture",
                                           "members": [{"lengthscale": 1e308}]}},
                               "kernel.members[0].lengthscale"),
        "weighted-matrix-c": ({"kernel": {"family": "weighted-matrix", "c": 1e308}}, "kernel.c"),
        "loss-sigma": ({"loss": {"family": "predictive-kernel", "sigma": 1e308}}, "loss.sigma"),
        "reference-dimension": ({"reference": {"dimension": 1e308}}, "reference.dimension"),
        "loss-n-data": ({"reference": {"dimension": 4},
                         "loss": {"family": "mean-field-regression", "n_data": 1e308}},
                        "loss.n_data"),
        "sampler-particles": ({"sampler": {"particles": 1e308}}, "sampler.particles"),
        "sampler-n-candidates": ({"sampler": {"algorithm": "greedy", "n_candidates": 1e308}},
                                 "sampler.n_candidates"),
        **{f"{preset}-lengthscale": ((preset, "lengthscale=1e308"), "lengthscale")
           for preset in ("gauss-identity", "clt-study", "mfnn-stepsize", "mfnn-compare")},
        "gauss-identity-dimension": (("gauss-identity", "dimension=1e308"), "dimension"),
        "clt-study-dimensions": (("clt-study", "dimensions=2;1e308"), "dimensions[1]"),
        "mfnn-stepsize-n-data": (("mfnn-stepsize", "n_data=1e308"), "n_data"),
        **{f"mfnn-compare-{knob}": (("mfnn-compare", f"{knob}=1e308"), knob)
           for knob in ("particles", "kgdd_particles", "vi_sample")},
        "lv-compare-n-candidates": (("lv-compare", "n_candidates=1e308"), "n_candidates"),
    }

    @pytest.mark.parametrize("case", list(HUGE_CASES))
    def test_huge_value_is_a_config_error(self, tmp_path, capsys, monkeypatch, case):
        spec, key = self.HUGE_CASES[case]
        monkeypatch.chdir(tmp_path)
        if isinstance(spec, dict):
            argv = ["sample", "--config", _write_config(tmp_path, spec), "--output", "o"]
        else:
            preset, item = spec
            argv = ["experiment", "--preset", preset, "--set", item, "--output", "o"]
        self._refused(argv, key, tmp_path, capsys)


MFNN_SMALL = ("particles=6", "mfld_steps=4", "kgdd_particles=3", "kgdd_steps=2", "vi_sample=6",
              "vi_steps=2", "trace_every=2", "n_data=25")


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
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, item",
        [("mfnn-compare", "lengthscale=0"), ("clt-study", "lengthscale=0"),
         ("gauss-identity", "lengthscale=1e-200"),
         ("mfnn-compare", "kgdd_step_size=-1"), ("lv-compare", "vgd_step_size=0"),
         ("mfnn-compare", "mfld_step_size=-1"), ("lv-compare", "mfld_step_size=-1"),
         ("mfnn-compare", "vi_steps=-2"), ("mfnn-stepsize", "lam=0"),
         ("mfnn-stepsize", "steps=-1"), ("lv-compare", "steps=-1"),
         ("mfnn-stepsize", "step_sizes=-1"), ("lv-compare", "proposal_scale=-1"),
         ("mfnn-compare", "data_seed=-1"), ("lv-compare", "data_seed=-1"),
         ("clt-study", "dimensions=0"), ("gauss-identity", "dimension=0"),
         ("lv-compare", "true_x2=nan"), ("clt-study", "offset=inf"),
         ("mfnn-compare", "trace_every=0"), ("mfnn-compare", "particles=0"),
         ("mfnn-compare", "vi_sample=0"), ("mfnn-stepsize", "replicates=0"),
         ("mfnn-stepsize", "n_data=0"), ("lv-compare", "n_candidates=0"),
         ("lv-compare", "refine_rounds=-1")],
    )
    def test_bad_knob_is_a_config_error_before_any_output(self, tmp_path, capsys, preset, item):
        out = tmp_path / "o"
        argv = ["experiment", "--preset", preset, "--output", str(out), "--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and item.split("=")[0] in err
        assert not out.exists()

    def test_vi_divergence_maps_to_exit_code_three(self, tmp_path, capsys):
        # The parametric arm runs as a flow, so a blow-up of its pushed
        # sample is named like any other sampler's.
        argv = ["experiment", "--preset", "mfnn-compare", "--output", str(tmp_path / "o"),
                "--set", "particles=4", "--set", "mfld_steps=2", "--set", "kgdd_steps=1",
                "--set", "vi_step_size=1e9", "--set", "n_data=25"]
        assert main(argv) == 3
        assert "diverged at step 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_all_diverged_step_size_sweep_writes_no_particles(self, tmp_path, capsys):
        # Every run diverges, so no run has final particles: the preset
        # writes its trace and meta only, and names just those.
        out = tmp_path / "st"
        argv = ["experiment", "--preset", "mfnn-stepsize", "--output", str(out),
                "--set", "step_sizes=1e3", "--set", "replicates=2", "--set", "steps=3"]
        assert main(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == ["meta.json", "trace.csv"]
        assert capsys.readouterr().out == f"wrote {out}/trace.csv, meta.json\n"
        assert (out / "trace.csv").read_text().splitlines()[1].endswith(",2")

    def test_diverged_medians_are_null_in_strict_json(self, tmp_path):
        # Every run diverges: meta.json holds null medians, not the bare
        # token Infinity, which strict JSON parsers reject.
        out = tmp_path / "st"
        argv = ["experiment", "--preset", "mfnn-stepsize", "--output", str(out),
                "--set", "step_sizes=1e3", "--set", "replicates=2", "--set", "steps=3"]
        assert main(argv) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        meta = json.loads((out / "meta.json").read_text(), parse_constant=reject)
        assert meta["summary"]["median_kgd_by_step_size"] == {"1000.0": None}

    def test_non_finite_meta_is_a_numeric_failure_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        outputs = Outputs(["a"], [[1.0]], None)
        with pytest.raises(FloatingPointError, match="non-finite"):
            write_outputs(out, outputs, {"summary": {"value": float("nan")}})
        assert not out.exists()

    @pytest.mark.parametrize("inside", [False, True], ids=["file", "under-a-file"])
    def test_output_naming_a_file_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                    inside):
        # Checked before any work: exit 2 naming the path, the file untouched.
        afile = tmp_path / "afile"
        afile.write_text("keep\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("the preset ran")

        runner, table = _PRESETS["gauss-identity"]
        monkeypatch.setitem(_PRESETS, "gauss-identity", (forbidden, table))
        out = afile / "sub" if inside else afile
        argv = ["experiment", "--preset", "gauss-identity", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(out) in err
        assert afile.read_text() == "keep\n"

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
        summary = self._meta(out)["summary"]
        assert len(summary["median_kgd_by_step_size"]) == 1
        # Each replicate fits its 5 steps' configurations and the final one.
        assert summary["network_fits"] == 2 * 6

    def test_mfnn_compare_small(self, tmp_path):
        out = self._run(tmp_path, "mfnn-compare", *MFNN_SMALL)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "arm,step,score_evals,kgd_v2"
        arms = {l.split(",")[0] for l in lines[1:]}
        assert arms == {"mfld", "kgdd", "param-vi"}
        summary = self._meta(out)["summary"]
        assert set(summary["final_kgd_v2"]) == arms
        # One fit per configuration: mfld's 5, kgdd's 3 and param-vi's 3 (its
        # first step scores the atoms its first trace row fitted).
        assert summary["network_fits"] == 5 + 3 + 3
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
        assert summary["pair_blocks"] > 0
        assert summary["solver"] == {"method": "taylor", "order": 12, "step": 0.1}
        assert read_particles(out / "particles.csv").shape == (6, 2)

    def _assert_same_files(self, tmp_path, out: Path, arms: list[Outputs]) -> None:
        """The per-arm outputs ``arms``, stacked in order, give the bytes of
        the preset's ``trace.csv`` and ``particles.csv`` in ``out``."""
        alone = tmp_path / "alone"
        write_outputs(alone, Outputs(arms[0].header, [row for arm in arms for row in arm.rows],
                                     np.vstack([arm.atoms for arm in arms]),
                                     [group for arm in arms for group in arm.groups]), {})
        for name in ("trace.csv", "particles.csv"):
            assert (alone / name).read_bytes() == (out / name).read_bytes()

    def test_lv_compare_lockstep_equals_separate_runs(self, tmp_path):
        # The preset drives its three arms together; each arm driven alone
        # on a fresh loss must give the same bytes and solve the same points.
        out = self._run(
            tmp_path, "lv-compare", "particles=2", "steps=2", "n_candidates=4",
            "refine_rounds=1", "trace_every=1", seed="3",
        )
        knobs = self._meta(out)["knobs"]
        series = gen_lv_data(knobs["data_seed"])
        arms, solves = [], 0
        for k in range(3):
            loss = PredictiveKernelLoss(series.times, series.observations)
            arms.append(_drive_arms([_lv_arms(3, knobs, loss)[k]], loss)[0])
            solves += loss.n_solves
        self._assert_same_files(tmp_path, out, arms)
        assert self._meta(out)["summary"]["ode_solves"] == solves

    def test_mfnn_compare_lockstep_equals_separate_runs(self, tmp_path):
        # As for lv-compare: each arm driven alone on a fresh loss gives the
        # preset's bytes, with score_evals = step x the arm's particles, and
        # the arms' network fits add up to the preset's.
        out = self._run(tmp_path, "mfnn-compare", *MFNN_SMALL, seed="3")
        knobs = self._meta(out)["knobs"]
        arms, fits = [], 0
        for k in range(3):
            loss = build_loss({**knobs, "family": "mean-field-regression"}, 4)
            arm, runs, _ = _drive_arms([_mfnn_arms(3, knobs, loss)[k]], loss)
            (run,) = runs.values()
            rows = [[name, step, float(step * len(run.atoms)), value]
                    for name, step, value in arm.rows]
            arms.append(Outputs(["arm", "step", "score_evals", "kgd_v2"], rows, arm.atoms,
                                arm.groups))
            fits += loss.fits
        self._assert_same_files(tmp_path, out, arms)
        assert self._meta(out)["summary"]["network_fits"] == fits

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

    def test_mfnn_stepsize_root_clips_roundoff_below_zero(self, tmp_path, monkeypatch):
        # Each run's final is the clipped root, not a math-domain error.
        monkeypatch.setattr(kgd_cli, "kgd_v_squared", lambda *args: -1e-16)
        out = self._run(tmp_path, "mfnn-stepsize", "step_sizes=1e-4", "particles=4", "steps=2",
                        "replicates=2", "n_data=20")
        assert (out / "trace.csv").read_text().splitlines()[1].split(",")[1] == "0"
        assert self._meta(out)["summary"]["median_kgd_by_step_size"] == {"0.0001": 0.0}

    def test_seed_is_recorded_and_respected(self, tmp_path):
        out_a = self._run(tmp_path, "gauss-identity", "sizes=10;20", "replicates=2")
        meta = self._meta(out_a)
        assert meta["seed"] == 0 and meta["preset"] == "gauss-identity"
        _assert_environment(meta)


class TestPresetRunners:
    SMALL = {
        "gauss-identity": ["sizes=10;20", "replicates=2"],
        "clt-study": ["sizes=10;20", "replicates=2", "dimensions=2"],
        "mfnn-stepsize": ["step_sizes=1e-4", "particles=4", "steps=2", "replicates=2",
                          "n_data=20"],
        "mfnn-compare": MFNN_SMALL,
        "lv-compare": ["particles=2", "steps=1", "n_candidates=4", "refine_rounds=0"],
    }

    @pytest.mark.parametrize("preset", sorted(_PRESETS))
    def test_runner_returns_what_it_writes_and_writes_nothing(self, tmp_path, monkeypatch,
                                                              preset):
        # A runner is a function of (seed, knobs); only ``write_outputs``,
        # after the run, writes its files.
        runner, table = _PRESETS[preset]
        assert list(inspect.signature(runner).parameters) == ["seed", "knobs"]

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{preset} runner wrote a file")

        for name in ("write_csv", "write_particles", "write_meta", "write_outputs"):
            monkeypatch.setattr(kgd_cli, name, forbidden)
        monkeypatch.chdir(tmp_path)
        result = runner(0, _apply_overrides(table, self.SMALL[preset]))
        assert isinstance(result, tuple) and len(result) == 2
        outputs, summary = result
        assert isinstance(outputs, Outputs) and isinstance(summary, dict)
        assert list(tmp_path.iterdir()) == []


class TestSelfCheck:
    @pytest.mark.parametrize("check", [check for _, check in selfcheck.CHECKS],
                             ids=[name for name, _ in selfcheck.CHECKS])
    def test_check_passes(self, check):
        ok, metric = check()
        assert ok, metric

    def test_verb_prints_one_pass_line_per_row_in_table_order(self, capsys):
        assert main(["self-check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = [["PASS", name] for name, _ in selfcheck.CHECKS]
        assert [line.split(" ", 2)[:2] for line in lines] == want
        assert all(line.split(" ", 2)[2].startswith("(") and line.endswith(")") for line in lines)

    def test_a_failing_or_raising_row_fails_only_its_line(self, capsys, monkeypatch):
        def raising():
            raise ValueError("no solve")

        ran = []
        rows = (("first", lambda: ran.append("first") or (True, "fine")),
                ("failing", lambda: (False, "off by 2")),
                ("raising", raising),
                ("last", lambda: ran.append("last") or (True, "fine")))
        monkeypatch.setattr(selfcheck, "CHECKS", rows)
        assert main(["self-check"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "PASS first (fine)", "FAIL failing (off by 2)",
            "FAIL raising (ValueError: no solve)", "PASS last (fine)"]
        assert ran == ["first", "last"]
        assert err.startswith("Traceback") and "in raising" in err  # the raise, for debugging

    def test_rows_draw_from_their_own_streams(self):
        # A row's numbers do not depend on the rows run before it.
        check = dict(selfcheck.CHECKS)["classical-equivalence"]
        alone = check()
        for _, other in selfcheck.CHECKS[:2]:  # kernel-derivatives and stein-gram draw too
            other()
        assert check() == alone


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
