import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fdual.cli import (
    SCHEMA_VERSION,
    main,
    parse_instance,
    serialize_instance,
    validate_report,
)
from fdual.errors import ParseError, ValidationError
from fdual.estimators import ExpFamily, family_member
from fdual.space import make_dist, random_instance


@pytest.fixture
def instance_doc():
    return {
        "schema_version": "1",
        "space": {"labels": ["x1", "x2"]},
        "dists": {
            "P": [0.5, 0.5],
            "Q": [0.75, 0.25],
            "Pdata": [0.5, 0.5],
            "U": [0.5, 0.5],
        },
        "features": {"phi": [[0.0, 1.0]]},
        "generator": "kl",
        "discriminator": {"variant": "linear_ball", "features": "phi", "p": 2, "radius": "inf"},
        "family": {"variant": "exp_family", "base": "U", "features": "phi"},
        "data": "Pdata",
        "p": "P",
        "q": "Q",
    }


@pytest.fixture
def instance_path(tmp_path, instance_doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    return str(path)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_round_trip(instance_path):
    inst = parse_instance(instance_path)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again.raw == inst.raw


def test_parse_error_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(bad))
    assert "line" in str(exc.value)


def test_missing_field_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_instance({"dists": {}})
    assert "space" in str(exc.value)


def test_unknown_dist_name(instance_doc):
    inst = parse_instance(instance_doc)
    with pytest.raises(ValidationError):
        inst.dist("nope")


def test_divergence_command(instance_path, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["divergence", "--instance", instance_path, "--p", "P", "--q", "Q", "--mode", "closed", "--out", out])
    assert rc == 0
    doc = _load(out)
    validate_report(doc)
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert float(doc["results"]["value"]) == pytest.approx(expected, abs=1e-12)
    assert str(doc["results"]["value"]).startswith("0.143841")


def test_variational_divergence_command_past_the_cap(tmp_path, instance_doc):
    # Reverse KL's maximizer at the first atom is -q/p = -5000, past the
    # default cap of 1e3; the report must carry the closed form's value.
    instance_doc["generator"] = "reverse_kl"
    instance_doc["dists"]["P"] = [1e-4, 1.0 - 1e-4]
    instance_doc["dists"]["Q"] = [0.5, 0.5]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(instance_doc))
    values = []
    for mode in ("closed", "variational"):
        out = str(tmp_path / f"{mode}.json")
        assert main(["divergence", "--instance", str(path), "--p", "P", "--q", "Q", "--mode", mode,
                     "--out", out]) == 0
        values.append(float(_load(out)["results"]["value"]))
    assert values[1] == pytest.approx(values[0], abs=1e-12)
    assert values[0] == pytest.approx(math.log(0.5 / 1e-4) * 0.5 + 0.5 * math.log(0.5 / (1.0 - 1e-4)), abs=1e-12)


def test_gap_command_identical_dists(tmp_path, instance_doc, capsys):
    instance_doc["q"] = "P"
    path = tmp_path / "self.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "gap.json")
    rc = main(["gap", "--instance", str(path), "--out", out])
    assert rc == 0
    doc = _load(out)
    assert float(doc["results"]["primal_value"]) == pytest.approx(0.0, abs=1e-8)
    assert float(doc["results"]["dual_value"]) == pytest.approx(0.0, abs=1e-8)


def test_fit_unknown_estimator(instance_path):
    rc = main(["fit", "--instance", instance_path, "--estimator", "nope"])
    assert rc == 1


def test_missing_instance_file():
    rc = main(["divergence", "--instance", "/nonexistent/file.json", "--p", "P", "--q", "Q"])
    assert rc == 1


def test_unknown_generator_in_instance(tmp_path, instance_doc):
    instance_doc["generator"] = "unknown"
    path = tmp_path / "bad_gen.json"
    path.write_text(json.dumps(instance_doc))
    rc = main(["divergence", "--instance", str(path), "--p", "P", "--q", "Q"])
    assert rc == 1


def test_not_converged_exit_code(tmp_path, instance_doc):
    # One iteration with an absurd tolerance cannot converge. The
    # optimum is interior: on one feature a Newton step lands exactly on
    # a boundary optimum, where the residual is exactly zero.
    instance_doc["p"] = "P"
    instance_doc["q"] = "Q"
    instance_doc["discriminator"]["radius"] = 5.0
    instance_doc["primal_config"] = {"max_iters": 1, "tol": 1e-300}
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "hard_report.json")
    rc = main(["primal", "--instance", str(path), "--out", out])
    assert rc == 2
    doc = _load(out)  # value still reported
    assert doc["results"]["status"] == "not_converged"
    assert float(doc["results"]["value"]) >= 0.0


def test_gap_certified_exit_code_despite_primal_stall(tmp_path):
    # One primal iteration leaves the solve short of tol (residual
    # ~3e-5) while the dual certifies the gap to ~3e-9.
    P, Q, phi = random_instance(40, 6, 2)
    doc = {
        "space": {"labels": list(P.space.labels)},
        "dists": {"P": P.p.tolist(), "Q": Q.p.tolist()},
        "features": {"phi": phi.values.tolist()},
        "generator": "kl",
        "discriminator": {"variant": "linear_ball", "features": "phi", "p": 2, "radius": 0.1},
        "p": "P",
        "q": "Q",
        "primal_config": {"max_iters": 1},
    }
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "stall_report.json")
    assert main(["gap", "--instance", str(path), "--out", out]) == 0
    results = _load(out)["results"]
    assert results["primal"]["status"] == "not_converged"
    assert float(results["rel_gap"]) <= 1e-4


def test_gap_below_the_primal_exits_2(tmp_path, instance_doc, monkeypatch):
    # A dual value below the primal's is a weak-duality violation: the dual
    # reads not_converged and the command exits 2, though |rel_gap| is small.
    import fdual.dual as dual_module

    closed = dual_module.df_closed
    monkeypatch.setattr(dual_module, "df_closed",
                        lambda g, P, Q: replace(closed(g, P, Q), value=closed(g, P, Q).value - 1e-6))
    instance_doc["discriminator"]["radius"] = 1.0
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    assert main(["gap", "--instance", str(path), "--out", out]) == 2
    results = _load(out)["results"]
    assert results["dual"]["status"] == "not_converged"
    assert -1e-5 < float(results["rel_gap"]) == float(results["gap"]) < 0.0


def test_primal_exit_code_on_face_of_feature_hull(tmp_path, instance_doc):
    # At infinite radius the supremum (log 3) is only approached along a
    # ray; the solve still converges on the gradient residual.
    instance_doc["space"] = {"labels": ["x1", "x2", "x3"]}
    instance_doc["dists"] = {"P": [1.0, 0.0, 0.0], "Q": [1.0, 1.0, 1.0]}
    instance_doc["features"] = {"phi": [[0.0, 1.0, 2.0]]}
    del instance_doc["family"], instance_doc["data"]
    path = tmp_path / "face.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "face_report.json")
    assert main(["primal", "--instance", str(path), "--out", out]) == 0
    results = _load(out)["results"]
    assert results["status"] == "converged"
    assert float(results["value"]) == pytest.approx(math.log(3.0), abs=1e-8)


def test_byte_identical_reports(instance_path, tmp_path, capsys):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    args = ["fit", "--instance", instance_path, "--estimator", "gmm", "--seed", "9"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_csv_export(instance_path, tmp_path, capsys):
    out = str(tmp_path / "fit.json")
    rc = main(["fit", "--instance", instance_path, "--estimator", "fgan", "--out", out, "--csv"])
    assert rc == 0
    csv_text = open(out + ".csv").read().strip().splitlines()
    assert csv_text[0] == "criterion,value"
    assert len(csv_text) == 4


def test_check_generator_command(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    rc = main(["check-generator", "kl", "--out", out])
    assert rc == 0
    doc = _load(out)
    validate_report(doc)
    assert doc["results"]["ok"] is True
    rc = main(["check-generator", "made_up"])
    assert rc == 1


def test_verify_suite_command(tmp_path, capsys):
    out = str(tmp_path / "suite.json")
    rc = main(["verify-suite", "--suite", "r_functional", "--seed", "1", "--count", "5", "--out", out, "--csv"])
    assert rc == 0
    doc = _load(out)
    validate_report(doc)
    assert doc["results"]["ok"] is True
    assert os.path.exists(out + ".csv")


def test_verify_suite_negative_count_exits_1(tmp_path, capsys):
    # A negative count ran the suite's default size and exited 0.
    out = str(tmp_path / "suite.json")
    assert main(["verify-suite", "--suite", "r_functional", "--count", "-5", "--out", out]) == 1
    assert "count must be non-negative" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_dual_command(instance_path, tmp_path, capsys):
    out = str(tmp_path / "dual.json")
    rc = main(["dual", "--instance", instance_path, "--out", out])
    assert rc == 0
    doc = _load(out)
    assert doc["results"]["status"] == "converged"


def test_report_schema_violation_detected():
    with pytest.raises(ValidationError):
        validate_report({"schema_version": SCHEMA_VERSION, "command": "x", "seed": 0, "config": {}, "results": {"v": 1.5}})
    with pytest.raises(ValidationError):
        validate_report({"command": "x"})


def test_quadratic_penalty_via_cli(tmp_path, instance_doc):
    instance_doc["discriminator"] = {"variant": "quadratic_penalty", "features": "phi", "weight": 1.0}
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "quad_report.json")
    rc = main(["primal", "--instance", str(path), "--out", out])
    assert rc == 0
    doc = _load(out)
    grid = np.arange(-10.0, 10.0, 1e-4)
    oracle = np.max(grid * 0.5 - np.log(0.75 + 0.25 * np.exp(grid)) - grid**2)
    assert float(doc["results"]["value"]) == pytest.approx(float(oracle), abs=1e-6)


def test_parser_built_once_per_process(instance_path, tmp_path, capsys):
    # Requests reuse one parser; a rejected command line leaves it usable.
    from fdual import cli

    parser = cli._build_parser()
    assert main(["primal", "--no-such-flag"]) == 1
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["primal", "--instance", instance_path, "--out", out1]) == 0
    assert main(["dual", "--instance", instance_path, "--out", out2]) == 0
    assert cli._build_parser() is parser
    assert _load(out1)["command"] == "primal" and "primal_config" in _load(out1)["config"]
    assert _load(out2)["command"] == "dual" and "dual_config" in _load(out2)["config"]


def test_fit_config_ignores_removed_fd_step(tmp_path, instance_doc):
    # fd_step set the central-difference step the descent no longer takes,
    # and inner_tol the inner solves' tolerance, now a constant; an instance
    # that still carries either fits exactly as one without it.
    reports = []
    for extra in ({}, {"fd_step": 1e-5}, {"inner_tol": 1e-6}):
        instance_doc["fit_config"] = {"starts": 2, **extra}
        path = tmp_path / f"fit{len(reports)}.json"
        path.write_text(json.dumps(instance_doc))
        out = str(tmp_path / f"report{len(reports)}.json")
        assert main(["fit", "--instance", str(path), "--estimator", "fgan", "--out", out]) == 0
        reports.append(open(out, "rb").read())
    assert reports[0] == reports[1] == reports[2]
    assert not {"fd_step", "inner_tol"} & set(_load(out)["config"]["fit_config"])


def test_solver_configs_ignore_removed_keys(tmp_path, instance_doc):
    # step_init and seed set the first step and the restarts of the ascent
    # that the Newton loop replaced, max_iters and smoothing_eps the dual's
    # mirror descent, and nothing read dual_config's seed. An instance that
    # still carries them solves exactly as one without them, and its report
    # keeps the seed it names.
    instance_doc["discriminator"] = {"variant": "linear_ball", "features": "phi", "p": 1, "radius": 1}
    for command, section, extra in (
        ("primal", "primal_config", {"step_init": 0.5, "seed": 7}),
        ("dual", "dual_config", {"max_iters": 5, "smoothing_eps": 1e-3, "seed": 7}),
        ("gap", "primal_config", {"step_init": 0.5, "seed": 7}),
    ):
        docs = []
        for keys in ({}, extra):
            instance_doc[section] = keys
            path = tmp_path / f"{command}{len(docs)}.json"
            path.write_text(json.dumps(instance_doc))
            out = str(tmp_path / f"{command}-report{len(docs)}.json")
            assert main([command, "--instance", str(path), "--out", out]) == 0
            docs.append(_load(out))
        assert docs[0]["results"] == docs[1]["results"]
        assert (docs[0]["seed"], docs[1]["seed"]) == (0, 7)
        assert not set(extra) & set(docs[1]["config"].get(section, {}))
        if command == "dual":
            assert docs[1]["results"]["route"] == "primal_tilt"
        instance_doc.pop(section)


def test_solve_reports_carry_route(instance_path, tmp_path, capsys):
    out1, out2 = str(tmp_path / "p.json"), str(tmp_path / "g.json")
    assert main(["primal", "--instance", instance_path, "--out", out1]) == 0
    assert main(["gap", "--instance", instance_path, "--out", out2]) == 0
    assert _load(out1)["results"]["route"] == "newton"
    # At infinite radius the dual scores the primal's tilt as on every ball.
    assert _load(out2)["results"]["dual"]["route"] == "primal_tilt"


def test_fgan_fit_on_a_face_writes_null_theta(tmp_path):
    # The README mismatch instance: the f-GAN objective falls toward the face
    # member (1/2, 0, 1/2), which has no parameter.
    doc = {
        "space": {"labels": ["x1", "x2", "x3"]},
        "dists": {"U": [1, 1, 1], "Pdata": [0.2, 0.5, 0.3]},
        "features": {"psi": [[0.0, 1.0, 0.0]], "phi": [[0.0, 1.0, 2.0]]},
        "generator": "kl",
        "discriminator": {"variant": "linear_ball", "features": "phi", "p": 2, "radius": 1},
        "family": {"variant": "exp_family", "base": "U", "features": "psi"},
        "data": "Pdata",
    }
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--instance", str(path), "--estimator", "fgan", "--out", out]) == 0
    results = _load(out)["results"]
    assert results["theta"] is None
    assert [float(x) for x in results["q_star"]] == [0.5, 0.0, 0.5]
    assert any("face of the family's closure" in note for note in results["notes"])
    assert len(results["pprime"]) == 3
    assert results["trajectory"]["inner_solves"] >= 1
    assert results["trajectory"]["inner_steps"] >= results["trajectory"]["inner_solves"]


@pytest.mark.parametrize("seed", [900, 901, 902])
def test_fgan_fit_on_the_full_simplex_is_closed_form(tmp_path, seed):
    # The f-GAN optimum on the full simplex is 0, at the maximum-entropy
    # member with the data's phi-means: a tilt of the uniform distribution
    # by phi, whose k coefficients the report writes as theta.
    P, _, phi = random_instance(seed, 4, 2)
    doc = {
        "space": {"labels": [f"x{i}" for i in range(P.space.n)]},
        "dists": {"Pdata": P.p.tolist()},
        "features": {"phi": phi.values.tolist()},
        "generator": "js_gan",
        "discriminator": {"variant": "linear_ball", "features": "phi", "p": 2, "radius": 1},
        "family": {"variant": "full_simplex"},
        "data": "Pdata",
    }
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--instance", str(path), "--estimator", "fgan", "--out", out]) == 0
    results = _load(out)["results"]
    assert float(results["objective"]) <= 1e-15
    assert results["trajectory"]["inner_solves"] == 1
    theta = np.array([float(x) for x in results["theta"]])
    assert theta.shape == (phi.k,)
    member = family_member(ExpFamily(make_dist(P.space, np.ones(P.space.n)), phi), theta)
    assert np.max(np.abs(member.p - [float(x) for x in results["q_star"]])) <= 1e-15


@pytest.mark.parametrize("extra", [{"tol": -1}, {"tol": 0}, {"tol": "inf"}])
def test_fit_config_with_bad_tolerance_exits_1(tmp_path, instance_doc, capsys, extra):
    instance_doc["fit_config"] = extra
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    assert main(["fit", "--instance", str(path), "--estimator", "gmm", "--out", out]) == 1
    assert f"{next(iter(extra))} must be positive" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_with_negative_seed_exits_1(instance_path, tmp_path, capsys):
    # The seed reached numpy's SeedSequence, whose ValueError made an
    # internal error (exit 3).
    out = str(tmp_path / "report.json")
    assert main(["fit", "--instance", instance_path, "--estimator", "gmm", "--seed", "-1", "--out", out]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, section, keys",
    [
        ("fit", "fit_config", {"max_iters": 2.5}),
        ("fit", "fit_config", {"seed": 1.5}),
        ("primal", "primal_config", {"tol": "abc"}),
        ("primal", "primal_config", {"seed": 1.5}),
        ("primal", "discriminator", {"radius": "abc"}),
        ("primal", "discriminator", {"p": "two"}),
    ],
    ids=["fit_config.max_iters", "fit_config.seed", "primal_config.tol", "primal_config.seed",
         "discriminator.radius", "discriminator.p"],
)
def test_instance_number_that_does_not_fit_its_field_exits_1(tmp_path, instance_doc, capsys, command, section, keys):
    # Each key was cast with int() or float(), whose ValueError made an
    # internal error (exit 3).
    instance_doc[section] = {**instance_doc.get(section, {}), **keys}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    argv = [command, "--instance", str(path), "--out", out] + (["--estimator", "gmm"] if command == "fit" else [])
    assert main(argv) == 1
    assert f"'{section}.{next(iter(keys))}'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_integral_config_value_reads_as_an_integer(tmp_path, instance_doc, capsys):
    # int("1e3") raised ValueError, an internal error (exit 3).
    instance_doc["fit_config"] = {"max_iters": "1e3", "starts": 2}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    assert main(["fit", "--instance", str(path), "--estimator", "gmm", "--out", out]) == 0
    assert _load(out)["config"]["fit_config"]["max_iters"] == 1000


GAP_TABLE = """\
command: gap
  dual: {"value": "0.143841036226", "coefficients": ["1.09861229035"], "intercept": null, \
"pprime": ["0.5", "0.5"], "iterations": 4, "residual": "0", \
"status": "converged", "route": "primal_tilt", "attained": true, "capped": false, "gap_estimate": "-5.55111512313e-17", \
"fd_gradient_worst": "0", "value_log": [], "notes": []}
  dual_value: 0.143841036226
  gap: -5.55111512313e-17
  primal: {"value": "0.143841036226", "coefficients": ["1.09861229035"], "intercept": "0.594534891051", \
"pprime": ["0.499999999579", "0.500000000421"], "iterations": 4, "residual": "4.20622203734e-10", \
"status": "converged", "route": "newton", "attained": true, "capped": false, "gap_estimate": null, \
"fd_gradient_worst": "0", "value_log": ["0", "0.143841036226"], "notes": []}
  primal_value: 0.143841036226
  rel_gap: -5.55111512313e-17
  status: ok
"""


def test_gap_table_on_stdout(instance_path, capsys):
    # Scalars and nested values alike print at 12 significant digits.
    assert main(["gap", "--instance", instance_path]) == 0
    assert capsys.readouterr().out == GAP_TABLE


@pytest.mark.parametrize(
    "command, section, value",
    [("primal", "primal_config", 5), ("dual", "dual_config", "x"), ("fit", "fit_config", [1]),
     ("primal", "features", [1])],
    ids=["primal_config", "dual_config", "fit_config", "features"],
)
def test_instance_section_that_is_not_an_object_exits_1(tmp_path, instance_doc, capsys, command, section, value):
    # Sections were read with {**section}, .get or .items, whose TypeError or
    # AttributeError made an internal error (exit 3).
    instance_doc[section] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    argv = [command, "--instance", str(path), "--out", out] + (["--estimator", "gmm"] if command == "fit" else [])
    assert main(argv) == 1
    assert f"field '{section}' has wrong type" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("radius", ["nan", "-inf"])
def test_radius_that_is_not_positive_exits_1(tmp_path, instance_doc, capsys, radius):
    # Both went through extreal.finite, whose ValueError made an internal
    # error (exit 3).
    instance_doc["discriminator"]["radius"] = radius
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    assert main(["primal", "--instance", str(path)]) == 1
    assert "radius must be positive" in capsys.readouterr().err


def test_overflowing_radius_reads_as_infinite(tmp_path, instance_doc, capsys):
    # "1e400" reads as inf, as the JSON number 1e400 does; extreal.finite
    # raised ValueError on it (exit 3).
    results = []
    for radius in ("inf", "1e400"):
        instance_doc["discriminator"]["radius"] = radius
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_doc))
        out = str(tmp_path / "report.json")
        assert main(["primal", "--instance", str(path), "--out", out]) == 0
        results.append(_load(out)["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("command, section", [("primal", "primal_config"), ("dual", "dual_config")])
def test_solver_config_with_infinite_tolerance_exits_1(tmp_path, instance_doc, capsys, command, section):
    # An infinite tol passed: the primal solve then ended not_converged
    # (exit 2), and the dual certified any gap (exit 0).
    instance_doc[section] = {"tol": "inf"}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    assert main([command, "--instance", str(path)]) == 1
    assert "tol must be positive" in capsys.readouterr().err


_DISC = {"features": "phi", "p": 2, "radius": "inf", "variant": "linear_ball"}


@pytest.mark.parametrize(
    "argv, seed, config",
    [
        (["check-generator", "kl", "--seed", "5"], 5, {"name": "kl"}),
        (["divergence", "--p", "P", "--q", "Q", "--seed", "5"], 5, {"mode": "closed", "p": "P", "q": "Q"}),
        (["primal"], 7, {"discriminator": _DISC, "generator": "kl",
                         "primal_config": {"max_iters": 10000, "tol": "1e-08"}}),
        (["dual"], 8, {"discriminator": _DISC, "dual_config": {"tol": "0.0001"}, "generator": "kl"}),
        (["gap"], 7, {"discriminator": _DISC, "generator": "kl"}),
        (["fit", "--estimator", "gmm"], 9, {"estimator": "gmm", "family": {"base": "U", "features": "phi",
                                                                          "variant": "exp_family"},
                                            "fit_config": {"max_iters": 150, "seed": 9, "starts": 2, "tol": "1e-08"}}),
        (["verify-suite", "--suite", "r_functional", "--count", "2", "--seed", "5"], 5,
         {"count": 2, "suite": "r_functional"}),
    ],
    ids=["check-generator", "divergence", "primal", "dual", "gap", "fit", "verify-suite"],
)
def test_report_command_seed_and_config(tmp_path, instance_doc, capsys, argv, seed, config):
    # Each command's report names the command and carries its seed and config.
    instance_doc.update(primal_config={"seed": 7}, dual_config={"seed": 8}, fit_config={"seed": 9, "starts": 2})
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    instance = [] if argv[0] in ("check-generator", "verify-suite") else ["--instance", str(path)]
    assert main(argv[:1] + instance + argv[1:] + ["--out", out]) == 0
    doc = _load(out)
    assert (doc["command"], doc["seed"], doc["config"]) == (argv[0], seed, config)


def test_module_entry_point(tmp_path):
    # python -m fdual.cli runs main through the __main__ guard; the fdual
    # console script calls the same fdual.cli:main.
    import subprocess
    import sys

    import fdual

    src = os.path.dirname(os.path.dirname(os.path.abspath(fdual.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = str(tmp_path / "gen.json")
    proc = subprocess.run([sys.executable, "-m", "fdual.cli", "check-generator", "kl", "--out", out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("command: check-generator\n")
    validate_report(_load(out))


def test_verify_suite_csv_with_rows_of_different_kinds(tmp_path, capsys):
    # Every fifth moment-projection record is infeasible and carries mp and
    # primal in place of the feasible records' keys: the header takes both,
    # and each row leaves blank the columns it lacks.
    out = str(tmp_path / "mp.json")
    assert main(["verify-suite", "--suite", "moment_projection", "--count", "5", "--csv", "--out", out]) == 0
    lines = open(out + ".csv").read().splitlines()
    assert lines[0] == "i,kind,generator,n,k,residual,value_dev,closed_form_excess,ok,mp,primal"
    assert all(line.endswith(",True,,") for line in lines[1:5])
    assert lines[5] == "4,infeasible,,,,,,,True,inf,inf"


@pytest.mark.parametrize("estimator", ["fgan", "mle"])
@pytest.mark.parametrize("p", [1, "inf"])
def test_fit_with_a_generator_on_a_ball_other_than_2_exits_1(tmp_path, instance_doc, capsys, p, estimator):
    # The f-GAN value of a fit is solved on the 2-ball whatever p says.
    instance_doc["discriminator"].update(p=p, radius=1)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    assert main(["fit", "--instance", str(path), "--estimator", estimator, "--out", out]) == 1
    assert "discriminator.p must be 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_on_a_ball_other_than_2_without_an_f_gan_value(tmp_path, instance_doc, capsys):
    # GMM without a generator reads only the ball's features, and at infinite
    # radius every p-ball is the same class: both reports match the 2-ball's.
    reports = []
    for p, radius, drop_generator, estimator in [(2, 1, True, "gmm"), (1, 1, True, "gmm"),
                                                 (2, "inf", False, "fgan"), (1, "inf", False, "fgan")]:
        doc = json.loads(json.dumps(instance_doc))
        doc["discriminator"].update(p=p, radius=radius)
        if drop_generator:
            del doc["generator"]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "report.json")
        assert main(["fit", "--instance", str(path), "--estimator", estimator, "--out", out]) == 0
        reports.append(_load(out)["results"])
    assert reports[0] == reports[1] and reports[2] == reports[3]


@pytest.mark.parametrize(
    "section, key, value, where",
    [
        ("fit_config", "max_iters", True, "'fit_config.max_iters'"),
        ("fit_config", "tol", True, "'fit_config.tol'"),
        ("discriminator", "radius", True, "'discriminator.radius'"),
        ("dists", "Pdata", [True, False], "'dists.Pdata'"),
        ("features", "phi", [[False, True]], "'features.phi'"),
    ],
    ids=["max_iters", "tol", "radius", "dist", "features"],
)
def test_json_boolean_is_not_a_number(tmp_path, instance_doc, capsys, section, key, value, where):
    # float(True) is 1.0, so each read as 1 and the fit exited 0.
    instance_doc.setdefault(section, {})[key] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    out = str(tmp_path / "report.json")
    assert main(["fit", "--instance", str(path), "--estimator", "gmm", "--out", out]) == 1
    assert where in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("weight", ["0", "-1", "inf"])
def test_penalty_weight_that_is_not_positive_exits_1(tmp_path, instance_doc, capsys, weight):
    instance_doc["discriminator"] = {"variant": "quadratic_penalty", "features": "phi", "weight": weight}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_doc))
    assert main(["primal", "--instance", str(path)]) == 1
    assert "penalty weight must be positive and finite" in capsys.readouterr().err
