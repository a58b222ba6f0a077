"""Command line front end: instance files in, report documents out.

Instance files are JSON documents declaring the outcome space,
distributions and feature maps by name, a generator, a discriminator
or regularizer, a family, and solver configurations. Reports are JSON
with every numeric value serialized as a decimal string at 17
significant digits, which makes repeated runs byte-identical and the
parse/serialize cycle lossless; the human-readable table printed to
stdout rounds to 12 significant digits instead.

Exit codes: 0 success, 1 validation/parse failure, 2 solver did not
converge (the report is still written), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import divergence as divmod_
from .discriminator import FullSpace, LinearBall, QuadraticCoefficientPenalty
from .dual import duality_gap, restricted_div_dual
from .errors import FdualError, ParseError, ValidationError
from .estimators import (
    CrossContext,
    ExpFamily,
    FitConfig,
    FullSimplex,
    fit_gmm,
    fit_linear_fgan,
    fit_mle,
)
from .fgen import builtin, check_generator
from .primal import PrimalConfig, restricted_div_primal
from .space import Dist, FeatureMap, OutcomeSpace, make_dist
from .verify import SUITE_NAMES, run_suite

__all__ = [
    "SCHEMA_VERSION",
    "InstanceFile",
    "parse_instance",
    "serialize_instance",
    "validate_report",
    "main",
]

SCHEMA_VERSION = "1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonify(obj):
    """Recursively turn numerics into 17-significant-digit strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, str):
        return obj
    raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def validate_report(doc: dict) -> None:
    """Structural check of a report document.

    Verifies the required top-level fields and that no raw float leaked
    into the payload (all numerics must be decimal strings).
    """
    for key in ("schema_version", "command", "seed", "config", "results"):
        if key not in doc:
            raise ValidationError(f"report missing field {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"unsupported report schema {doc['schema_version']!r}")

    def walk(node, path):
        if isinstance(node, float):
            raise ValidationError(f"raw float at {path}; numbers must be strings")
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}")
        elif isinstance(node, list):
            for j, v in enumerate(node):
                walk(v, f"{path}[{j}]")

    walk(doc, "report")


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def _section(doc: dict, key: str, required: bool = False) -> dict:
    """The JSON object ``doc[key]`` ({} when an optional key is absent); else a ParseError naming ``key``."""
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}")
        return {}
    if not isinstance(doc[key], dict):
        raise ParseError(f"field {key!r} has wrong type")
    return doc[key]


def _real(value) -> float:
    """An instance's number ``value`` as a float; a JSON boolean is not one (TypeError)."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _number(value, typ: type, where: str):
    """An instance's number ``value`` read as ``typ``, float or int (an int takes
    any integral number: "1e3" reads 1000); else a ValidationError naming ``where``."""
    try:
        x = _real(value)
        if typ is int and not x.is_integer():
            raise ValueError
        return typ(value) if isinstance(value, int) else typ(x)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if typ is int else "a number"
        raise ValidationError(f"field {where!r} must be {kind}, got {value!r}") from None


class InstanceFile:
    """A parsed, validated instance document.

    Holds the canonical dict form (numbers as strings) plus resolved
    domain objects; resolution errors carry the offending field path.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        labels = _section(raw, "space", required=True).get("labels")
        if not isinstance(labels, list) or not labels:
            raise ParseError("field 'space.labels' must be a non-empty list")
        self.space = OutcomeSpace(tuple(str(x) for x in labels))
        self.dists: dict[str, Dist] = {}
        for name, weights in _section(raw, "dists", required=True).items():
            try:
                self.dists[name] = make_dist(self.space, [_real(w) for w in weights])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"field 'dists.{name}': {exc}") from exc
            except FdualError as exc:
                raise ValidationError(f"field 'dists.{name}': {exc}") from exc
        self.features: dict[str, FeatureMap] = {}
        for name, matrix in _section(raw, "features").items():
            try:
                rows = [[_real(v) for v in row] for row in matrix]
                self.features[name] = FeatureMap(self.space, rows)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"field 'features.{name}': {exc}") from exc
            except FdualError as exc:
                raise ValidationError(f"field 'features.{name}': {exc}") from exc

    def dist(self, name: str) -> Dist:
        try:
            return self.dists[name]
        except KeyError:
            raise ValidationError(f"unknown distribution {name!r}") from None

    def feature_map(self, name: str) -> FeatureMap:
        try:
            return self.features[name]
        except KeyError:
            raise ValidationError(f"unknown feature map {name!r}") from None

    def generator(self):
        name = self.raw.get("generator")
        if not name:
            raise ValidationError("instance declares no generator")
        return builtin(str(name))

    def discriminator(self):
        doc = self.raw.get("discriminator")
        if not isinstance(doc, dict):
            raise ValidationError("instance declares no discriminator")
        variant = doc.get("variant")
        if variant == "full_space":
            return FullSpace(self.space)
        if variant == "linear_ball":
            phi = self.feature_map(str(doc.get("features")))
            p = _number(doc.get("p", 2), float, "discriminator.p")
            return LinearBall(phi, p, _number(doc.get("radius", "inf"), float, "discriminator.radius"))
        if variant == "quadratic_penalty":
            phi = self.feature_map(str(doc.get("features")))
            return QuadraticCoefficientPenalty(phi, _number(doc.get("weight", 1.0), float, "discriminator.weight"))
        raise ValidationError(f"unknown discriminator variant {variant!r}")

    def family(self):
        doc = self.raw.get("family")
        if not isinstance(doc, dict):
            raise ValidationError("instance declares no family")
        variant = doc.get("variant")
        if variant == "full_simplex":
            return FullSimplex(self.space)
        if variant == "exp_family":
            base = self.dist(str(doc.get("base")))
            psi = self.feature_map(str(doc.get("features")))
            return ExpFamily(base, psi)
        raise ValidationError(f"unknown family variant {variant!r}")

    def pair(self) -> tuple[Dist, Dist]:
        p_name = self.raw.get("p")
        q_name = self.raw.get("q")
        if not p_name or not q_name:
            raise ValidationError("instance must name distributions 'p' and 'q'")
        return self.dist(str(p_name)), self.dist(str(q_name))

    def data_dist(self) -> Dist:
        name = self.raw.get("data")
        if not name:
            raise ValidationError("instance must name a 'data' distribution")
        return self.dist(str(name))

    def seed(self, section: str, seed: int | None) -> int:
        """The report's seed: ``--seed``, else the section's ``seed`` key (the solvers ignore it), else 0."""
        if seed is None:
            seed = _number(_section(self.raw, section).get("seed", 0), int, f"{section}.seed")
        return seed

    def _config(self, cls, section: str, **override):
        """``cls`` from the keys of ``section`` that name its fields, each read
        as the type of the field's default; other keys are ignored."""
        doc = {**_section(self.raw, section), **override}
        return cls(**{f.name: _number(doc[f.name], type(f.default), f"{section}.{f.name}")
                      for f in dataclasses.fields(cls) if f.name in doc})


def parse_instance(source) -> InstanceFile:
    """Parse an instance from a path, JSON text, or dict."""
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        elif isinstance(source, str):
            text = source
        else:
            raise ParseError(f"instance file not found: {source}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    return InstanceFile(_jsonify(doc))


def serialize_instance(inst: InstanceFile) -> str:
    """Canonical JSON text of an instance (round-trip stable)."""
    return json.dumps(inst.raw, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fdual-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, out: str | None, csv_rows: list[dict] | None, use_csv: bool) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        **{k: _jsonify(v) for k, v in report.items()},
    }
    validate_report(doc)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        _atomic_write(out, text)
    if use_csv and csv_rows:
        buf = io.StringIO()
        # Rows of different kinds share one header; a row leaves blank the columns it lacks.
        writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(k for row in csv_rows for k in row)))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: _jsonify(v) if not isinstance(v, str) else v for k, v in row.items()})
        if out:
            _atomic_write(out + ".csv", buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
    _print_table(doc)


def _print_table(doc: dict) -> None:
    results = doc.get("results", {})
    sys.stdout.write(f"command: {doc.get('command')}\n")
    for key in sorted(results):
        value = results[key]
        if isinstance(value, (dict, list)):
            sys.stdout.write(f"  {key}: {json.dumps(_shorten(value))}\n")
        else:
            sys.stdout.write(f"  {key}: {_shorten(value)}\n")


def _shorten(node):
    if isinstance(node, str):
        try:
            return f"{float(node):.12g}"
        except ValueError:
            return node
    if isinstance(node, dict):
        return {k: _shorten(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_shorten(v) for v in node[:8]] + (["..."] if len(node) > 8 else [])
    return node


def _solve_report_payload(rep) -> dict:
    return {
        "value": rep.value,
        "coefficients": rep.coefficients,
        "intercept": rep.intercept,
        "pprime": None if rep.pprime is None else rep.pprime.p,
        "iterations": rep.iterations,
        "residual": rep.residual if math.isfinite(rep.residual) else None,
        "status": rep.status,
        "route": rep.route,
        "attained": rep.attained,
        "capped": rep.capped,
        "gap_estimate": rep.gap_estimate,
        "fd_gradient_worst": rep.fd_gradient_worst,
        "value_log": list(rep.value_log),
        "notes": list(rep.notes),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
# Each returns (seed, config, results, CSV rows, exit code); main writes the report.


def _cmd_check_generator(args):
    g = builtin(args.name)
    rep = check_generator(g)
    results = {
        "generator": g.name,
        "ok": rep.ok,
        "entries": [
            {"name": e.name, "passed": e.passed, "worst": e.worst, "detail": e.detail}
            for e in rep.entries
        ],
        "notes": list(rep.notes),
    }
    rows = [{"check": e.name, "passed": e.passed, "worst": e.worst} for e in rep.entries]
    return args.seed or 0, {"name": args.name}, results, rows, 0


def _cmd_divergence(args):
    inst = parse_instance(args.instance)
    g = inst.generator()
    P = inst.dist(args.p)
    Q = inst.dist(args.q)
    if args.mode == "closed":
        dv = divmod_.df_closed(g, P, Q)
    else:
        dv = divmod_.df_variational_full(g, P, Q)
    results = {
        "generator": g.name,
        "mode": args.mode,
        "value": dv.value,
        "attained_h": None if dv.attained_h is None else dv.attained_h.values,
        "capped": dv.capped,
    }
    config = {"p": args.p, "q": args.q, "mode": args.mode}
    return args.seed or 0, config, results, [{"value": dv.value, "capped": dv.capped}], 0


def _cmd_solve(args):
    """``primal`` or ``dual``. The primal solve reads a :class:`PrimalConfig` from
    ``primal_config``; the dual has no settings, and ``dual_config`` gives only
    its report's seed."""
    inst = parse_instance(args.instance)
    g = inst.generator()
    P, Q = inst.pair()
    spec = inst.discriminator()
    section = f"{args.cmd}_config"
    seed = inst.seed(section, args.seed)
    config = {"generator": g.name, "discriminator": inst.raw.get("discriminator")}
    if args.cmd == "primal":
        cfg = inst._config(PrimalConfig, section)
        config[section] = vars(cfg)
        rep = restricted_div_primal(g, P, Q, spec, cfg)
    else:
        rep = restricted_div_dual(g, P, Q, spec)
    rows = [{"value": rep.value, "iterations": rep.iterations, "status": rep.status}]
    code = 0 if rep.status in ("converged", "unbounded", "infeasible") else 2
    return seed, config, _solve_report_payload(rep), rows, code


def _cmd_gap(args):
    inst = parse_instance(args.instance)
    g = inst.generator()
    P, Q = inst.pair()
    spec = inst.discriminator()
    gr = duality_gap(g, P, Q, spec, inst._config(PrimalConfig, "primal_config"))
    results = {
        "status": gr.status,
        "primal_value": gr.primal_value,
        "dual_value": gr.dual_value,
        "gap": gr.gap if math.isfinite(gr.gap) else None,
        "rel_gap": gr.rel_gap if math.isfinite(gr.rel_gap) else None,
        "primal": _solve_report_payload(gr.primal),
        "dual": _solve_report_payload(gr.dual),
    }
    rows = [
        {
            "primal": gr.primal_value,
            "dual": gr.dual_value,
            "rel_gap": gr.rel_gap,
            "status": gr.status,
        }
    ]
    config = {"generator": g.name, "discriminator": inst.raw.get("discriminator")}
    # The dual's status certifies the signed gap; a primal solve that stopped on
    # its float resolution floor with a certified gap is not a failure.
    return inst.seed("primal_config", args.seed), config, results, rows, 2 if gr.dual.status == "not_converged" else 0


def _cmd_fit(args):
    inst = parse_instance(args.instance)
    fam = inst.family()
    data = inst.data_dist()
    cfg = inst._config(FitConfig, "fit_config", **({} if args.seed is None else {"seed": args.seed}))
    spec = None
    if "discriminator" in inst.raw:
        spec = inst.discriminator()
    phi = spec.phi if isinstance(spec, LinearBall) else None
    radius = spec.radius if isinstance(spec, LinearBall) else None
    gen = inst.generator() if inst.raw.get("generator") else None
    if gen is not None and phi is not None and spec.p != 2.0 and math.isfinite(radius):
        # Every fit with a generator reports an f-GAN value. At infinite
        # radius all p-balls are one class.
        raise ValidationError("discriminator.p must be 2: f-GAN values are fit on 2-balls only")
    ctx = CrossContext(generator=gen, phi=phi, radius=radius)
    if args.estimator == "mle":
        rep = fit_mle(fam, data, cross_context=ctx)
    elif args.estimator == "gmm":
        if phi is None:
            raise ValidationError("gmm estimator needs a linear_ball discriminator for features")
        rep = fit_gmm(fam, data, phi, cfg, cross_context=ctx)
    else:
        if phi is None or gen is None:
            raise ValidationError("fgan estimator needs a generator and a linear_ball discriminator")
        rep = fit_linear_fgan(fam, data, gen, phi, radius, cfg)
    results = {
        "estimator": rep.estimator,
        "q_star": rep.q_star.p,
        "theta": rep.theta,
        "objective": rep.objective,
        "cross": rep.cross,
        "trajectory": rep.trajectory,
        "notes": list(rep.notes),
        "pprime": None if rep.pprime is None else rep.pprime.p,
    }
    rows = [{"criterion": k, "value": v} for k, v in sorted(rep.cross.items())]
    config = {"estimator": args.estimator, "family": inst.raw.get("family"), "fit_config": vars(cfg)}
    return cfg.seed, config, results, rows, 0


def _cmd_verify_suite(args):
    res = run_suite(args.suite, seed=args.seed or 0, count=args.count or 0)
    results = {
        "suite": res.suite,
        "instances": res.instances,
        "passes": res.passes,
        "ok": res.ok,
        "worst_violation": res.worst_violation,
        "records": list(res.records),
    }
    rows = [dict(r) for r in res.records]
    config = {"suite": args.suite, "count": res.instances}
    return res.seed, config, results, rows, 0 if res.ok else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fdual",
        description="Restricted divergence duality toolkit on finite spaces.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--csv", action="store_true", help="also export tabular results as CSV")
        p.add_argument("--seed", type=int, default=None, help="override the command seed")

    p = sub.add_parser("check-generator", help="run the generator property battery")
    p.add_argument("name")
    common(p)
    p.set_defaults(fn=_cmd_check_generator)

    p = sub.add_parser("divergence", help="evaluate a divergence on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--mode", choices=("closed", "variational"), default="closed")
    common(p)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("primal", help="solve the discriminator-side problem")
    p.add_argument("--instance", required=True)
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("dual", help="solve the intermediate-distribution problem")
    p.add_argument("--instance", required=True)
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("gap", help="run both solvers and report the certified gap")
    p.add_argument("--instance", required=True)
    common(p)
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("fit", help="fit a family member to data")
    p.add_argument("--instance", required=True)
    p.add_argument("--estimator", required=True, choices=("mle", "gmm", "fgan"))
    common(p)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("verify-suite", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--count", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        seed, config, results, rows, code = args.fn(args)
        _emit({"command": args.cmd, "seed": seed, "config": config, "results": results}, args.out, rows, args.csv)
        return code
    except FdualError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
