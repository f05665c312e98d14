"""Reproducible experiment runner binding all modules.

Every subcommand resolves its configuration from an optional JSON file plus
command-line flags (flags win), runs against seeds derived from the single
``seed`` entry, and emits one JSON report (laid out by
:mod:`siolab.jsonout`) carrying the fully resolved configuration inline, so
a report is self-describing and reruns with the same configuration are
byte-identical.  Reports never embed timestamps, hostnames, or absolute
environment data.

Exit codes: 0 success, 1 data/tolerance failure, 2 usage or schema error,
3 numerical non-convergence, 4 inconclusive (a check failed only against a
lower bound).

Measure arguments accept a measure file (as written by ``generate-measure``
or :func:`siolab.measure.save_measure`) or an inline spec, as kernels and
mollifiers do; the README's "Inline specs" section gives their grammar and
catalogs, which :func:`siolab.measure.from_spec` reads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import locale  # argparse's gettext loads it for the first parser: here, not inside a command
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # numpy loads it on first use: here, not inside a command

from . import forms, kernels, measure, mollifiers, muckenhoupt, splitter, truncation
from .errors import (
    ParameterError,
    SchemaError,
    SiolabError,
    ToleranceError,
    UsageError,
)
from .jsonout import _float_back, _jsonify, dumps

__all__ = ["main", "run", "resolve_config"]


# -- JSON plumbing ----------------------------------------------------------


def _emit(report: dict, output: str | None) -> None:
    text = dumps(report) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows: list[dict], path: str) -> None:
    if not rows:
        Path(path).write_text("")
        return
    fieldnames = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonify(v) for k, v in row.items()})


# -- specs and option values ------------------------------------------------


def _convert(cast, value, error, what: str):
    """cast(value), raising ``error`` that names ``what`` if it fails."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} has an invalid value {value!r}") from exc


def _measure_from_spec(spec, seed: int, base_dir: Path | None = None):
    """A measure from a file path or an inline ``kind:params`` generator."""
    if spec is None:
        raise UsageError("a required measure argument is missing")
    if not isinstance(spec, str):
        raise SchemaError(f"measure spec must be a string, got {type(spec).__name__}")
    candidates = [Path(spec)]
    if base_dir is not None:
        candidates.insert(0, base_dir / spec)
    for path in candidates:
        if path.suffix == ".json" and path.exists():
            return measure.load_measure(path)
    if spec.endswith(".json"):
        raise UsageError(f"measure file not found: {spec}")
    out = measure.from_spec(spec, measure.GENERATORS, "measure", seed=seed)
    if isinstance(out, tuple):
        raise UsageError(f"{spec} generates two measures; select one with part=1 or part=2")
    return out


def _parse_grid(spec) -> list[float]:
    """Scale grids: 'lo:hi:n', n >= 1 values from lo to hi geometrically
    (finite positive ends), or comma-separated explicit values."""
    if not (isinstance(spec, str) and ":" in spec):
        return _parse_floats(spec)

    def geometric(text):
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), measure._count(n)
        if not (0 < lo < np.inf and 0 < hi < np.inf):
            raise ValueError(text)
        return [float(x) for x in np.geomspace(lo, hi, n)]

    return _convert(geometric, spec, ParameterError, "scale grid lo:hi:n")


def _parse_floats(spec) -> list[float]:
    """Comma-separated numbers, or a list of them from a config file."""
    values = spec if isinstance(spec, (list, tuple)) else str(spec).split(",")
    return [_convert(float, x, ParameterError, "number list entry") for x in values]


def _scaled_multiplier(cfg):
    if cfg.get("mollifier") is None:
        return None
    if cfg.get("eps") is None:
        raise UsageError("a mollifier requires --eps to set its scale")
    return mollifiers.scale(
        mollifiers.mollifier_from_name(cfg["mollifier"]), float(cfg["eps"])
    )


# -- densities for moment analysis -------------------------------------------


def _density_from_name(name: str):
    if name == "gaussian":
        return lambda x: np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    if name == "one_sided_exp":
        return lambda x: np.where(x >= 0, np.exp(-np.clip(x, 0, None)), 0.0)
    raise ParameterError(f"unknown density {name!r}")


# -- subcommands --------------------------------------------------------------


def resolve_config(command: str, file_config: dict | None, overrides: dict) -> dict:
    """defaults <- file <- flags, rejecting keys the command does not take
    and values that do not convert to a numeric option's type, integral
    ones for ``int`` options (the value is kept as given; ``str`` options
    such as grids may also be lists)."""
    options = {**_COMMANDS[command].options, **_COMMON_OPTIONS}
    merged = {key: default for key, (default, _) in options.items()}
    for layer in (file_config or {}), overrides:
        for key, value in layer.items():
            if key == "command":
                if value != command:
                    raise SchemaError(
                        f"config file is for {value!r}, not {command!r}"
                    )
                continue
            if key not in options:
                raise SchemaError(f"unknown configuration key {key!r} for {command}")
            if value is None:
                continue
            if options[key][1] in (int, float):
                cast = measure.integral if options[key][1] is int else float
                _convert(cast, value, SchemaError, f"configuration key {key!r}")
            merged[key] = value
    merged["command"] = command
    return merged


def _resolve_path(spec: str, base_dir: Path | None) -> Path:
    """``spec`` as given if it exists, else relative to ``base_dir``."""
    path = Path(spec)
    if base_dir is not None and not path.exists():
        path = base_dir / spec
    return path


def _run_schur_bound(cfg, base_dir):
    moll = mollifiers.mollifier_from_name(cfg["mollifier"])
    if cfg["method"] == "wiener":
        bound = mollifiers.schur_bound(moll, cfg["half_width"], cfg["points"])
    elif cfg["method"] == "sobolev":
        bound = mollifiers.sobolev_bound(
            moll, int(cfg["smoothness"]), cfg["half_width"], cfg["points"]
        )
    else:
        raise UsageError(f"unknown method {cfg['method']!r}")
    return dataclasses.asdict(bound)


def _run_moment_order(cfg, base_dir):
    points, dx = mollifiers.midpoint_grid(cfg["half_width"], cfg["points"])
    density = _density_from_name(cfg["density"])
    report = mollifiers.moment_order(
        points, density(points), dx, int(cfg["max_order"]), float(cfg["tolerance"])
    )
    return dataclasses.asdict(report)


def _load_pair(cfg, base_dir):
    mu = _measure_from_spec(cfg["mu"], int(cfg["seed"]), base_dir)
    nu = _measure_from_spec(cfg["nu"], int(cfg["seed"]) + 1, base_dir)
    return mu, nu


def _materialize(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    return kernels.materialize(
        kernel, mu, nu,
        multiplier=_scaled_multiplier(cfg),
        diagonal_policy=cfg["diagonal_policy"],
    )


def _run_restricted_norm(cfg, base_dir):
    return dataclasses.asdict(forms.restricted_norm(
        _materialize(cfg, base_dir), float(cfg["p"]), cap=int(cfg["cap"]),
        trials=int(cfg["trials"]), seed=int(cfg["seed"]),
    ))


def _run_opnorm(cfg, base_dir):
    return dataclasses.asdict(forms.operator_norm(
        _materialize(cfg, base_dir), float(cfg["p"]), seed=int(cfg["seed"])
    ))


def _run_factor2(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    report = forms.factor2_check(
        kernel, mu, nu,
        p=float(cfg["p"]),
        multiplier=_scaled_multiplier(cfg),
        tolerance=float(cfg["tolerance"]),
        cap=int(cfg["cap"]),
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    return dataclasses.asdict(report)


def _run_split(cfg, base_dir):
    level = int(cfg["level"])
    tau = float(cfg["tau"])
    if cfg["mu"] is not None or cfg["nu"] is not None:
        mu, nu = _load_pair(cfg, base_dir)
        part = splitter.atom_aware_partition(mu, nu, level, tau=tau)
        sigma = None
    else:
        if cfg["sigma"] is None:
            raise UsageError("split needs --sigma, or --mu and --nu")
        sigma = _measure_from_spec(cfg["sigma"], int(cfg["seed"]), base_dir)
        part = splitter.build_partition(sigma, level, tau=tau)
    data = splitter.partition_to_dict(part)
    if cfg["partition_out"]:
        splitter.save_partition(data, cfg["partition_out"])
    checks = splitter.verify_partition(part, sigma)
    return {"partition": data, "verification": checks}


def _verify_partition(part, cfg, base_dir) -> tuple[dict, list[str]]:
    """The partition checks, against ``sigma`` when given, and the failing ones."""
    sigma = None
    if cfg.get("sigma") is not None:
        sigma = _measure_from_spec(cfg["sigma"], int(cfg["seed"]), base_dir)
    checks = splitter.verify_partition(part, sigma)
    return checks, [name for name, (ok, _) in checks.items() if not ok]


def _run_split_verify(cfg, base_dir):
    if cfg["partition"] is None:
        raise UsageError("split-verify needs --partition")
    partition = splitter.load_partition(_resolve_path(cfg["partition"], base_dir))
    checks, failing = _verify_partition(partition, cfg, base_dir)
    if failing:
        raise ToleranceError(f"partition failed verification: {failing}")
    return {"checks": checks, "ok": True}


def _run_truncate_compare(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    eps_list = _parse_grid(cfg["eps_grid"])
    rows = truncation.compare_truncations(
        kernel, mu, nu,
        p=float(cfg["p"]),
        eps_list=eps_list,
        delta=float(cfg["delta"]),
    )
    return {"comparisons": [dataclasses.asdict(r) for r in rows]}


def _run_muckenhoupt(cfg, base_dir):
    mu, nu = _load_pair(cfg, base_dir)
    radii = None if cfg["radii"] is None else _parse_floats(cfg["radii"])
    centers = cfg["centers"]
    if isinstance(centers, str):
        centers = [_parse_floats(c) for c in centers.split("|")]
    report = muckenhoupt.ap_alpha_constant(
        mu, nu, float(cfg["p"]), float(cfg["alpha"]), centers=centers, radii=radii
    )
    return dataclasses.asdict(report)


def _run_necessity(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    alpha = None if cfg["alpha"] is None else float(cfg["alpha"])
    report = muckenhoupt.necessity_experiment(
        kernel, mu, nu,
        p=float(cfg["p"]),
        eps_list=_parse_grid(cfg["eps_grid"]),
        alpha=alpha,
        max_balls=int(cfg["max_balls"]),
        heuristic_trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    return dataclasses.asdict(report)


def _run_generate_measure(cfg, base_dir):
    if not cfg["output"]:
        raise UsageError("generate-measure needs --output")
    out = measure.from_spec(f"{cfg['kind']}:{cfg['params']}", measure.GENERATORS,
                            "measure", seed=int(cfg["seed"]))
    base = Path(cfg["output"])
    written = []
    if isinstance(out, tuple):
        for name, m in zip(("mu", "nu"), out):
            path = base.with_name(f"{base.stem}-{name}{base.suffix or '.json'}")
            measure.save_measure(m, path)
            written.append({"path": str(path), "points": len(m), "mass": m.total_mass})
    else:
        path = base if base.suffix else base.with_suffix(".json")
        measure.save_measure(out, path)
        written.append({"path": str(path), "points": len(out), "mass": out.total_mass})
    return {"files": written}


# -- verify -------------------------------------------------------------------
#
# An inequality a module asserts while it writes a report (factor 2, the
# truncation triangle, the necessity chain, the witness ball) is re-checked by
# calling that module's own function; only the JSON decoding lives here.


def _witness_array(data):
    if isinstance(data, dict) and "real" in data:
        return np.asarray(data["real"], float) + 1j * np.asarray(data["imag"], float)
    numbers = np.asarray(data)
    if numbers.dtype.kind in "biuf":  # no "NaN" / "Infinity" / "-Infinity" token
        return np.asarray(numbers, float)
    return np.asarray(
        [_float_back(v) for v in np.ravel(data)], float
    ).reshape(np.shape(data))


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def _check_norm(cfg, body, base_dir, restricted: bool = False) -> list[dict]:
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    f = _witness_array(body["witness_f"])
    g = _witness_array(body["witness_g"])
    value = _float_back(body["value"])
    quotient = forms.form_quotient(
        kernel, mu, nu, f, g, _float_back(body["p"]),
        multiplier=_scaled_multiplier(cfg),
        diagonal_policy=cfg.get("diagonal_policy"),
    )
    checks = [_check(
        "witness_quotient_matches_value",
        forms.quotient_reproduces(quotient, value),
        f"quotient {quotient}, value {value}",
    )]
    if restricted:
        shared = forms.shared_active_points(mu, nu, f, g)
        checks.append(_check(
            "witness_supports_separated",
            len(shared) == 0,
            f"{len(shared)} shared active point(s)",
        ))
    return checks


def _check_schur_bound(cfg, body, base_dir) -> list[dict]:
    fresh = _run_schur_bound(cfg, base_dir)
    return [_check(
        "bound_reproduced",
        mollifiers.bound_reproduces(fresh["bound"], _float_back(body["bound"])),
        f"stored {body['bound']}, recomputed {fresh['bound']}",
    )]


def _check_moment_order(cfg, body, base_dir) -> list[dict]:
    fresh = _run_moment_order(cfg, base_dir)
    return [
        _check(
            "order_reproduced", fresh["order"] == body["order"],
            f"stored {body['order']}, recomputed {fresh['order']}",
        ),
        _check(
            "slope_reproduced",
            mollifiers.slope_reproduces(
                fresh["fitted_slope"], _float_back(body["fitted_slope"])
            ),
        ),
    ]


def _check_factor2(cfg, body, base_dir) -> list[dict]:
    operator = _float_back(body["operator"]["value"])
    restricted = _float_back(body["restricted"]["value"])
    return [
        *_check_norm(cfg, body["operator"], base_dir),
        *_check_norm(cfg, body["restricted"], base_dir, restricted=True),
        _check(
            "factor_two_inequality",
            forms.factor2_holds(operator, restricted, _float_back(body["tolerance"])),
            f"operator {operator}, restricted {restricted}",
        ),
        _check(
            "ratio_consistent",
            _float_back(body["ratio"]) == forms.factor2_ratio(operator, restricted),
        ),
    ]


def _check_split(cfg, body, base_dir) -> list[dict]:
    part = splitter.partition_from_dict(body["partition"])
    _, bad = _verify_partition(part, cfg, base_dir)
    return [_check("partition_checks_pass", not bad, f"failing: {bad}")]


def _check_split_verify(cfg, body, base_dir) -> list[dict]:
    return [_check("verification_recorded_ok", bool(body.get("ok")))]


def _check_truncate_compare(cfg, body, base_dir) -> list[dict]:
    value_dim = kernels.kernel_from_name(cfg["kernel"]).value_dim
    checks = []
    for row in body["comparisons"]:
        hard, smooth, psi = (
            _float_back(row[key])
            for key in ("norm_truncated", "norm_smooth", "norm_psi_part")
        )
        checks.append(_check(
            f"triangle_inequality_eps_{row['eps']}",
            truncation.triangle_holds(hard, smooth, psi),
            f"{hard} vs {smooth} + {psi}",
        ))
        # no profile or no annulus pair: nothing is dominated, nothing to check
        margin, kappa = _float_back(row["domination_margin"]), _float_back(row["kappa"])
        pairs = row["annulus_pairs"]
        checks.append(_check(
            f"sectorial_domination_eps_{row['eps']}",
            pairs == 0 or truncation.domination_holds(margin, kappa, value_dim),
            f"margin {margin} per |K|, kappa {kappa}, {pairs} annulus pairs",
        ))
    return checks


def _growth_witness(cfg, growth, base_dir) -> tuple[float, float]:
    """The stored growth constant and its witness ball re-evaluated."""
    mu, nu = _load_pair(cfg, base_dir)
    center, r = growth["witness_ball"]
    fresh = muckenhoupt.ball_value(
        mu, nu, np.asarray(center, float), _float_back(r),
        _float_back(growth["p"]), _float_back(growth["alpha"]),
    )
    return _float_back(growth["constant"]), fresh


def _check_muckenhoupt(cfg, body, base_dir) -> list[dict]:
    stored, fresh = _growth_witness(cfg, body, base_dir)
    return [_check(
        "witness_ball_reproduces_constant",
        muckenhoupt.witness_reproduces(fresh, stored),
        f"stored {stored}, re-evaluated {fresh}",
    )]


def _check_necessity(cfg, body, base_dir) -> list[dict]:
    # the restricted norm was solved on K with its diagonal set to 0
    checks = _check_norm(
        {**cfg, "diagonal_policy": 0.0}, body["restricted"], base_dir, restricted=True
    )
    for i, ball in enumerate(body["balls"]):
        if not ball["checked"]:
            continue
        min_entry = ball["min_entry"]
        checks.append(_check(f"ball_{i}_pointwise", muckenhoupt.pointwise_holds(
            None if min_entry is None else _float_back(min_entry),
            _float_back(ball["bound_target"]),
        )))
        checks.append(_check(f"ball_{i}_chain", muckenhoupt.chain_holds(*(
            _float_back(ball[key])
            for key in ("pairing", "chain_lhs", "image_norm", "quotient", "chain_rhs")
        ))))
    stored, fresh = _growth_witness(cfg, body["growth"], base_dir)
    checks.append(_check(
        "growth_witness_reproduced", muckenhoupt.witness_reproduces(fresh, stored)
    ))
    return checks


def _check_generate_measure(cfg, body, base_dir) -> list[dict]:
    checks, written = [], []
    for entry in body["files"]:
        path = _resolve_path(entry["path"], base_dir)
        m = measure.load_measure(path)
        written.append(m)
        checks.append(_check(
            f"file_valid_{path.name}", len(m) == entry["points"], f"{len(m)} points"
        ))
    if len(written) == 2:
        shared, _ = measure.shared_point_indices(written[0].points, written[1].points)
        checks.append(_check("no_shared_points", len(shared) == 0))
    return checks


def _verify_report(data: dict, base_dir: Path) -> list[dict]:
    command = data.get("command") if isinstance(data, dict) else None
    if command not in _COMMANDS or data.get("config") is None or data.get("report") is None:
        raise SchemaError("report lacks command/config/report fields")
    check = _COMMANDS[command].check
    if check is None:
        raise SchemaError(f"verify does not support command {command!r}")
    return check(data["config"], data["report"], base_dir)


def _run_verify(cfg, base_dir):
    if cfg["report"] is None:
        raise UsageError("verify needs --report")
    results = []
    for spec in str(cfg["report"]).split(","):
        path = _resolve_path(spec, base_dir)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read report {spec}: {exc}") from exc
        try:
            checks = _verify_report(data, path.parent)
        except KeyError as exc:
            raise SchemaError(f"report {spec} lacks field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"report {spec} has a malformed field: {exc}") from exc
        results.append(
            {"report": spec, "ok": all(c["ok"] for c in checks), "checks": checks}
        )
    failed = [r for r in results if not r["ok"]]
    if failed:
        raise ToleranceError(
            "verification failed: "
            + "; ".join(
                f"{r['report']}: {[c['check'] for c in r['checks'] if not c['ok']]}"
                for r in failed
            )
        )
    return {"reports": results, "ok": True}


# -- the command table --------------------------------------------------------


class Command(NamedTuple):
    """One subcommand.

    ``options`` maps each configuration key to its (default, flag type); the
    flag is ``--key`` with ``-`` for ``_``.  ``check`` is how ``verify``
    re-checks the command's reports (None: not verifiable), and ``csv`` names
    the report list and the columns of its ``--csv`` table.
    """

    options: dict
    run: Callable
    check: Callable | None = None
    csv: tuple | None = None


_COMMON_OPTIONS = {"seed": (0, int), "output": (None, str), "csv": (None, str)}
_HELP = {"output": "report path (default stdout)", "csv": "CSV table path"}

_PAIR = {"mu": (None, str), "nu": (None, str)}
_KERNEL_PAIR = {"kernel": ("hilbert", str), **_PAIR, "p": (2.0, float)}
_SMOOTHING = {"mollifier": (None, str), "eps": (None, float)}

_COMMANDS = {
    "schur_bound": Command(
        {"mollifier": ("gaussian", str), "method": ("wiener", str),
         "smoothness": (3, int), "half_width": (None, float), "points": (None, int)},
        _run_schur_bound, _check_schur_bound,
    ),
    "moment_order": Command(
        {"density": ("gaussian", str), "half_width": (12.0, float),
         "points": (4096, int), "max_order": (6, int), "tolerance": (1e-6, float)},
        _run_moment_order, _check_moment_order,
    ),
    "restricted_norm": Command(
        {**_KERNEL_PAIR, "cap": (24, int),
         "trials": (32, int), **_SMOOTHING, "diagonal_policy": (None, float)},
        _run_restricted_norm, functools.partial(_check_norm, restricted=True),
    ),
    "opnorm": Command(
        {**_KERNEL_PAIR, **_SMOOTHING, "diagonal_policy": (None, float)},
        _run_opnorm, _check_norm,
    ),
    "factor2": Command(
        {**_KERNEL_PAIR, "tolerance": (1e-9, float), "cap": (24, int),
         "trials": (32, int), **_SMOOTHING},
        _run_factor2, _check_factor2,
    ),
    "split": Command(
        {"sigma": (None, str), **_PAIR, "level": (3, int),
         "tau": (splitter.DEFAULT_TAU, float), "partition_out": (None, str)},
        _run_split, _check_split,
    ),
    "split_verify": Command(
        {"partition": (None, str), "sigma": (None, str)},
        _run_split_verify, _check_split_verify,
    ),
    "truncate_compare": Command(
        {**_KERNEL_PAIR, "eps_grid": ("1.0", str), "delta": (0.1, float)},
        _run_truncate_compare, _check_truncate_compare,
        csv=("comparisons", (
            "eps", "norm_truncated", "norm_smooth", "norm_psi_part",
            "domination_margin", "kappa", "annulus_pairs",
        )),
    ),
    "muckenhoupt": Command(
        {**_PAIR, "p": (2.0, float), "alpha": (1.0, float),
         "radii": (None, str), "centers": (None, str)},
        _run_muckenhoupt, _check_muckenhoupt,
    ),
    "necessity": Command(
        {**_KERNEL_PAIR, "kernel": ("cauchy", str), "alpha": (None, float),
         "eps_grid": ("0.25", str), "max_balls": (4, int), "trials": (24, int)},
        _run_necessity, _check_necessity,
        csv=("balls", (
            "eps", "center", "mu_mass", "nu_mass", "pairs_checked",
            "min_entry", "bound_target", "pointwise_ok", "pairing",
            "chain_lhs", "quotient", "chain_rhs", "chain_ok",
        )),
    ),
    "generate_measure": Command(
        {"kind": ("lebesgue_grid", str), "params": ("", str),
         "report_out": (None, str)},
        _run_generate_measure, _check_generate_measure,
    ),
    "verify": Command({"report": (None, str)}, _run_verify),
}


def _csv_rows(command: str, body: dict) -> list[dict]:
    if _COMMANDS[command].csv is None:
        raise UsageError(f"{command} has no CSV table")
    field, columns = _COMMANDS[command].csv
    return [{key: row[key] for key in columns} for row in body[field]]


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siolab",
        description="Experiments on restricted boundedness of singular integral operators.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name.replace("_", "-"))
        p.set_defaults(command=name)
        p.add_argument("--config", default=None, help="JSON config file")
        for key, (_, kind) in {**_COMMON_OPTIONS, **command.options}.items():
            p.add_argument(
                "--" + key.replace("_", "-"), type=kind, default=None, help=_HELP.get(key)
            )
    return parser


def run(command: str, config: dict, base_dir: Path | None = None) -> dict:
    """Execute one resolved configuration and return the full report."""
    body = _COMMANDS[command].run(config, base_dir)
    return {"command": command, "config": config, "report": body}


def _read_config(path: str | None) -> dict | None:
    """The JSON object in the ``--config`` file, if one is named."""
    if not path:
        return None
    try:
        file_config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    if not isinstance(file_config, dict):
        raise SchemaError("config file must hold a JSON object")
    return file_config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2

    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    # --output names generate-measure's measure file; its reports go elsewhere
    report_key = "report_out" if args.command == "generate_measure" else "output"
    try:
        cfg = resolve_config(args.command, _read_config(args.config), overrides)
        csv_path = cfg.pop("csv", None)
        report = run(args.command, cfg, base_dir=Path.cwd())
        if csv_path:
            _emit_csv(_csv_rows(args.command, report["report"]), csv_path)
        _emit(report, cfg.get(report_key))
        return 0
    except SiolabError as exc:
        error_report = {
            "command": args.command,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            },
        }
        _emit(error_report, getattr(args, report_key))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
