"""Reproducible experiment runner binding all modules.

Every subcommand resolves its configuration from an optional JSON file plus
command-line flags (flags win), runs against seeds derived from the single
``seed`` entry, and emits one JSON report carrying the fully resolved
configuration inline, so a report is self-describing and reruns with the
same configuration are byte-identical.  Reports never embed timestamps,
hostnames, or absolute environment data.

Exit codes: 0 success, 1 data/tolerance failure, 2 usage or schema error,
3 numerical non-convergence.

Measure arguments accept either a path to a measure file (as written by
``generate-measure`` or :func:`siolab.measure.save_measure`) or an inline
generator spec ``kind:key=value,...`` with kinds ``lebesgue_grid``,
``random_atoms``, ``ball_uniform`` and ``interleaved_grids`` (the latter
takes ``part=1`` or ``part=2``).  Vector-valued parameters use ``;`` between
components, e.g. ``corner=0;0``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import forms, kernels, measure, mollifiers, muckenhoupt, splitter, truncation
from .errors import (
    ParameterError,
    SchemaError,
    SiolabError,
    ToleranceError,
    UsageError,
)

__all__ = ["main", "run", "generate_measure", "resolve_config"]


# -- JSON plumbing ----------------------------------------------------------


def _jsonify(obj):
    """Recursively convert reports to JSON-safe structures.

    Non-finite floats become the strings "NaN" / "Infinity" / "-Infinity"
    (json.dumps runs with allow_nan=False, so nothing slips through);
    complex data becomes {"real": ..., "imag": ...}; tuple dict keys join
    with commas.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"real": _jsonify(obj.real), "imag": _jsonify(obj.imag)}
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"real": _jsonify(float(obj.real)), "imag": _jsonify(float(obj.imag))}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x):
            return "NaN"
        if np.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    return obj


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _float_back(v):
    """Inverse of the non-finite float encoding used by :func:`_jsonify`."""
    if v == "NaN":
        return float("nan")
    if v == "Infinity":
        return float("inf")
    if v == "-Infinity":
        return float("-inf")
    return float(v)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
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


# -- measure generators -----------------------------------------------------


def generate_measure(kind: str, params: dict, seed: int):
    """Deterministic measure construction for the named generator kind.

    Returns one measure, except ``interleaved_grids`` which returns the
    pair (mu, nu) of half-cell-offset grids sharing no points.
    """
    params = dict(params)
    dimension = int(params.pop("dimension", 1))

    def vec(name, default):
        v = params.pop(name, default)
        arr = np.asarray(v, dtype=float).ravel()
        if arr.size == 1:
            arr = np.full(dimension, arr[0])
        if arr.size != dimension:
            raise ParameterError(f"{name} must have {dimension} components")
        return arr

    if kind == "lebesgue_grid":
        corner = vec("corner", 0.0)
        side = float(params.pop("side", 1.0))
        h = float(params.pop("h", 2.0**-6))
        _no_extras(kind, params)
        return measure.lebesgue_grid(corner, side, h, dimension)
    if kind == "interleaved_grids":
        corner = vec("corner", 0.0)
        side = float(params.pop("side", 1.0))
        h = float(params.pop("h", 2.0**-6))
        part = params.pop("part", None)
        _no_extras(kind, params)
        mu = measure.lebesgue_grid(corner, side, h, dimension)
        nu = measure.lebesgue_grid(corner + h / 2.0, side, h, dimension)
        if part is None:
            return mu, nu
        return {1: mu, 2: nu}[int(part)]
    if kind == "random_atoms":
        n = int(params.pop("n", 8))
        low = float(params.pop("low", 0.0))
        high = float(params.pop("high", 1.0))
        _no_extras(kind, params)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(low, high, (n, dimension))
        w = rng.uniform(0.5, 1.5, n) / n
        return measure.from_points(pts, w, atomic=True)
    if kind == "ball_uniform":
        n = int(params.pop("n", 256))
        radius = float(params.pop("radius", 1.0))
        if dimension == 1 and "dimension" not in params:
            dimension = 2
        center = vec("center", 0.0)
        _no_extras(kind, params)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, dimension))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        rr = radius * rng.random(n) ** (1.0 / dimension)
        pts = center + raw * rr[:, None]
        return measure.from_points(pts, np.full(n, 1.0 / n))
    raise ParameterError(f"unknown measure kind {kind!r}")


def _no_extras(kind: str, params: dict) -> None:
    if params:
        raise ParameterError(f"unknown parameter(s) for {kind}: {sorted(params)}")


def _parse_inline_params(arg_str: str) -> dict:
    params = {}
    if arg_str:
        for item in arg_str.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ParameterError(f"malformed measure argument {item!r}")
            params[key.strip()] = [float(x) for x in val.split(";")] if ";" in val else _auto(val)
    return params


def _auto(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


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
    kind, _, arg_str = spec.partition(":")
    out = generate_measure(kind, _parse_inline_params(arg_str), seed)
    if isinstance(out, tuple):
        raise UsageError(
            f"{kind} generates two measures; select one with part=1 or part=2"
        )
    return out


def _parse_grid(spec) -> list[float]:
    """Scale grids: 'lo:hi:n' geometric, or comma-separated explicit values."""
    if isinstance(spec, (list, tuple)):
        return [float(x) for x in spec]
    text = str(spec)
    if ":" in text:
        lo, hi, n = text.split(":")
        return [float(x) for x in np.geomspace(float(lo), float(hi), int(n))]
    return [float(x) for x in text.split(",")]


def _parse_floats(spec) -> list[float]:
    if isinstance(spec, (list, tuple)):
        return [float(x) for x in spec]
    return [float(x) for x in str(spec).split(",")]


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

_DEFAULTS: dict[str, dict] = {
    "schur_bound": {
        "mollifier": "gaussian",
        "method": "wiener",
        "smoothness": 3,
        "half_width": None,
        "points": None,
    },
    "moment_order": {
        "density": "gaussian",
        "half_width": 12.0,
        "points": 4096,
        "max_order": 6,
        "tolerance": 1e-6,
    },
    "restricted_norm": {
        "kernel": "hilbert",
        "mu": None,
        "nu": None,
        "p": 2.0,
        "method": "auto",
        "cap": 24,
        "trials": 32,
        "mollifier": None,
        "eps": None,
        "diagonal_policy": None,
    },
    "opnorm": {
        "kernel": "hilbert",
        "mu": None,
        "nu": None,
        "p": 2.0,
        "mollifier": None,
        "eps": None,
        "diagonal_policy": None,
    },
    "factor2": {
        "kernel": "hilbert",
        "mu": None,
        "nu": None,
        "p": 2.0,
        "tolerance": 1e-9,
        "cap": 24,
        "trials": 32,
        "mollifier": None,
        "eps": None,
    },
    "split": {
        "sigma": None,
        "mu": None,
        "nu": None,
        "level": 3,
        "tau": splitter.DEFAULT_TAU,
        "partition_out": None,
    },
    "split_verify": {"partition": None, "sigma": None},
    "truncate_compare": {
        "kernel": "hilbert",
        "mu": None,
        "nu": None,
        "p": 2.0,
        "eps_grid": "1.0",
        "delta": 0.1,
        "x0": None,
    },
    "muckenhoupt": {
        "mu": None,
        "nu": None,
        "p": 2.0,
        "alpha": 1.0,
        "radii": None,
        "centers": None,
    },
    "necessity": {
        "kernel": "cauchy",
        "mu": None,
        "nu": None,
        "p": 2.0,
        "alpha": None,
        "eps_grid": "0.25",
        "pairs_per_ball": 1000,
        "max_balls": 4,
        "trials": 24,
    },
    "generate_measure": {
        "kind": "lebesgue_grid",
        "params": "",
        "report_out": None,
    },
    "verify": {"report": None},
}

_COMMON_DEFAULTS = {"seed": 0, "output": None, "csv": None}


def resolve_config(command: str, file_config: dict | None, overrides: dict) -> dict:
    """defaults <- file <- flags, rejecting keys the command does not take."""
    defaults = dict(_DEFAULTS[command])
    defaults.update(_COMMON_DEFAULTS)
    merged = dict(defaults)
    for layer in (file_config or {}), overrides:
        for key, value in layer.items():
            if key == "command":
                if value != command:
                    raise SchemaError(
                        f"config file is for {value!r}, not {command!r}"
                    )
                continue
            if key not in defaults:
                raise SchemaError(f"unknown configuration key {key!r} for {command}")
            if value is not None:
                merged[key] = value
    merged["command"] = command
    return merged


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
    L = float(cfg["half_width"])
    M = int(cfg["points"])
    dx = 2.0 * L / M
    points = -L + dx * (np.arange(M) + 0.5)
    density = _density_from_name(cfg["density"])
    report = mollifiers.moment_order(
        points, density(points), dx, int(cfg["max_order"]), float(cfg["tolerance"])
    )
    return dataclasses.asdict(report)


def _load_pair(cfg, base_dir):
    mu = _measure_from_spec(cfg["mu"], int(cfg["seed"]), base_dir)
    nu = _measure_from_spec(cfg["nu"], int(cfg["seed"]) + 1, base_dir)
    return mu, nu


def _run_restricted_norm(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    km = kernels.materialize(
        kernel, mu, nu,
        multiplier=_scaled_multiplier(cfg),
        diagonal_policy=cfg["diagonal_policy"],
    )
    method = cfg["method"]
    if method == "auto":
        method = "exact" if len(mu) + len(nu) <= int(cfg["cap"]) else "heuristic"
    if method == "exact":
        est = forms.restricted_norm_exact(km, float(cfg["p"]), cap=int(cfg["cap"]))
    elif method == "heuristic":
        est = forms.restricted_norm_heuristic(
            km, float(cfg["p"]), trials=int(cfg["trials"]), seed=int(cfg["seed"])
        )
    else:
        raise UsageError(f"unknown method {cfg['method']!r}")
    return dataclasses.asdict(est)


def _run_opnorm(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    km = kernels.materialize(
        kernel, mu, nu,
        multiplier=_scaled_multiplier(cfg),
        diagonal_policy=cfg["diagonal_policy"],
    )
    p = float(cfg["p"])
    if p == 2.0:
        est = forms.operator_norm_p2(km, seed=int(cfg["seed"]))
    else:
        est = forms.operator_norm_p(km, p, seed=int(cfg["seed"]))
    return dataclasses.asdict(est)


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
    if cfg["partition_out"]:
        splitter.save_partition(part, cfg["partition_out"])
    checks = splitter.verify_partition(part, sigma)
    return {"partition": splitter.partition_to_dict(part), "verification": checks}


def _run_split_verify(cfg, base_dir):
    if cfg["partition"] is None:
        raise UsageError("split-verify needs --partition")
    path = Path(cfg["partition"])
    if base_dir is not None and not path.exists():
        path = base_dir / cfg["partition"]
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read partition file: {exc}") from exc
    if "partition" in data:  # a split report; unwrap
        data = data["partition"]
    part = splitter.partition_from_dict(data)
    sigma = None
    if cfg["sigma"] is not None:
        sigma = _measure_from_spec(cfg["sigma"], int(cfg["seed"]), base_dir)
    checks = splitter.verify_partition(part, sigma)
    failing = [name for name, (ok, _) in checks.items() if not ok]
    if failing:
        raise ToleranceError(f"partition failed verification: {failing}")
    return {"checks": checks, "ok": True}


def _run_truncate_compare(cfg, base_dir):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    eps_list = _parse_grid(cfg["eps_grid"])
    x0 = None if cfg["x0"] is None else np.asarray(_parse_floats(cfg["x0"]))
    rows = truncation.compare_truncations(
        kernel, mu, nu,
        p=float(cfg["p"]),
        eps_list=eps_list,
        delta=float(cfg["delta"]),
        x0=x0,
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
        pairs_per_ball=int(cfg["pairs_per_ball"]),
        max_balls=int(cfg["max_balls"]),
        heuristic_trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    return dataclasses.asdict(report)


def _run_generate_measure(cfg, base_dir):
    if not cfg["output"]:
        raise UsageError("generate-measure needs --output")
    out = generate_measure(
        cfg["kind"], _parse_inline_params(cfg["params"]), int(cfg["seed"])
    )
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


_RUNNERS = {
    "schur_bound": _run_schur_bound,
    "moment_order": _run_moment_order,
    "restricted_norm": _run_restricted_norm,
    "opnorm": _run_opnorm,
    "factor2": _run_factor2,
    "split": _run_split,
    "split_verify": _run_split_verify,
    "truncate_compare": _run_truncate_compare,
    "muckenhoupt": _run_muckenhoupt,
    "necessity": _run_necessity,
    "generate_measure": _run_generate_measure,
}


# -- verify -------------------------------------------------------------------


def _witness_array(data):
    if isinstance(data, dict) and "real" in data:
        return np.asarray(data["real"], float) + 1j * np.asarray(data["imag"], float)
    return np.asarray(
        [_float_back(v) for v in np.ravel(data)], float
    ).reshape(np.shape(data))


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def _verify_norm_report(cfg, body, base_dir, checks, restricted: bool):
    kernel = kernels.kernel_from_name(cfg["kernel"])
    mu, nu = _load_pair(cfg, base_dir)
    f = _witness_array(body["witness_f"])
    g = _witness_array(body["witness_g"])
    value = _float_back(body["value"])
    p = _float_back(body["p"])
    quotient = forms.form_quotient(
        kernel, mu, nu, f, g, p,
        multiplier=_scaled_multiplier(cfg),
        diagonal_policy=cfg.get("diagonal_policy"),
    )
    _check(
        checks,
        "witness_quotient_matches_value",
        abs(quotient - value) <= 1e-8 * max(value, 1e-30) + 1e-30,
        f"quotient {quotient}, value {value}",
    )
    if restricted:
        f_active = np.flatnonzero(np.abs(f) > 0)
        g_mags = np.abs(g) if g.ndim == 1 else np.linalg.norm(g, axis=-1)
        g_active = np.flatnonzero(g_mags > 0)
        shared, _ = measure.shared_point_indices(
            mu.points[f_active], nu.points[g_active]
        )
        _check(
            checks,
            "witness_supports_separated",
            len(shared) == 0,
            f"{len(shared)} shared active point(s)",
        )


def _verify_report(data: dict, base_dir: Path) -> list[dict]:
    command = data.get("command")
    cfg = data.get("config")
    body = data.get("report")
    checks: list[dict] = []
    if command not in _RUNNERS or cfg is None or body is None:
        raise SchemaError("report lacks command/config/report fields")

    if command in ("restricted_norm", "opnorm"):
        _verify_norm_report(
            cfg, body, base_dir, checks, restricted=command == "restricted_norm"
        )
    elif command == "schur_bound":
        fresh = _run_schur_bound(cfg, base_dir)
        _check(
            checks,
            "bound_reproduced",
            abs(fresh["bound"] - _float_back(body["bound"]))
            <= 1e-9 * max(fresh["bound"], 1.0),
            f"stored {body['bound']}, recomputed {fresh['bound']}",
        )
    elif command == "moment_order":
        fresh = _run_moment_order(cfg, base_dir)
        _check(
            checks, "order_reproduced", fresh["order"] == body["order"],
            f"stored {body['order']}, recomputed {fresh['order']}",
        )
        _check(
            checks,
            "slope_reproduced",
            abs(fresh["fitted_slope"] - _float_back(body["fitted_slope"])) <= 1e-9,
            "",
        )
    elif command == "factor2":
        operator = _float_back(body["operator"]["value"])
        restr = _float_back(body["restricted"]["value"])
        ratio = _float_back(body["ratio"])
        tol = _float_back(body["tolerance"])
        _check(
            checks,
            "factor_two_inequality",
            operator <= 2.0 * restr + tol,
            f"operator {operator}, restricted {restr}",
        )
        expected = operator / restr if restr > 0 else float("inf")
        ratio_ok = (
            np.isinf(ratio) and np.isinf(expected)
            or abs(ratio - expected) <= 1e-9 * max(abs(expected), 1.0)
        )
        _check(checks, "ratio_consistent", bool(ratio_ok), "")
    elif command == "split":
        part = splitter.partition_from_dict(body["partition"])
        sigma = None
        if cfg.get("sigma") is not None:
            sigma = _measure_from_spec(cfg["sigma"], int(cfg["seed"]), base_dir)
        fresh = splitter.verify_partition(part, sigma)
        bad = [name for name, (ok, _) in fresh.items() if not ok]
        _check(checks, "partition_checks_pass", not bad, f"failing: {bad}")
    elif command == "split_verify":
        _check(checks, "verification_recorded_ok", bool(body.get("ok")), "")
    elif command == "truncate_compare":
        for row in body["comparisons"]:
            eps = row["eps"]
            hard = _float_back(row["norm_truncated"])
            smooth = _float_back(row["norm_smooth"])
            psi = _float_back(row["norm_psi_part"])
            _check(
                checks,
                f"triangle_inequality_eps_{eps}",
                hard <= smooth + psi + 1e-9 * max(hard, 1.0),
                f"{hard} vs {smooth} + {psi}",
            )
    elif command == "muckenhoupt":
        mu, nu = _load_pair(cfg, base_dir)
        center, r = body["witness_ball"]
        fresh = muckenhoupt.ball_value(
            mu, nu, np.asarray(center, float), _float_back(r),
            _float_back(body["p"]), _float_back(body["alpha"]),
        )
        stored = _float_back(body["constant"])
        _check(
            checks,
            "witness_ball_reproduces_constant",
            abs(fresh - stored) <= 1e-12 * max(abs(stored), 1e-300),
            f"stored {stored}, re-evaluated {fresh}",
        )
    elif command == "necessity":
        for i, ball in enumerate(body["balls"]):
            if not ball["checked"]:
                continue
            pairing = _float_back(ball["pairing"])
            lhs = _float_back(ball["chain_lhs"])
            image = _float_back(ball["image_norm"])
            quot = _float_back(ball["quotient"])
            rhs = _float_back(ball["chain_rhs"])
            entry_ok = _float_back(ball["min_entry"]) >= _float_back(
                ball["bound_target"]
            ) * (1.0 - 1e-9)
            chain_ok = (
                pairing >= lhs * (1.0 - 1e-9)
                and pairing <= image * (1.0 + 1e-9)
                and quot <= rhs * (1.0 + 1e-6)
            )
            _check(checks, f"ball_{i}_pointwise", entry_ok, "")
            _check(checks, f"ball_{i}_chain", chain_ok, "")
        mu, nu = _load_pair(cfg, base_dir)
        growth = body["growth"]
        center, r = growth["witness_ball"]
        fresh = muckenhoupt.ball_value(
            mu, nu, np.asarray(center, float), _float_back(r),
            _float_back(growth["p"]), _float_back(growth["alpha"]),
        )
        _check(
            checks,
            "growth_witness_reproduced",
            abs(fresh - _float_back(growth["constant"]))
            <= 1e-12 * max(abs(_float_back(growth["constant"])), 1e-300),
            "",
        )
    elif command == "generate_measure":
        for entry in body["files"]:
            path = Path(entry["path"])
            if not path.exists() and base_dir is not None:
                path = base_dir / entry["path"]
            m = measure.load_measure(path)
            _check(
                checks,
                f"file_valid_{path.name}",
                len(m) == entry["points"],
                f"{len(m)} points",
            )
        if len(body["files"]) == 2:
            pair = []
            for entry in body["files"]:
                path = Path(entry["path"])
                if not path.exists() and base_dir is not None:
                    path = base_dir / entry["path"]
                pair.append(measure.load_measure(path))
            shared, _ = measure.shared_point_indices(pair[0].points, pair[1].points)
            _check(checks, "no_shared_points", len(shared) == 0, "")
    else:
        raise SchemaError(f"verify does not support command {command!r}")
    return checks


def _run_verify(cfg, base_dir):
    if cfg["report"] is None:
        raise UsageError("verify needs --report")
    results = []
    all_ok = True
    for spec in str(cfg["report"]).split(","):
        path = Path(spec)
        if not path.exists() and base_dir is not None:
            path = base_dir / spec
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read report {spec}: {exc}") from exc
        checks = _verify_report(data, path.parent)
        ok = all(c["ok"] for c in checks)
        all_ok = all_ok and ok
        results.append({"report": spec, "ok": ok, "checks": checks})
    if not all_ok:
        raise ToleranceError(
            "verification failed: "
            + "; ".join(
                f"{r['report']}: {[c['check'] for c in r['checks'] if not c['ok']]}"
                for r in results
                if not r["ok"]
            )
        )
    return {"reports": results, "ok": all_ok}


_RUNNERS["verify"] = _run_verify


# -- CSV tables ---------------------------------------------------------------


def _csv_rows(command: str, body: dict) -> list[dict]:
    if command == "truncate_compare":
        return [
            {k: row[k] for k in (
                "eps", "norm_truncated", "norm_smooth", "norm_psi_part",
                "domination_margin", "kappa", "annulus_pairs",
            )}
            for row in body["comparisons"]
        ]
    if command == "necessity":
        return [
            {k: ball[k] for k in (
                "eps", "center", "mu_mass", "nu_mass", "pairs_checked",
                "min_entry", "bound_target", "pointwise_ok", "pairing",
                "chain_lhs", "quotient", "chain_rhs", "chain_ok",
            )}
            for ball in body["balls"]
        ]
    raise UsageError(f"{command} has no CSV table")


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siolab",
        description="Experiments on restricted boundedness of singular integral operators.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, *flags):
        p = sub.add_parser(name.replace("_", "-"))
        p.set_defaults(command=name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None, help="report path (default stdout)")
        p.add_argument("--csv", default=None, help="CSV table path")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    num = {"type": float, "default": None}
    integer = {"type": int, "default": None}
    text = {"default": None}

    add("schur_bound", ("--mollifier", text), ("--method", text),
        ("--smoothness", integer), ("--half-width", num), ("--points", integer))
    add("moment_order", ("--density", text), ("--half-width", num),
        ("--points", integer), ("--max-order", integer), ("--tolerance", num))
    add("restricted_norm", ("--kernel", text), ("--mu", text), ("--nu", text),
        ("--p", num), ("--method", text), ("--cap", integer), ("--trials", integer),
        ("--mollifier", text), ("--eps", num), ("--diagonal-policy", num))
    add("opnorm", ("--kernel", text), ("--mu", text), ("--nu", text), ("--p", num),
        ("--mollifier", text), ("--eps", num), ("--diagonal-policy", num))
    add("factor2", ("--kernel", text), ("--mu", text), ("--nu", text), ("--p", num),
        ("--tolerance", num), ("--cap", integer), ("--trials", integer),
        ("--mollifier", text), ("--eps", num))
    add("split", ("--sigma", text), ("--mu", text), ("--nu", text),
        ("--level", integer), ("--tau", num), ("--partition-out", text))
    add("split_verify", ("--partition", text), ("--sigma", text))
    add("truncate_compare", ("--kernel", text), ("--mu", text), ("--nu", text),
        ("--p", num), ("--eps-grid", text), ("--delta", num), ("--x0", text))
    add("muckenhoupt", ("--mu", text), ("--nu", text), ("--p", num),
        ("--alpha", num), ("--radii", text), ("--centers", text))
    add("necessity", ("--kernel", text), ("--mu", text), ("--nu", text),
        ("--p", num), ("--alpha", num), ("--eps-grid", text),
        ("--pairs-per-ball", integer), ("--max-balls", integer), ("--trials", integer))
    add("generate_measure", ("--kind", text), ("--params", text),
        ("--report-out", text))
    add("verify", ("--report", text))
    return parser


def run(command: str, config: dict, base_dir: Path | None = None) -> dict:
    """Execute one resolved configuration and return the full report."""
    body = _RUNNERS[command](config, base_dir)
    return {"command": command, "config": config, "report": body}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2

    file_config = None
    if args.config:
        try:
            file_config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return 2
        if not isinstance(file_config, dict):
            sys.stderr.write("error: config file must hold a JSON object\n")
            return 2

    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    try:
        cfg = resolve_config(args.command, file_config, overrides)
        csv_path = cfg.pop("csv", None)
        report = run(args.command, cfg, base_dir=Path.cwd())
        if csv_path:
            _emit_csv(_csv_rows(args.command, report["report"]), csv_path)
        if args.command == "generate_measure":
            # --output names the measure file; the report goes elsewhere
            _emit(report, cfg.get("report_out"))
        else:
            _emit(report, cfg.get("output"))
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
        _emit(error_report, getattr(args, "output", None))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
