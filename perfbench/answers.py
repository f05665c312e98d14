"""Headline values of siolab reports, and their check against references.

A headline is one number a report certifies: a norm value, a growth constant
and its witness ball, a restricted-norm lower bound, a partition's separation
and balance.  ``reference.json`` holds the headlines recorded at the commit
that defined the benchmark, keyed by workload, input set and report file.

Each headline carries the rule it is checked by.  Tolerances are the ones
``siolab verify`` already applies to the same numbers:

- norm values: relative 1e-8, as for a witness quotient against its value;
- growth constants and witness balls: relative 1e-12, as for the witness
  ball re-evaluation;
- certified lower bounds (``restricted_heuristic``) may rise freely but may
  not drop below the reference by more than relative 1e-8;
- partition separation: absolute 1e-15, as in the separation check.  The
  worst balance deviation has no tolerance in ``verify`` (it is held below
  2^-level); here it must match within absolute 1e-12.
"""

from __future__ import annotations

NORM_RTOL = 1e-8
GROWTH_RTOL = 1e-12
SEPARATION_ATOL = 1e-15
BALANCE_ATOL = 1e-12


def _norm(estimate: dict, prefix: str) -> dict:
    """A NormEstimate's value: exact, or a lower bound for the heuristic."""
    rule = "lower" if estimate["kind"] == "restricted_heuristic" else "rel"
    return {prefix: (float(estimate["value"]), rule, NORM_RTOL)}


def _growth(report: dict, prefix: str) -> dict:
    center, r = report["witness_ball"]
    out = {f"{prefix}constant": (float(report["constant"]), "rel", GROWTH_RTOL)}
    out[f"{prefix}witness_r"] = (float(r), "rel", GROWTH_RTOL)
    for i, x in enumerate(center):
        out[f"{prefix}witness_center.{i}"] = (float(x), "rel", GROWTH_RTOL)
    return out


def headlines(report: dict) -> dict[str, tuple[float, str, float]]:
    """{name: (value, rule, tolerance)} for one successful CLI report."""
    command, body = report["command"], report["report"]
    if command in ("opnorm", "restricted_norm"):
        return _norm(body, "value")
    if command == "factor2":
        return {**_norm(body["operator"], "operator"), **_norm(body["restricted"], "restricted")}
    if command == "muckenhoupt":
        return _growth(body, "")
    if command == "necessity":
        out = {**_norm(body["restricted"], "restricted"), **_growth(body["growth"], "growth.")}
        for i, (_, value) in enumerate(body["operator_norms"]):
            out[f"operator_norms.{i}"] = (float(value), "rel", NORM_RTOL)
        return out
    if command == "split":
        part = body["partition"]
        worst = max((max(v) for v in part["balance_report"].values()), default=0.0)
        return {
            "separation": (float(part["separation"]), "abs", SEPARATION_ATOL),
            "balance": (float(worst), "abs", BALANCE_ATOL),
        }
    return {}


def agrees(value: float, reference: float, rule: str, tol: float) -> bool:
    scale = max(abs(reference), 1e-300)
    if rule == "rel":
        return abs(value - reference) <= tol * scale
    if rule == "lower":
        return value >= reference - tol * scale
    if rule == "abs":
        return abs(value - reference) <= tol
    raise ValueError(f"unknown rule {rule!r}")


def check_report(report: dict, reference: dict | None) -> list[str]:
    """Problems with one command's report; empty when the answer is right.

    A structured error report, a ``verify``/``split-verify`` that is not ok,
    a missing headline or one outside its tolerance are problems.  With no
    reference (``None``) only the first two are checked.
    """
    if "error" in report:
        return [f"error report: {report['error'].get('message')}"]
    problems = []
    if report["command"] in ("verify", "split_verify") and report["report"].get("ok") is not True:
        problems.append(f"{report['command']} not ok")
    if reference is None:
        return problems
    actual = headlines(report)
    for name, ref in sorted(reference.items()):
        if name not in actual:
            problems.append(f"headline {name} missing")
            continue
        value, rule, tol = actual[name]
        if not agrees(value, ref, rule, tol):
            problems.append(f"{name} = {value!r}, reference {ref!r} ({rule} {tol:g})")
    return problems
