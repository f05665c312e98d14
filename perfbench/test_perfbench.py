"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import copy
import json
import re
import sys
import types

import pytest

import answers
import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock, rss=lambda: 0.0)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        clock.now += 0.5
        wrapped_middle()
        clock.now += 0.25

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_middle = t.wrap("middle", middle)
    t.wrap("outer", outer)()

    assert t.stats["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "rss_rise_mb": 0.0}
    assert t.stats["middle"]["total_s"] == 5.0
    assert t.stats["middle"]["self_s"] == 1.0
    assert t.stats["outer"]["total_s"] == 5.75
    assert t.stats["outer"]["self_s"] == 0.75


def test_self_time_and_calls_recorded_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock, rss=lambda: 0.0)

    def boom():
        clock.now += 1.0
        raise ValueError

    wrapped = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        t.wrap("outer", lambda: wrapped())()
    assert t.stats["boom"]["calls"] == 1
    assert t.stats["outer"]["self_s"] == 0.0


def test_counters_read_from_the_result():
    t = tracer.Tracer(rss=lambda: 0.0)
    wrapped = t.wrap("f", lambda x: types.SimpleNamespace(iterations=x),
                     {"iterations": lambda r: r.iterations})
    wrapped(3)
    wrapped(4)
    assert t.stats["f"]["iterations"] == 7


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a defines f; fakepkg.b binds it with ``from .a import f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    a.f = f
    b.f = f
    b.g = lambda: b.f() + 1
    for module in (pkg, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b, f


def test_install_rebinds_every_module_that_holds_the_function(fake_package):
    a, b, original = fake_package
    t = tracer.Tracer()
    tracer.install(t, package="fakepkg", spans=("a.f",))
    assert a.f is not original and b.f is a.f
    assert b.g() == 2
    assert t.stats["a.f"]["calls"] == 1


def test_install_rejects_a_missing_function(fake_package):
    with pytest.raises(RuntimeError):
        tracer.install(tracer.Tracer(), package="fakepkg", spans=("a.nope",))


def test_tracer_covers_every_span_in_siolab():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        import siolab  # noqa: F401
        from siolab import forms, kernels, muckenhoupt
    finally:
        sys.path.pop(0)
    originals = (kernels.materialize, forms.operator_norm_p2, muckenhoupt.ap_alpha_constant)
    saved = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "siolab" or name.startswith("siolab.")
    }
    try:
        tracer.install(tracer.Tracer())
        # names bound by ``from .x import name`` are traced too
        assert forms.materialize is kernels.materialize is not originals[0]
        assert muckenhoupt.operator_norm_p2 is forms.operator_norm_p2 is not originals[1]
        assert muckenhoupt.ap_alpha_constant is not originals[2]
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)


OPNORM = {"command": "opnorm", "config": {}, "report": {"kind": "operator_exact_p2", "value": 1.5}}
HEURISTIC = {"command": "restricted_norm", "config": {},
             "report": {"kind": "restricted_heuristic", "value": 0.75}}
GROWTH = {"command": "muckenhoupt", "config": {},
          "report": {"constant": 2.0, "witness_ball": [[0.25, -0.5], 0.125]}}


def _reference(report):
    return {name: value for name, (value, _, _) in answers.headlines(report).items()}


def test_answer_check_accepts_the_recorded_answers():
    for report in (OPNORM, HEURISTIC, GROWTH):
        assert answers.check_report(report, _reference(report)) == []


@pytest.mark.parametrize("report, path, factor", [
    (OPNORM, ("value",), 1 + 1e-6),
    (OPNORM, ("value",), 1 - 1e-6),
    (HEURISTIC, ("value",), 1 - 1e-6),
    (GROWTH, ("constant",), 1 + 1e-9),
    (GROWTH, ("witness_ball", 1), 2.0),
])
def test_answer_check_rejects_a_perturbed_report(report, path, factor):
    reference = _reference(report)
    perturbed = copy.deepcopy(report)
    body = perturbed["report"]
    for key in path[:-1]:
        body = body[key]
    body[path[-1]] *= factor
    assert answers.check_report(perturbed, reference)


def test_answer_check_lets_a_lower_bound_rise():
    raised = copy.deepcopy(HEURISTIC)
    raised["report"]["value"] = 0.8
    assert answers.check_report(raised, _reference(HEURISTIC)) == []


def test_answer_check_rejects_failed_verification_and_error_reports():
    assert answers.check_report({"command": "verify", "report": {"ok": False}}, {})
    assert answers.check_report({"command": "opnorm", "error": {"message": "x"}}, {})
    assert answers.check_report({"command": "opnorm", "config": {}, "report": {
        "kind": "operator_exact_p2", "value": 1.0}}, {"missing": 1.0})


def test_every_input_set_has_a_recorded_reference():
    references = json.loads(run.REFERENCE.read_text())
    for name, workload in run.WORKLOADS.items():
        assert sorted(references[name], key=int) == [str(i) for i in range(workload.input_sets)]


def test_benchmark_file_matches_the_runner_and_names_are_valid():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)


def test_generated_inputs_are_seeded_siolab_measures(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        from siolab import measure
    finally:
        sys.path.pop(0)
    make = run.WORKLOADS["dense-2000"].make_inputs
    for directory in (tmp_path / "a", tmp_path / "b"):
        directory.mkdir()
        make(directory, 3)
    names = ("a-mu.json", "a-nu.json", "b-mu.json", "b-nu.json")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert len(measure.load_measure(tmp_path / "a" / name)) == 2000
    assert len({(tmp_path / "a" / name).read_bytes() for name in names}) == len(names)


def test_same_files_reports_differences(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "same.json").write_text("{}")
    (a / "x.json").write_text("1")
    (b / "x.json").write_text("2")
    (a / "only.json").write_text("")
    assert run.same_files(a, b) == ["only.json", "x.json"]
