"""End-to-end benchmark of the ``siolab`` command line, with a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; siolab is imported from its ``src``.
A workload is a fixed sequence of ``siolab`` commands.  One pass runs the
sequence once, each command in a fresh interpreter, one command at a time
(a closed loop with one client), with the BLAS thread count set to
``--blas-threads`` (default: the number of CPUs).  Passes repeat until the
next one would end after ``--seconds`` (at least ``MIN_PASSES``), and every
end-to-end metric is the median over the passes:

- ``wall_s``: from the first process spawn to the last exit of a pass,
  including re-verification, i.e. the time to a certified result;
- ``compute_s``: time inside ``siolab.cli.main``, summed over the processes;
- ``setup_s``: from spawn to the start of ``cli.main`` (interpreter start and
  ``import siolab``), summed over the processes;
- ``peak_rss_mb``: the highest peak RSS of one process of the pass.

A command fails on a non-zero exit, on a ``verify``/``split-verify`` that is
not ok, or when a headline value disagrees with ``reference.json``
(see ``answers.py``); ``ops_failed`` is failed over attempted commands.

Seeded workloads draw each pass's point sets from a catalogue of
``CATALOGUE`` input sets whose answers were recorded by
``record_references.py``; ``--seed`` fixes which input sets a run uses and in
which order.  Inputs are written as measure files before a pass starts.

With ``--trace 1`` the run adds one traced pass over the first pass's input
set: every command runs under ``-X importtime`` with the functions in
``tracer.SPANS`` wrapped, and the run reports the per-layer metrics instead.
The traced pass must write byte-identical files.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import answers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

MIN_PASSES = 2
CATALOGUE = 16
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("compute_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("import.siolab_s", "s"),
    ("import.scipy_spatial_s", "s"),
    ("import.scipy_integrate_s", "s"),
    ("kernels.materialize.self_s", "s"),
    ("kernels.materialize.calls", "count"),
    ("kernels.materialize.entries_mb", "MB"),
    ("kernels.materialize.rss_rise_mb", "MB"),
    ("forms.operator_norm_p2.self_s", "s"),
    ("forms.operator_norm_p2.calls", "count"),
    ("forms.operator_norm_p2.iterations", "count"),
    ("forms.restricted_norm_heuristic.self_s", "s"),
    ("forms.restricted_norm_heuristic.evaluations", "count"),
    ("forms.bilinear_form.self_s", "s"),
    ("muckenhoupt.ap_alpha_constant.self_s", "s"),
    ("muckenhoupt.ap_alpha_constant.ball_evals", "count"),
    ("muckenhoupt.ap_alpha_constant.rss_rise_mb", "MB"),
    ("muckenhoupt.necessity_experiment.self_s", "s"),
    ("splitter.build_partition.self_s", "s"),
    ("splitter.verify_partition.self_s", "s"),
    ("splitter.verify_partition.calls", "count"),
    ("mollifiers.wiener_norm.self_s", "s"),
    ("mollifiers.wiener_norm.calls", "count"),
    ("truncation.compare_truncations.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# import -X importtime package name -> per-layer metric
IMPORTS = {
    "siolab": "import.siolab_s",
    "scipy.spatial": "import.scipy_spatial_s",
    "scipy.integrate": "import.scipy_integrate_s",
}


# -- inputs ---------------------------------------------------------------------


def write_disk_cloud(path: Path, n: int, radius: float, seed) -> None:
    """n points uniform on a disk, uniform weights, as a siolab measure file."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    points = raw * (radius * np.sqrt(rng.random(n)))[:, None]
    data = {
        "atomic": [False] * n,
        "dimension": 2,
        "points": points.tolist(),
        "weights": [1.0 / n] * n,
    }
    path.write_text(json.dumps(data, sort_keys=True) + "\n")


def disk_clouds(n: int, radius: float, stream: int, names: tuple):
    """Input maker writing one independent disk cloud per file name."""
    def make(directory: Path, input_set: int) -> None:
        for k, name in enumerate(names):
            write_disk_cloud(directory / name, n, radius, [stream, input_set, k])

    return make


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple  # (report file, siolab arguments)
    make_inputs: Callable[[Path, int], None] | None = None  # None: no seeded inputs
    input_sets: int = 1


README_GRID = "lebesgue_grid:h=0.00390625"
README_ATOMS = "--mu random_atoms:n=10 --nu random_atoms:n=9,low=2,high=3"
GRID_2D = "lebesgue_grid:h=0.00390625,dimension=2"

# The seeded workloads are smaller than the ROADMAP's n=3000 / 400-point cases
# so that one run of about 28 s holds two to five passes.  Each command gets
# its own cloud, so a pass averages over independent inputs.
WORKLOADS = {
    "cli-readme": Workload(
        why="every README example at README size; the import floor dominates",
        commands=(
            ("schur.json", "schur-bound --mollifier gaussian --output schur.json"),
            ("op.json", f"opnorm --kernel hilbert {README_ATOMS} --seed 5 --output op.json"),
            ("rn.json", f"restricted-norm --kernel hilbert {README_ATOMS} --seed 5 --output rn.json"),
            ("f2.json", f"factor2 --kernel hilbert {README_ATOMS} --output f2.json"),
            ("split.json", f"split --sigma {README_GRID} --level 2 --partition-out part.json --output split.json"),
            ("check.json", f"split-verify --partition part.json --sigma {README_GRID} --output check.json"),
            ("tc.json", "truncate-compare --kernel cauchy"
             " --mu interleaved_grids:h=0.0625,dimension=2,part=1"
             " --nu interleaved_grids:h=0.0625,dimension=2,part=2"
             " --eps-grid 0.1:1.0:6 --csv table.csv --output tc.json"),
            ("mk.json", f"muckenhoupt --mu {README_GRID} --nu {README_GRID} --p 2 --alpha 1 --output mk.json"),
            ("nc.json", "necessity --kernel cauchy --mu ball_uniform:n=400,radius=0.25"
             " --nu ball_uniform:n=400,radius=0.25 --eps-grid 0.25 --output nc.json"),
            ("gen.json", "generate-measure --kind interleaved_grids --params h=0.0625"
             " --output pair.json --report-out gen.json"),
            ("mo.json", "moment-order --output mo.json"),
            ("verified.json", "verify --report schur.json,op.json,rn.json,f2.json,split.json,"
             "check.json,tc.json,mk.json,nc.json,gen.json,mo.json --output verified.json"),
        ),
    ),
    "dense-2000": Workload(
        why="two big dense solves and their witness re-check; materialize sets the peak",
        commands=(
            ("cauchy.json", "opnorm --kernel cauchy --mu a-mu.json --nu a-nu.json --output cauchy.json"),
            ("riesz.json", "opnorm --kernel riesz:alpha=1,n=2 --mu b-mu.json --nu b-nu.json"
             " --output riesz.json"),
            ("verified.json", "verify --report cauchy.json,riesz.json --output verified.json"),
        ),
        make_inputs=disk_clouds(2000, 1.0, 1, ("a-mu.json", "a-nu.json", "b-mu.json", "b-nu.json")),
        input_sets=CATALOGUE,
    ),
    "shared-search": Workload(
        why="one cloud as both measures: hundreds of small solves in the restricted search",
        commands=(
            ("necessity.json", "necessity --kernel cauchy --mu a.json --nu a.json"
             " --eps-grid 0.25 --output necessity.json"),
            ("restricted.json", "restricted-norm --kernel riesz:alpha=1,n=2 --mu b.json"
             " --nu b.json --diagonal-policy 0 --output restricted.json"),
            ("verified.json", "verify --report necessity.json,restricted.json --output verified.json"),
        ),
        make_inputs=disk_clouds(300, 0.25, 2, ("a.json", "b.json")),
        input_sets=CATALOGUE,
    ),
    "geometry": Workload(
        why="ball scan and level-5 partition build and verify; no kernel work",
        commands=(
            ("growth.json", "muckenhoupt --mu mu.json --nu nu.json --output growth.json"),
            ("split.json", f"split --sigma {GRID_2D} --level 5 --partition-out partition.json"
             " --output split.json"),
            ("check.json", f"split-verify --partition partition.json --sigma {GRID_2D} --output check.json"),
            ("verified.json", "verify --report growth.json --output verified.json"),
        ),
        make_inputs=disk_clouds(2000, 1.0, 3, ("mu.json", "nu.json")),
        input_sets=CATALOGUE,
    ),
}


# -- processes ------------------------------------------------------------------


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> int:
    """Exit code of a child; a child still running on any way out is killed."""
    try:
        return proc.wait(timeout=max(deadline - _now(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def probe(env: dict, deadline: float) -> dict:
    """Import siolab once in a child (warming caches) and report versions."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), "--probe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - _now(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("probe exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"cannot import siolab from {ROOT / 'src'}: {err.strip()[-500:]}")
    info = json.loads(out)
    if not Path(info["siolab_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"siolab imported from {info['siolab_file']}, not this checkout")
    return info


def run_pass(workload: Workload, input_set: int, directory: Path, meta: Path,
             env: dict, deadline: float, traced: bool = False) -> dict:
    """Run every command of a workload once, in order, in fresh processes."""
    directory.mkdir(parents=True)
    meta.mkdir(parents=True, exist_ok=True)
    if workload.make_inputs is not None:
        workload.make_inputs(directory, input_set)
    python = [sys.executable] + (["-X", "importtime"] if traced else [])
    procs = []
    first_spawn = _now()
    for k, (_, args) in enumerate(workload.commands):
        timing = meta / f"timing-{k}.json"
        extra = ["--spans", str(meta / f"spans-{k}.json")] if traced else []
        spawn = _now()
        with open(meta / f"stderr-{k}.txt", "w") as err:
            proc = subprocess.Popen(
                python + [str(BENCH / "child.py"), str(timing), *extra, "--", *args.split()],
                cwd=directory, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            rc = _wait(proc, deadline)
        exit_time = _now()
        record = {"spawn": spawn, "exit": exit_time, "rc": rc}
        if timing.exists():
            record.update(json.loads(timing.read_text()), rc=rc)
        procs.append(record)
    last_exit = procs[-1]["exit"]
    timed = [p for p in procs if "start" in p]
    return {
        "input_set": input_set,
        "directory": directory,
        "meta": meta,
        "procs": procs,
        "wall_s": last_exit - first_spawn,
        "setup_s": sum(p["start"] - p["spawn"] for p in timed),
        "compute_s": sum(p["end"] - p["start"] for p in timed),
        "peak_rss_mb": max((p["peak_rss_kb"] for p in timed), default=0) / 1024.0,
    }


def check_pass(workload: Workload, result: dict, reference: dict | None) -> list[str]:
    """One list of problems per command; a command with problems failed."""
    per_command = []
    for (report_file, _), proc in zip(workload.commands, result["procs"]):
        problems = [] if proc["rc"] == 0 else [f"exit code {proc['rc']}"]
        path = result["directory"] / report_file
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"no report: {exc}")
        else:
            expected = None if reference is None else reference.get(report_file, {})
            problems += answers.check_report(report, expected)
        per_command.append(problems)
    return per_command


def same_files(a: Path, b: Path) -> list[str]:
    """Relative paths that differ between two directory trees."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = sorted(str(n) for n in names_a ^ names_b)
    for name in sorted(names_a & names_b):
        if (a / name).read_bytes() != (b / name).read_bytes():
            differ.append(str(name))
    return differ


def layer_metrics(result: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass, summed over its processes."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for k in range(len(result["procs"])):
        spans_file = result["meta"] / f"spans-{k}.json"
        if spans_file.exists():
            for span, stats in json.loads(spans_file.read_text()).items():
                for stat, value in stats.items():
                    key = f"{span}.{stat}"
                    if key not in values:
                        continue
                    if stat == "rss_rise_mb":
                        values[key] = max(values[key], value)
                    else:
                        values[key] += value
        for line in (result["meta"] / f"stderr-{k}.txt").read_text().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, package = line.split("|")
                if package.strip() in IMPORTS and cumulative.strip().isdigit():
                    values[IMPORTS[package.strip()]] += int(cumulative) * 1e-6
    values["trace.overhead_s"] = result["wall_s"] - untraced_wall
    return values


# -- one workload ---------------------------------------------------------------


def log(text: str) -> None:
    print(text, flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 work: Path, deadline: float) -> dict:
    workload = WORKLOADS[name]
    references = json.loads(REFERENCE.read_text()).get(name, {})
    order = np.random.default_rng(seed).permutation(workload.input_sets)
    passes, failures, attempted = [], 0, 0
    started = _now()
    while True:
        input_set = int(order[len(passes) % len(order)])
        if str(input_set) not in references:
            raise BenchError(f"no recorded reference for {name} input set {input_set}")
        i = len(passes)
        result = run_pass(workload, input_set, work / f"pass-{i}", work / f"meta-{i}",
                          env, deadline)
        problems = check_pass(workload, result, references[str(input_set)])
        failed = sum(1 for p in problems if p)
        attempted += len(problems)
        failures += failed
        passes.append(result)
        log(f"pass {i} input set {input_set}: wall {result['wall_s']:.3f} s, "
            f"compute {result['compute_s']:.3f} s, setup {result['setup_s']:.3f} s, "
            f"peak {result['peak_rss_mb']:.1f} MB, failed {failed}/{len(problems)}")
        for (report_file, _), found in zip(workload.commands, problems):
            if found:
                log(f"  FAILED {report_file}: {'; '.join(found)}")
        elapsed = _now() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
        if _now() + typical > deadline - (2 * typical if trace else 0):
            break
    metrics = {
        metric: statistics.median(p[metric] for p in passes) for metric, _ in END_TO_END
    }
    identical = True
    if trace:
        traced = run_pass(workload, passes[0]["input_set"], work / "traced", work / "meta-traced",
                          env, deadline, traced=True)
        problems = check_pass(workload, traced, references[str(traced["input_set"])])
        attempted += len(problems)
        failures += sum(1 for p in problems if p)
        differ = same_files(passes[0]["directory"], traced["directory"])
        identical = not differ
        log(f"traced pass input set {traced['input_set']}: wall {traced['wall_s']:.3f} s, "
            f"byte-identical {identical}" + (f" (differ: {differ})" if differ else ""))
        metrics = layer_metrics(traced, metrics["wall_s"])
    metrics["ops_failed"] = failures / attempted
    return {"passes": len(passes), "attempted": attempted, "failed": failures,
            "correct": failures == 0 and identical, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "siolab" / "cli.py").is_file():
        print(f"error: no siolab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception so that the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = child_env(args.blas_threads)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = _now() + RUN_LIMIT_S * len(names)
    try:
        info = probe(env, deadline)
        log(f"environment: nproc {os.cpu_count()}, cpu {cpu_model()}, python {info['python']}, "
            f"numpy {info['numpy']}, scipy {info['scipy']}, blas {info['blas']}, "
            f"blas threads {args.blas_threads}")
        results = {}
        for name in names:
            log(f"workload {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         env, work / name, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = dict(PER_LAYER if args.trace else END_TO_END)
    units = {**reported, "ops_failed": "ratio"}
    for name, res in results.items():
        log(f"{name}: {res['passes']} passes, {res['failed']}/{res['attempted']} commands failed")
        for metric, value in res["metrics"].items():
            log(f"  {metric:48s} {value:14.6f} {units[metric]}")
    if len(results) == 1:
        metrics = {m: {"value": res["metrics"][m], "unit": u} for m, u in reported.items()}
    else:
        metrics = {f"{n}.{m}": {"value": r["metrics"][m], "unit": u}
                   for n, r in results.items() for m, u in reported.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
