"""Record the headline answers of every workload input set into reference.json.

    python3 perfbench/record_references.py [WORKLOAD ...]

Runs each input set of each named workload (default: all) once, checks that
every command succeeded and every verify is ok, and stores the headline
values (see ``answers.py``) of each report.  The references are recorded
once, at the commit that defines the benchmark; later runs are checked
against them.
"""

import json
import os
import shutil
import sys

import answers
import run


def record(name: str, env: dict) -> dict:
    workload = run.WORKLOADS[name]
    recorded = {}
    for input_set in range(workload.input_sets):
        work = run.WORK / f"record-{name}-{input_set}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = run.run_pass(workload, input_set, work / "pass", work / "meta", env,
                                  run._now() + 3600)
            problems = run.check_pass(workload, result, None)
            if any(problems):
                raise SystemExit(f"{name} input set {input_set} failed: {problems}")
            recorded[str(input_set)] = {
                report_file: {
                    h: value
                    for h, (value, _, _) in answers.headlines(
                        json.loads((result["directory"] / report_file).read_text())
                    ).items()
                }
                for report_file, _ in workload.commands
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name} input set {input_set}: wall {result['wall_s']:.2f} s", flush=True)
    return recorded


def main(names: list[str]) -> None:
    env = run.child_env(os.cpu_count() or 1)
    run.probe(env, run._now() + 600)
    references = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in names or list(run.WORKLOADS):
        references[name] = record(name, env)
        run.REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
