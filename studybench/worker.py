"""One pass of a benchmark workload, in a fresh process.

Run by ``run.py``; prints one JSON object as the last line of stdout.

    python3 studybench/worker.py --workload mc-grid --seed 7 --mode pass
    python3 studybench/worker.py --workload kernel --seed 7 --mode pass \
        --spans out/spans.json          # traced pass
    python3 studybench/worker.py --workload kernel --seed 7 --mode setup

``--mode setup`` stops right before the first study would start, so the
caller can sample set-up time cheaply.  BLAS and the library's replicate
pool are pinned to one thread before numpy loads: every pass is the plain
single-threaded baseline, and the tracer's single span stack stays valid.
"""

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "RKHS_INVLAB_THREADS": "1"}
INHERITED_ENV = {name: os.environ.get(name) for name in PINNED_ENV}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rkhs_invlab import experiments  # noqa: E402
from rkhs_invlab.experiments import StudyConfig, StudyReport  # noqa: E402
from rkhs_invlab.spectral_model import problem_from_descriptor  # noqa: E402

import workloads  # noqa: E402


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Interpreter, numpy/BLAS build, thread settings and machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_env": dict(PINNED_ENV),
            "inherited_thread_env": INHERITED_ENV,
            "nproc": os.cpu_count(), "affinity_cpus": affinity,
            "cpu_model": _cpu_model(), "platform": platform.platform()}


def check_report(report):
    """Problems with a report's round trip and recomputed checks."""
    problems = []
    canonical = json.dumps(report.canonical_dict(), sort_keys=True)
    stored = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    back = StudyReport.from_dict(stored)
    if json.dumps(back.canonical_dict(), sort_keys=True) != canonical:
        problems.append(f"{report.kind}: to_dict/from_dict round trip "
                        f"changes the report")
    if back.recompute_checks() != back.checks:
        problems.append(f"{report.kind}: recompute_checks disagrees with "
                        f"the stored checks")
    return problems


def run_pass(configs, trace_path):
    """Run every study once; returns the pass result for ``run.py``."""
    tracing = None
    if trace_path is not None:
        import tracer as tracing  # only traced passes load the tracer
        recorder = tracing.Tracer()
        tracing.install(recorder)
    ready = time.monotonic()
    started = time.perf_counter()
    cpu_started = time.process_time()
    studies, problems = [], []
    for config in configs:
        study_start = time.perf_counter()
        entry = {"kind": config.kind, "seed": config.seed}
        try:
            # Studies print their STUDY line; stdout carries only our JSON.
            with contextlib.redirect_stdout(sys.stderr):
                report = experiments.run_study(config)
        except Exception as exc:  # a study that raises is counted, not fatal
            entry.update(verdict="error", canonical=None,
                         error=f"{type(exc).__name__}: {exc}")
        else:
            entry.update(verdict="pass" if report.verdict else "fail",
                         error=None,
                         canonical=json.dumps(report.canonical_dict(),
                                              sort_keys=True))
            problems += check_report(report)
        entry["wall_s"] = time.perf_counter() - study_start
        studies.append(entry)
    result = {"ready": ready, "wall_s": time.perf_counter() - started,
              "cpu_s": time.process_time() - cpu_started,
              "studies": studies, "problems": problems}
    if tracing is not None:
        spans = recorder.spans
        if any(own < -1e-9 or own > end - start + 1e-9
               for own, (_, start, end, _, _)
               in zip(tracing.self_times(spans), spans)):
            problems.append("trace: a span's self time exceeds its duration "
                            "or is negative")
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": [[n, s, e, p, _jsonable(x)]
                                 for n, s, e, p, x in spans]}, handle)
        result["layers"] = tracing.layer_metrics(spans)
    return result


def _jsonable(extra):
    if extra and "key" in extra:
        return {k: v for k, v in extra.items() if k != "key"}
    return extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--spans", default=None,
                        help="trace the pass and write its spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    configs = [StudyConfig.from_dict(raw) for raw in
               workloads.study_dicts(args.workload, args.seed, args.tiny)]
    for config in configs:
        problem_from_descriptor({**config.problem, "seed": config.seed})
    if args.mode == "setup":
        result = {"ready": time.monotonic()}
    else:
        result = run_pass(configs, args.spans)
        result["environment"] = environment()
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
