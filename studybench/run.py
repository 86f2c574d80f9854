"""Study benchmark for rkhs_invlab: one workload run, or a result comparison.

    python3 studybench/run.py --workload mc-grid --seed 7 --seconds 40 \
        --trace 0
    python3 studybench/run.py --compare A.json B.json

A run measures one workload (see ``workloads.py`` and README.md).  It starts
a few set-up probes and then whole passes over the workload's studies, each
in a fresh ``worker.py`` process, until ``--seconds`` would be exceeded
(at least two passes).  With ``--trace 0`` every pass is untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are reported.

Outputs are checked on every run: each report must survive the
``to_dict``/``from_dict`` round trip, ``recompute_checks`` must match the
stored checks, every pass must give the same ``canonical_dict`` (a repeat
at the same seed, traced or not), and traced counts must repeat exactly.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result set, with each study's
``canonical_dict`` and the environment, is written to ``--out``
(default ``.studybench/results/<workload>-seed<seed>-trace<t>.json``).

``--compare`` prints the largest relative deviation of every report number
between two result sets and any verdict change; it exits 1 on a verdict
change and 2 when the two sets hold different studies.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 2
RUN_LIMIT_S = 170.0

COUNT_METRICS = ("calls", "cells", "n3", "iterations", "failures")


class BenchError(Exception):
    """A worker failed or timed out; the run has no result."""


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={"GIT_CEILING_DIRECTORIES": str(ROOT.parent),
                 "PATH": "/usr/bin:/bin:/usr/local/bin"})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _worker(args, extra, deadline):
    """Run worker.py once; returns its JSON result and the spawn time."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed)] + extra
    if args.tiny:
        command.append("--tiny")
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(command)}") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _kind_times(one_pass):
    out = {}
    for study in one_pass["studies"]:
        name = workloads.KIND_METRICS[study["kind"]]
        out[name] = out.get(name, 0.0) + study["wall_s"]
    return out


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def _study_metrics(passes):
    """Per-kind wall times, verdict pass share and error share."""
    kinds = {}
    for one_pass in passes:
        for name, value in _kind_times(one_pass).items():
            kinds.setdefault(name, []).append(value)
    out = {f"study.{name}": (statistics.median(kinds[name])
                             if name in kinds else 0.0)
           for name in workloads.KIND_METRICS.values()}
    verdicts = [s["verdict"] for p in passes for s in p["studies"]]
    out["study.verdict_pass_frac"] = verdicts.count("pass") / len(verdicts)
    out["study.error_frac"] = verdicts.count("error") / len(verdicts)
    return out


def _consistency_problems(passes):
    """Canonical reports must agree across passes; traced counts too."""
    problems = []
    first = passes[0]["studies"]
    for index, one_pass in enumerate(passes[1:], start=1):
        for a, b in zip(first, one_pass["studies"]):
            if (a["canonical"], a["error"]) != (b["canonical"], b["error"]):
                problems.append(f"pass {index} ({one_pass['mode']}) gives a "
                                f"different {a['kind']} report than pass 0")
    traced = [p["layers"] for p in passes if "layers" in p]
    for layers in traced[1:]:
        for name, value in layers.items():
            if name.rsplit(".", 1)[1] in COUNT_METRICS \
                    and value != traced[0][name]:
                problems.append(f"count {name} differs between traced passes")
    for one_pass in passes:
        problems += one_pass["problems"]
    return problems


def _layer_metrics(passes):
    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"]
    out = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        out[name] = (values[0] if name.rsplit(".", 1)[1] in COUNT_METRICS
                     else statistics.median(values))
    out["trace.overhead_frac"] = (_median_of(traced, "wall_s")
                                  / _median_of(plain, "wall_s") - 1.0)
    out.update(_study_metrics(plain))
    return out


def metric_spec():
    """Metric lists of BENCHMARK.json: (end_to_end, per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def measure(args):
    """Run the passes of one workload run and build its result set."""
    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + RUN_LIMIT_S
    setups = [_worker(args, ["--mode", "setup"], hard_deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    out_dir = Path(args.out).parent
    passes = []
    while True:
        mode = modes[len(passes) % len(modes)]
        extra = ["--mode", "pass"]
        if mode == "traced":
            spans = out_dir / "spans" / (Path(args.out).stem
                                         + f"-pass{len(passes)}.json")
            extra += ["--spans", str(spans)]
        pass_start = time.monotonic()
        one_pass = _worker(args, extra, hard_deadline)
        one_pass["mode"] = mode
        passes.append(one_pass)
        took = time.monotonic() - pass_start
        if len(passes) >= MIN_PASSES and time.monotonic() + took > deadline:
            break

    plain = [p for p in passes if p["mode"] == "plain"]
    setups += [p["setup_s"] for p in plain]
    end_to_end = {"wall_s": _median_of(plain, "wall_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": _median_of(plain, "peak_rss_mb")}
    studies = passes[0]["studies"]
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": {**passes[0]["environment"],
                        "git_commit": _git_commit()},
        "end_to_end": end_to_end,
        "studies_summary": _study_metrics(plain),
        "layers": _layer_metrics(passes) if args.trace else None,
        "passes": [{"mode": p["mode"], "wall_s": p["wall_s"],
                    "cpu_s": p["cpu_s"],
                    "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
                    **_kind_times(p)} for p in passes],
        "setup_samples_s": setups,
        "studies": [{"kind": s["kind"], "seed": s["seed"],
                     "verdict": s["verdict"], "error": s["error"],
                     "canonical": (json.loads(s["canonical"])
                                   if s["canonical"] else None)}
                    for s in studies],
        "problems": _consistency_problems(passes),
        "attempted": sum(len(p["studies"]) for p in passes),
        "failed": sum(s["verdict"] == "error"
                      for p in passes for s in p["studies"]),
    }
    return result


def report(args):
    result = measure(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    end_to_end, per_layer = metric_spec()
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    shown = dict(result["end_to_end"])
    shown.update(result["studies_summary"])
    if args.trace:
        shown.update(result["layers"])
    for name, value in shown.items():
        print(f"{name} {value!r} {units.get(name, '')}".rstrip())
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    print(f"results written to {out}")

    values = result["layers"] if args.trace else result["end_to_end"]
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in (per_layer if args.trace else end_to_end)}}))
    return 0 if correct else 1


def _numbers(node, path=""):
    """Flatten a report into (path, number) pairs."""
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield path, float(node)
    elif isinstance(node, dict):
        for key in sorted(node):
            yield from _numbers(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from _numbers(item, f"{path}[{index}]")


def _relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(path_a, path_b):
    """Print report-number deviations and verdict changes of two sets."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    pairs = list(zip(a["studies"], b["studies"]))
    if len(a["studies"]) != len(b["studies"]) or any(
            x["kind"] != y["kind"] for x, y in pairs):
        print("result sets hold different studies", file=sys.stderr)
        return 2
    verdict_changes = 0
    overall = 0.0
    for index, (x, y) in enumerate(pairs):
        label = f"study {index} {x['kind']}"
        if x["verdict"] != y["verdict"]:
            verdict_changes += 1
            print(f"VERDICT {label}: {x['verdict']} -> {y['verdict']}")
        if x["canonical"] is None or y["canonical"] is None:
            continue
        nums_a = dict(_numbers(x["canonical"]))
        nums_b = dict(_numbers(y["canonical"]))
        if nums_a.keys() != nums_b.keys():
            print(f"{label}: reports hold different numbers",
                  file=sys.stderr)
            return 2
        worst = 0.0
        for key in nums_a:
            dev = _relative(nums_a[key], nums_b[key])
            worst = max(worst, dev)
            print(f"{label} {key} rel_dev {dev:.3e}")
        print(f"{label} max_rel_dev {worst:.3e}")
        overall = max(overall, worst)
    print(f"max_rel_dev {overall:.3e} verdict_changes {verdict_changes}")
    return 1 if verdict_changes else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Study benchmark for rkhs_invlab.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="result set path (JSON)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every study (for the benchmark's tests)")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS",
                        help="compare two result sets instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "rkhs_invlab" / "__init__.py").is_file():
        print(f"error: no rkhs_invlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.out is None:
        args.out = str(ROOT / ".studybench" / "results" /
                       f"{args.workload}-seed{args.seed}-trace{args.trace}"
                       f"{'-tiny' if args.tiny else ''}.json")
    try:
        return report(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
