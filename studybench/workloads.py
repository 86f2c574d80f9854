"""Workload definitions: the study configs each benchmark workload runs.

Every study seed is derived from the workload seed, so one ``--seed``
fixes every input.  All J=200 problems use b=2, d=1, r=1 and the explicit
source element w_j = 1/j (a fixed source element; ``"ones"`` would make the
source radius grow like sqrt(J)).

The ``tiny`` flag shrinks every size so that the benchmark's own tests can
run each workload in a few seconds; it keeps the same study kinds, designs
and code paths.
"""

import hashlib

WORKLOADS = ("mc-grid", "mc-iid", "kernel")

# Study kind -> name of its per-kind wall-time metric.
KIND_METRICS = {
    "stat-rate": "stat_rate_s",
    "lemma-check": "lemma_check_s",
    "gamma-study": "gamma_study_s",
    "equivalence-check": "equivalence_check_s",
    "det-rate": "det_rate_s",
}


def derive_seed(workload, seed, index):
    """32-bit study seed for study ``index`` of ``workload`` at ``seed``."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(),
                             digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _problem(size):
    return {"J": size, "b": 2.0, "d": 1.0, "r": 1.0,
            "w_spec": [1.0 / j for j in range(1, size + 1)]}


def _doubling(start, stop):
    out = [start]
    while out[-1] * 2 <= stop:
        out.append(out[-1] * 2)
    return out


def _mc_studies(design, tiny):
    size = 40 if tiny else 200
    return [
        {"kind": "stat-rate", "problem": _problem(size), "filter": "tikhonov",
         "design": design, "sigma": 0.1,
         "n_grid": _doubling(100, 400 if tiny else 3200),
         "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
         "replicates": 10 if tiny else 200},
        {"kind": "lemma-check", "problem": _problem(size),
         "filter": "tikhonov", "design": design, "sigma": 0.1,
         "n": 200 if tiny else 800, "lambda": 0.05,
         "replicates": 20 if tiny else 400},
    ]


def _kernel_studies(tiny):
    size = 40 if tiny else 200
    deltas = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2]
    studies = [
        {"kind": "gamma-study", "problem": _problem(size), "design": "grid",
         "n_grid": _doubling(25, 200 if tiny else 3200), "lambda": 1e-3},
        {"kind": "equivalence-check", "problem": _problem(size),
         "design": "grid", "n": 60 if tiny else 400, "lambda": 1e-3},
    ]
    for filter_kind in ("tikhonov", "cutoff", "landweber"):
        studies.append(
            {"kind": "det-rate", "problem": _problem(size),
             "filter": filter_kind, "delta_grid": deltas,
             "schedule": {"c": 1.0, "exponent": 2.0 / 3.0}})
    return studies


def study_dicts(workload, seed, tiny=False):
    """Raw study configs (``StudyConfig.from_dict`` input) of one workload."""
    if workload == "mc-grid":
        studies = _mc_studies("grid", tiny)
    elif workload == "mc-iid":
        studies = _mc_studies("iid-uniform", tiny)
    elif workload == "kernel":
        studies = _kernel_studies(tiny)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    for index, study in enumerate(studies):
        study["seed"] = derive_seed(workload, seed, index)
    return studies
