"""The genlab benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload {torsion,probe,siegel}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs nothing built or
installed beyond the Python dependencies.  The steps:

1. generate the workload's input files and job list from ``--seed``
   (``gen.py``);
2. run passes over the job list, each in a fresh interpreter
   (``worker.py``), for ``--seconds`` seconds and at least MIN_PASSES
   passes; with ``--trace 1`` every other pass is traced (``spans.py``);
   before each pass, time ``import genlab.cli`` in a fresh interpreter
   (``setup_s``);
3. check every output (``checks.py``), and check that each later pass
   returned the same payloads as the first;
4. replay a few jobs against the caches the last pass filled, untimed, and
   check that the cached payloads equal the computed ones.

Every time is reported in reference seconds: measured seconds scaled by a
speed probe that runs next to the measured work (``speed.py``), so that the
shared machine's changing speed cancels out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``failed`` counts job runs that exited nonzero or failed a check, over all
passes, so ``failed / attempted`` is the failed fraction.  ``correct`` is
false when a certified output is wrong, a pass disagrees with the first,
or a replay disagrees with the computed payloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402

SETUP_FIRST = 4
MIN_PASSES = 3
REPLAY_JOBS = 4
WORKER_TIMEOUT_S = 150
DEFAULT_BUDGET = 10**7
# Times are reported in reference seconds (see ``speed``).
PROBE_WINDOW_S = 0.25
SETUP_PROBES = 32

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; spans give .calls/.s/.self_s, the rest are counters
PER_LAYER = {
    "cli.run.self_s": "s",
    "cli.cache_store.s": "s",
    "cli.cache_lookup.s": "s",
    "cli.report.s": "s",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "expr.parse_expression.calls": "count",
    "expr.parse_expression.s": "s",
    "expr.eval_interval.calls": "count",
    "expr.eval_interval.s": "s",
    "tuples.complex_enclosures.calls": "count",
    "tuples.complex_enclosures.s": "s",
    "tuples.exact_values.calls": "count",
    "tuples.exact_values.s": "s",
    "numeric.make_ctx.calls": "count",
    "numeric.make_ctx.s": "s",
    "numeric.complex_exp.calls": "count",
    "numeric.complex_exp.s": "s",
    "numeric.run_escalating.calls": "count",
    "numeric.run_escalating.attempts": "count",
    "numeric.run_escalating.max_bits": "bits",
    "reduction.lll_reduce.calls": "count",
    "reduction.lll_reduce.s": "s",
    "reduction.lll_reduce.max_dim": "count",
    "dioph.genericity_probe.s": "s",
    "dioph.bituple_probe.s": "s",
    "dioph.regularity_probe.s": "s",
    "dioph.self_s": "s",
    "dioph.box_candidates": "count",
    "dioph.records_approximate": "count",
    "cyclo.min_vanishing_degree.calls": "count",
    "cyclo.min_vanishing_degree.s": "s",
    "cyclo.evaluation_matrix.calls": "count",
    "cyclo.evaluation_matrix.s": "s",
    "cyclo.rank_field.calls": "count",
    "cyclo.rank_field.s": "s",
    "cyclo.rank_field.cells": "count",
    "cyclo.CycloNum.inverse.calls": "count",
    "cyclo.self_s": "s",
    "chars.zero_estimate_search.calls": "count",
    "chars.zero_estimate_search.s": "s",
    "chars.zero_estimate_search.checked": "count",
    "chars.wI_family_rank.calls": "count",
    "chars.wI_family_rank.s": "s",
    "intmat.smith_normal_form.calls": "count",
    "intmat.smith_normal_form.s": "s",
    "intmat.rank_rational.calls": "count",
    "intmat.rank_rational.s": "s",
    "auxpoly.siegel_construct.calls": "count",
    "auxpoly.siegel_construct.s": "s",
    "auxpoly.self_s": "s",
    "auxpoly.grid_points": "count",
    "auxpoly.omega.calls": "count",
    "auxpoly.make_schedule.calls": "count",
    "bounds.bound_grid.s": "s",
    "errors.exit_2": "count",
    "errors.exit_3": "count",
    "errors.exit_4": "count",
    "errors.check_failed": "count",
    "trace.overhead_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# Imports genlab.cli, notes the time, then takes the probe samples.
SETUP_CODE = (
    "import time; import genlab.cli; t = time.perf_counter(); "
    "import json, sys; sys.path.insert(0, {here!r}); import speed; "
    "print(json.dumps([t, speed.burst({n})]))"
)


def time_setup(env) -> float:
    """Time from starting a fresh interpreter until its ``import genlab.cli``
    returns, in reference seconds.  The child notes the time on the shared
    monotonic clock, then takes SETUP_PROBES probe samples on its own CPU;
    their wall factor scales the time.  The samples come after the import,
    so they are not part of the time.

    No timeout: with one, ``subprocess`` polls the child every 50 ms."""
    code = SETUP_CODE.format(here=HERE, n=SETUP_PROBES)
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    )
    imported, samples = json.loads(out.stdout)
    return (imported - t0) * speed.wall_factor(samples)


def run_worker(env, workdir, jobs_path, pass_id, *, trace=False, replay=()):
    result = os.path.join(workdir, f"result-{pass_id}{'-replay' if replay else ''}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--jobs", jobs_path, "--workdir", workdir,
        "--pass", str(pass_id), "--result", result,
    ]
    if trace:
        cmd.append("--trace")
    if replay:
        cmd += ["--replay", *replay]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def read_payloads(path: str):
    """Payload list of one job output; None when the file is missing."""
    if not os.path.exists(path):
        return None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                rows.append(record.get("payload", record))
    return rows


def normalise(p: dict) -> None:
    """Adds reference-second times to one pass, in place (see ``speed``).

    A job's own seconds are its measured seconds less the probe samples
    taken inside it.  They are multiplied by the wall factor of the samples
    from PROBE_WINDOW_S before the job to PROBE_WINDOW_S after it; CPU
    seconds likewise by the CPU factor.  The pass gets the sums
    (``ref_wall_s``, ``ref_cpu_s``) and its own wall factor
    (``ref_factor``), which scales the traced span times."""
    probe = p["probe"]
    starts = [sample[0] for sample in probe]
    for r in p["jobs"]:
        end = r["t0"] + r["s"]
        inside = probe[bisect.bisect_left(starts, r["t0"]): bisect.bisect_left(starts, end)]
        near = probe[
            bisect.bisect_left(starts, r["t0"] - PROBE_WINDOW_S):
            bisect.bisect_left(starts, end + PROBE_WINDOW_S)
        ] or probe
        own_s = r["s"] - sum(sample[1] for sample in inside)
        own_cpu_s = r["cpu_s"] - sum(sample[2] for sample in inside)
        r["ref_s"] = own_s * speed.wall_factor(near)
        r["ref_cpu_s"] = own_cpu_s * speed.cpu_factor(near)
    p["ref_wall_s"] = sum(r["ref_s"] for r in p["jobs"])
    p["ref_cpu_s"] = sum(r["ref_cpu_s"] for r in p["jobs"])
    p["ref_factor"] = speed.wall_factor(probe)


def job_medians(passes) -> dict[str, float]:
    """Each job's median time over the passes, in reference seconds."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            times.setdefault(r["id"], []).append(r["ref_s"])
    return {job_id: statistics.median(v) for job_id, v in times.items()}


def tail(values, min_beyond: int = 10):
    """(percentile, value) at the highest percentile that leaves at least
    ``min_beyond`` of ``values`` beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - min_beyond - 1)
    return 100.0 * k / n, ordered[k]


def box_candidates(jobs) -> int:
    """Height-box candidates of the exhaustive gen boxes, from the inputs."""
    total = 0
    for job in jobs:
        argv = job["argv"] if job["kind"] == "cli" else []
        if not argv or argv[0] != "gen":
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        mu, n = int(opts["--mu"]), len(job["check"]["entries"])
        lo, _, hi = opts["--D"].partition("..")
        for D in range(int(lo), int(hi or lo) + 1):
            if (2 * D + 1) ** mu <= DEFAULT_BUDGET:
                total += math.comb(n, mu) * (2 * D + 1) ** mu
    return total


def output_counts(jobs, outputs) -> dict:
    """Per-layer counts read from the outputs or computed from the inputs."""
    approx = checked = grid = 0
    for job in jobs:
        out = outputs.get(job["id"]) or []
        kind = job["check"]["type"]
        if kind == "gen":
            approx += sum(1 for p in out if p.get("approximate"))
        elif kind == "zeroest":
            checked += sum(p["checked"] for p in out)
        elif kind == "auxpoly":
            grid += 10 * 100  # the default --rings x --angles grid
    return {
        "dioph.records_approximate": approx,
        "dioph.box_candidates": box_candidates(jobs),
        "chars.zero_estimate_search.checked": checked,
        "auxpoly.grid_points": grid,
    }


def run_passes(env, workdir, jobs_path, seconds: float, trace: bool):
    """Passes until ``seconds`` are used up, at least MIN_PASSES of them;
    with ``trace`` every other pass is traced, starting with the second.
    Set-up is timed SETUP_FIRST times first and once before every pass, so
    its samples spread over the run like the passes.  Returns the passes
    and the set-up times."""
    setups = [time_setup(env) for _ in range(SETUP_FIRST)]
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= seconds
    ):
        setups.append(time_setup(env))
        traced = trace and len(passes) % 2 == 1
        res = run_worker(env, workdir, jobs_path, len(passes), trace=traced)
        res["traced"] = traced
        normalise(res)
        passes.append(res)
    return passes, setups


def check_passes(workload, jobs, passes, workdir):
    """Checks the first pass in full and every later pass against it.

    Returns (outputs of the first pass, problems per job id, failed job
    runs, wrong results) where a wrong result makes the run incorrect."""
    def payloads(k, job_id):
        return read_payloads(os.path.join(workdir, "out", str(k), job_id + ".jsonl"))

    first = {j["id"]: payloads(0, j["id"]) for j in jobs}
    exits = {r["id"]: r["exit"] for r in passes[0]["jobs"]}
    problems = checks.check(workload, jobs, first, exits)
    wrong = [
        f"{job_id}: {msg}"
        for job_id, found in sorted(problems.items())
        for kind, msg in found
        if kind == checks.WRONG
    ]
    failed = 0
    for k, res in enumerate(passes):
        for r in res["jobs"]:
            bad = r["exit"] != 0 or bool(problems.get(r["id"]))
            if k and not bad and payloads(k, r["id"]) != first[r["id"]]:
                wrong.append(f"{r['id']}: pass {k} payloads differ from pass 0")
                bad = True
            failed += bad
    return first, problems, failed, wrong


def replay_check(env, workdir, jobs, jobs_path, passes, wrong) -> dict:
    """Replays a few jobs against the last pass's caches; returns the
    replay's cache counts and appends any disagreement to ``wrong``."""
    ok_ids = [r["id"] for r in passes[-1]["jobs"] if r["exit"] == 0]
    cli_ids = [j["id"] for j in jobs if j["kind"] == "cli" and j["id"] in ok_ids]
    ids = cli_ids[:: max(1, len(cli_ids) // REPLAY_JOBS)][:REPLAY_JOBS]
    last = len(passes) - 1
    rep = run_worker(env, workdir, jobs_path, last, replay=ids)
    for i in ids:
        cached = read_payloads(os.path.join(workdir, "out", "replay", i + ".jsonl"))
        computed = read_payloads(os.path.join(workdir, "out", str(last), i + ".jsonl"))
        if rep["exits"].get(i) != 0 or cached != computed:
            wrong.append(f"{i}: cached payloads differ from computed ones")
    return rep["counts"]


def layer_metrics(jobs, passes, first, problems, replay_counts) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    def value(p, name):
        v = (p["layers"] or {}).get(name, 0.0)
        return v * p["ref_factor"] if PER_LAYER[name] == "s" else v

    values = {
        name: statistics.median(value(p, name) for p in traced) for name in PER_LAYER
    }
    values.update(output_counts(jobs, first))
    for code in (2, 3, 4):
        values[f"errors.exit_{code}"] = sum(
            1 for r in passes[0]["jobs"] if r["exit"] == code
        )
    values["errors.check_failed"] = sum(
        1 for found in problems.values() if any(kind != checks.EXIT for kind, _ in found)
    )
    values["cli.cache.hits"] = replay_counts.get("cli.cache.hits", 0)
    values["cli.cache.misses"] += replay_counts.get("cli.cache.misses", 0)
    values["trace.overhead_s"] = statistics.median(
        p["ref_wall_s"] for p in traced
    ) - statistics.median(p["ref_wall_s"] for p in untraced)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument(
        "--seed", type=int, default=gen.DEFAULT_SEED,
        help=f"input seed; {gen.HELD_OUT_SEED} is held out for checking gain claims",
    )
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "genlab", "cli.py")):
        print(f"error: no genlab source under {ROOT}/src", file=sys.stderr)
        return 2

    env = _env()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = gen.build(args.workload, args.seed, workdir)
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)

    passes, setups = run_passes(env, workdir, jobs_path, args.seconds, bool(args.trace))
    first, problems, failed, wrong = check_passes(args.workload, jobs, passes, workdir)
    replay_counts = replay_check(env, workdir, jobs, jobs_path, passes, wrong)
    shutil.rmtree(os.path.join(workdir, "cache"), ignore_errors=True)
    attempted = sum(len(p["jobs"]) for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    job_s = job_medians(untraced)
    tail_pct, tail_s = tail(job_s.values())
    if args.trace:
        units = PER_LAYER
        metrics = layer_metrics(jobs, passes, first, problems, replay_counts)
    else:
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["ref_wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["ref_cpu_s"] for p in untraced),
            "job_s_p50": statistics.median(job_s.values()),
            "job_s_tail": tail_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }

    # human-readable report, then the result line
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"env: python {platform.python_version()}  numpy {metadata.version('numpy')}"
        f"  mpmath {metadata.version('mpmath')}  nproc {os.cpu_count()}"
        "  threads 1  closed loop, 1 client"
    )
    print(
        f"{len(jobs)} jobs; pass walls in measured (reference) seconds: "
        + " ".join(
            f"{p['wall_s']:.3f}({p['ref_wall_s']:.3f}{', traced' if p['traced'] else ''})"
            for p in passes
        )
    )
    probe_s = statistics.median(sample[1] for p in passes for sample in p["probe"])
    print(f"speed probe: median {probe_s:.7f} s, {speed.PROBE_REF_S} s by definition")
    print(
        f"set-up timed {len(setups)} times; job times: each job's median over"
        f" {len(untraced)} untraced passes;"
        f" job_s_tail is p{tail_pct:.1f} of {len(job_s)} jobs"
    )
    print(f"failed {failed}/{attempted} = {failed / attempted:.4f} (failed_frac)")
    for job_id, found in sorted(problems.items()):
        for kind, msg in found:
            if kind != checks.WRONG:
                print(f"  {kind}: {job_id}: {msg}")
    for msg in wrong:
        print(f"  wrong: {msg}")
    print(f"replay cache counts: {replay_counts}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
