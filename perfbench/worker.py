"""One pass of a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py --jobs JOBS.json --workdir DIR --pass K
        --result RESULT.json [--trace] [--replay ID ...]

Runs every job once, in order, as a closed loop with one client: the next
job starts when the previous one returns.  A CLI job is one
``genlab.cli.run(argv)`` call with its own fresh, empty ``--cache-dir``, so
every job is a cold miss followed by a store; its records go to
``DIR/out/K/<id>.jsonl``.  A library job calls ``chars.wI_family_rank``
directly on each family of its slice.  While the jobs run, a speed probe
samples how fast the machine runs (``SpeedProbe``); ``run.py`` uses the
samples to take the drift of the machine's speed out of the job times.

With ``--trace`` the tracer is installed before the first job.  With
``--replay ID ...`` the worker runs no pass: it runs the listed CLI jobs
once more against the caches pass K filled and counts cache hits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from genlab import chars, cli  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

def _run_cli(job: dict, cache_dir: str, out: str) -> int:
    return cli.run(job["argv"] + ["--cache-dir", cache_dir, "--out", out])


def _run_family_slice(job: dict, out: str) -> int:
    rows = []
    for fam in job["families"]:
        choices = {
            tuple(subset): [Fraction(x) for x in vec] for subset, vec in fam["choices"]
        }
        res = chars.wI_family_rank(fam["n"], fam["nu"], choices)
        rows.append(
            {
                "rank": res.rank,
                "witnesses": [list(w) for w in res.witnesses],
                "counterexample": res.counterexample is not None,
            }
        )
    with open(out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def _timed(fn, *args):
    """(result, start, wall seconds, CPU seconds) of one call."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, t0, time.perf_counter() - t0, time.process_time() - c0


def run_pass(jobs, workdir, pass_id, tracer):
    """Each job once, in order, with the speed probe running.  Returns per
    job its start, wall and CPU seconds, the probe samples, and the pass's
    wall and CPU seconds.

    A full garbage collection runs, untimed, before each job, so that every
    job starts from the same collector state: otherwise a collection that
    earlier jobs' garbage made due lands in whichever job comes next.  The
    objects that exist before the first job (the interpreter's, genlab's
    modules) are frozen first, so that those collections do not rescan
    them: scanning them took about 12 ms a job, a fifth of a pass."""
    out_dir = os.path.join(workdir, "out", str(pass_id))
    cache_root = os.path.join(workdir, "cache", str(pass_id))
    os.makedirs(out_dir, exist_ok=True)
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    gc.collect()
    gc.freeze()
    with SpeedProbe() as probe:
        for job in jobs:
            out = os.path.join(out_dir, job["id"] + ".jsonl")
            if tracer is not None:
                tracer.job = job["id"]
            gc.collect()
            if job["kind"] == "cli":
                cache_dir = os.path.join(cache_root, job["id"])
                code, t0, s, cpu_s = _timed(_run_cli, job, cache_dir, out)
            else:
                code, t0, s, cpu_s = _timed(_run_family_slice, job, out)
            results.append(
                {"id": job["id"], "exit": code, "t0": t0, "s": s, "cpu_s": cpu_s}
            )
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return results, probe.samples, wall, cpu


def replay(jobs, ids, workdir, pass_id):
    counter = Tracer()
    counter.install(cache_only=True)
    out_dir = os.path.join(workdir, "out", "replay")
    cache_root = os.path.join(workdir, "cache", str(pass_id))
    os.makedirs(out_dir, exist_ok=True)
    exits = {}
    for job in jobs:
        if job["id"] in ids:
            out = os.path.join(out_dir, job["id"] + ".jsonl")
            exits[job["id"]] = _run_cli(job, os.path.join(cache_root, job["id"]), out)
    return {"exits": exits, "counts": dict(counter.counts)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--pass", dest="pass_id", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--replay", nargs="+")
    args = ap.parse_args()
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)

    if args.replay:
        result = replay(jobs, set(args.replay), args.workdir, args.pass_id)
    else:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        results, samples, wall, cpu = run_pass(jobs, args.workdir, args.pass_id, tracer)
        result = {
            "jobs": results,
            "probe": samples,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": None,
        }
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(os.path.join(args.workdir, f"spans-{args.pass_id}.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
