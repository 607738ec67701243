"""Output checks, independent of genlab: exact rationals and mpmath only.

``check(workload, jobs, outputs, exits)`` returns, per job id, the problems
found in that job's output.  Each problem is ``(kind, message)``:

- ``"wrong"``: a certified claim that is false, a broken invariant, or a
  result the construction guarantees but the output lacks.  Any such
  problem makes the run's ``correct`` false.
- ``"uncertified"``: a verdict that the output itself marks approximate
  but still reports as a PASS.  The run stays ``correct``; the job counts
  as failed.
- ``"exit"``: a nonzero exit code.  The job counts as failed.

Only payload fields are compared, never ``config_hash`` or
``schema_version``.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import mpmath

WRONG, UNCERTIFIED, EXIT = "wrong", "uncertified", "exit"
CHECK_BITS = 600  # every independent evaluation runs at >= 512 bits


def _mp(text: str):
    return eval(text, {"__builtins__": {}}, {  # noqa: S307 (generator-written)
        "mpf": mpmath.mpf, "log": mpmath.log, "exp": mpmath.exp,
        "sqrt": mpmath.sqrt, "pi": mpmath.pi,
    })


def _bound(value) -> float:
    """A JSON float or one of the "inf"/"-inf" sentinels."""
    return float(value)


def _rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by elimination over Q (kept apart from genlab's own)."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# torsion


def _check_torsion(jobs, outputs, problems):
    omega = defaultdict(dict)
    copies = []
    for job in jobs:
        chk, out = job["check"], outputs.get(job["id"])
        if not out:
            continue
        if chk["type"] == "omega":
            omega[chk["pair"]][chk["part"]] = (job["id"], out[0]["omega"])
        elif chk["type"] == "omega-copy":
            copies.append((job["id"], chk["of"], out[0]["omega"]))
        elif chk["type"] == "zeroest":
            p = out[0]
            if not p["found"]:
                problems[job["id"]].append((WRONG, "no obstruction on a kernel instance"))
            elif p["cosets"] * p["hilbert_sub"] > p["hilbert_ambient"]:
                problems[job["id"]].append((WRONG, "cosets*hilbert_sub > hilbert_ambient"))
            elif p["vanishing_degree"] > chk["L"]:
                problems[job["id"]].append((WRONG, "vanishing_degree > L"))
        elif chk["type"] == "family":
            for fam, row in zip(job["families"], out):
                choices = {tuple(s): [Fraction(x) for x in v] for s, v in fam["choices"]}
                wit = [tuple(w) for w in row["witnesses"]]
                if (
                    row["counterexample"]
                    or row["rank"] < fam["nu"] + 1
                    or len(wit) != fam["nu"] + 1
                    or any(w not in choices for w in wit)
                    or _rank([choices[w] for w in wit]) != len(wit)
                    or _rank(list(choices.values())) != row["rank"]
                ):
                    problems[job["id"]].append((WRONG, f"family rank {row}"))
                    break
    for pair in omega.values():
        if len(pair) == 3:
            prod_id, w = pair["S1xS2"]
            if w != min(pair["S1"][1], pair["S2"][1]):
                problems[prod_id].append((WRONG, "omega(S1xS2) != min(omega(S1), omega(S2))"))
    # a symmetry of the point set keeps omega
    parts = {job_id: w for pair in omega.values() for job_id, w in pair.values()}
    for job_id, of, w in copies:
        if of in parts and w != parts[of]:
            problems[job_id].append((WRONG, f"omega differs from {of}"))


# ---------------------------------------------------------------------------
# probe


def _contains(pair, value) -> bool:
    """``value`` (None for log 0) lies in the float enclosure ``pair``.  The
    enclosure is rounded outward and ``value`` is the 600-bit reference
    rounded to nearest, so no slack is needed."""
    lo, hi = _bound(pair[0]), _bound(pair[1])
    if value is None:
        return lo == hi == -math.inf
    return lo <= value <= hi


def _log_abs(v):
    return None if v == 0 else float(mpmath.log(abs(v)))


def _brute_min(values, D):
    best = None
    for l in product(range(-D, D + 1), repeat=len(values)):
        if any(l):
            v = abs(sum(c * q for c, q in zip(l, values)))
            best = v if best is None or v < best else best
    return best


def _check_gen(job, out, problems, chains):
    chk = job["check"]
    mp_entries = [_mp(e) for e in chk["entries"]]
    exact = [Fraction(q) for q in chk["exact"]] if "exact" in chk else None
    for p in out:
        l, subset, D = p["l"], p["subset"], p["D"]
        where = f"D={D}"
        if not any(l) or max(abs(x) for x in l) > D or len(l) != len(subset):
            problems[job["id"]].append((WRONG, f"{where}: l={l} outside the box"))
            continue
        if p["passed"] and p["approximate"]:
            problems[job["id"]].append((UNCERTIFIED, f"{where}: PASS on an approximate record"))
        if exact is not None:
            values = [exact[i] for i in subset]
            got = abs(sum(c * q for c, q in zip(l, values)))
            if got != _brute_min(values, D):
                problems[job["id"]].append((WRONG, f"{where}: min differs from brute force"))
            ok = _contains(p["log_min"], _log_abs(mpmath.mpf(got.numerator) / got.denominator))
        else:
            v = mpmath.fsum(c * mp_entries[i] for c, i in zip(l, subset))
            ok = _contains(p["log_min"], _log_abs(v))
        if not ok:
            problems[job["id"]].append((WRONG, f"{where}: log|l.theta| outside log_min"))
        if not p["approximate"]:
            chains[(tuple(chk["entries"]), p["mu"])].append((D, p["log_min"], job["id"]))


def _check_monotone(chains, problems):
    # the height-D box contains the height-(D-1) box, so the certified
    # max-min over subsets cannot increase with D
    for chain in chains.values():
        chain.sort(key=lambda t: t[0])
        for (d0, a, _), (d1, b, job_id) in zip(chain, chain[1:]):
            if d1 > d0 and _bound(b[0]) > _bound(a[1]):
                problems[job_id].append((WRONG, f"min increases from D={d0} to D={d1}"))


def _check_probe(jobs, outputs, problems):
    chains = defaultdict(list)
    for job in jobs:
        out = outputs.get(job["id"])
        if not out:
            continue
        kind = job["check"]["type"]
        if kind == "gen":
            _check_gen(job, out, problems, chains)
        elif kind == "bigen":
            for p in out:
                if not (any(p["l"]) and any(p["r"])
                        and max(map(abs, p["l"])) <= p["L"]
                        and max(map(abs, p["r"])) <= p["R"]):
                    problems[job["id"]].append((WRONG, f"L={p['L']} R={p['R']}: vector outside box"))
        elif kind == "relation":
            entries = [_mp(e) for e in job["check"]["entries"]]
            p = out[0]
            found = p["status"] == "relation_found"
            if found != job["check"]["has_relation"]:
                problems[job["id"]].append((WRONG, f"status {p['status']}"))
            elif found:
                v = mpmath.fsum(c * x for c, x in zip(p["relation"], entries))
                if abs(v) > mpmath.mpf(2) ** -500 or not any(p["relation"]):
                    problems[job["id"]].append((WRONG, "reported relation does not hold"))
    _check_monotone(chains, problems)


# ---------------------------------------------------------------------------
# siegel


def _check_siegel(jobs, outputs, problems):
    for job in jobs:
        out = outputs.get(job["id"])
        if not out:
            continue
        chk = job["check"]
        if chk["type"] == "auxpoly":
            p = out[0]
            if p["identically_zero"] or not any(p["coefficients"]):
                problems[job["id"]].append((WRONG, "zero auxiliary polynomial"))
                continue
            sub = [int(i) for i in p["subset"]]
            theta = [_mp(chk["entries"][i]) for i in sub]
            alphas = [mpmath.fsum(d * t for d, t in zip(m, theta)) for m in p["monomials"]]
            radius = mpmath.mpf(Fraction(p["radius"]).numerator) / Fraction(p["radius"]).denominator
            bound = mpmath.exp(_bound(p["achieved_log_sup"]))
            rng = random.Random(chk["points_seed"])
            for _ in range(16):
                w = radius * mpmath.sqrt(rng.random()) * mpmath.expj(2 * mpmath.pi * rng.random())
                val = abs(mpmath.fsum(h * mpmath.exp(a * w) for h, a in zip(p["coefficients"], alphas)))
                if val > bound:
                    problems[job["id"]].append((WRONG, f"|phi(w)| > exp(achieved_log_sup) at w={w}"))
                    break
        elif chk["type"] in ("schedule", "bounds"):
            if len(out) != chk["records"]:
                problems[job["id"]].append((WRONG, f"{len(out)} records, expected {chk['records']}"))
        elif chk["type"] == "dist-audit":
            if out[0].get("verdict") is None:
                problems[job["id"]].append((WRONG, "no verdict"))
        elif chk["type"] == "phil-audit":
            if out[0].get("degree_status") != "pass":
                problems[job["id"]].append((WRONG, "degree check did not pass"))


_CHECKS = {"torsion": _check_torsion, "probe": _check_probe, "siegel": _check_siegel}


def check(workload, jobs, outputs, exits):
    """Problems per job id; ``outputs`` maps job id to its payload list."""
    problems = defaultdict(list)
    for job in jobs:
        if exits.get(job["id"]) != 0:
            problems[job["id"]].append((EXIT, f"exit code {exits.get(job['id'])}"))
        elif not outputs.get(job["id"]):
            problems[job["id"]].append((WRONG, "no records"))
    with mpmath.workprec(CHECK_BITS):
        _CHECKS[workload](jobs, outputs, problems)
    return problems
