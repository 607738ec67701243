"""Experiment harness: subcommand dispatch, JSON-lines records, caching.

Every run is identified by two sha256 digests: a config hash over the
parameter block (file paths excluded) and an inputs digest over the
contents of the referenced files.  Identical digests mean identical
payloads, byte for byte; wall time lives only in the cache record so the
emitted stream stays deterministic.  Each cache entry is also stamped with
a digest of genlab's own sources (code_digest), and an entry stamped by
other code is a miss, so a cached record never outlives the code that
produced it.  Cache writes are atomic (temp file then rename); a corrupt
cache record is warned about and recomputed.

Exit codes: 0 success, 2 invalid configuration, 3 precision exhaustion,
4 budget exhaustion.  Partial results are flushed before a nonzero exit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
import warnings
from fractions import Fraction
from typing import Optional, Sequence

from . import auxpoly, bounds, dioph
from .auxpoly import GridSpec
from .chars import zero_estimate_search
from .cyclo import CycloNum
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InvalidConfig,
    PrecisionExhausted,
)
from .tuples import RealTuple, load_expressions

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 10_000_000

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECISION = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# serialization


def jsonable(value):
    """Recursively rewrite a payload into deterministic JSON-safe form.

    Nonfinite floats become string sentinels ("inf", "-inf", "nan") so the
    emitted stream is strict JSON; Fractions render as "p/q" strings.
    """
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return jsonable(dataclasses.asdict(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# ranges and small input grammars

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_range(text: str) -> list[int]:
    """Integer set syntax: "a..b" (inclusive), "a,b,c", or a single "n"."""
    text = text.strip()
    m = _RANGE_RE.match(text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise InvalidConfig(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse integer set {text!r}") from exc
    if not values:
        raise InvalidConfig(f"cannot parse integer set {text!r}")
    return values


def finite_float(text: str) -> float:
    """The type of the float options: nan and inf are usage errors (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def budget_count(text: str) -> int:
    """The type of --budget: a negative budget is a usage error (exit 2);
    0 is valid."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return value


def log_distance(text: str) -> float:
    """The type of --zero-distance-log: nan is a usage error (exit 2); -inf
    is valid, the log of a zero distance."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


def parse_index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse index list {text!r}") from exc


_ZETA_RE = re.compile(
    r"^(?:(-?\d+(?:/\d+)?)\s*\*\s*)?(-)?zeta\((\d+)\)(?:\^(-?\d+))?$"
)


def parse_cyclo_coordinate(text: str) -> CycloNum:
    """Exact coordinate grammar: "p/q" or "[p/q*][-]zeta(n)[^k]"."""
    text = text.strip()
    m = _ZETA_RE.match(text)
    if m:
        scale_s, neg, order_s, power_s = m.groups()
        order = int(order_s)
        power = int(power_s) if power_s is not None else 1
        if order < 1:
            raise InvalidConfig(f"root order must be >= 1 in {text!r}")
        value = CycloNum.root_of_unity(order, power % order)
        if scale_s is not None:
            value = value * CycloNum.from_rational(Fraction(scale_s))
        if neg:
            value = value * CycloNum.from_rational(-1)
        return value
    try:
        return CycloNum.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfig(f"cannot parse exact coordinate {text!r}") from exc


def load_points(path: str) -> list[tuple[CycloNum, ...]]:
    """Point file: one point per line, comma-separated exact coordinates."""
    points = []
    for line in load_expressions(path):
        coords = [parse_cyclo_coordinate(part) for part in line.split(",")]
        points.append(tuple(coords))
    return points


def load_poly_family(path: str) -> list[dict[tuple[int, ...], int]]:
    """Family file: one polynomial per line; terms "e1,...,en:coeff"
    separated by ';'."""
    family = []
    for line in load_expressions(path):
        poly: dict[tuple[int, ...], int] = {}
        for term in line.split(";"):
            term = term.strip()
            if not term:
                continue
            if ":" not in term:
                raise InvalidConfig(f"bad polynomial term {term!r}")
            exps_s, coeff_s = term.rsplit(":", 1)
            try:
                exps = tuple(int(p) for p in exps_s.split(","))
                coeff = int(coeff_s)
            except ValueError as exc:
                raise InvalidConfig(f"bad polynomial term {term!r}") from exc
            poly[exps] = poly.get(exps, 0) + coeff
        poly = {e: c for e, c in poly.items() if c}
        if not poly:
            raise InvalidConfig(f"polynomial cancelled to zero: {line!r}")
        family.append(poly)
    return family


def load_distance_point(spec: str):
    """The audited point: the literal marker "theta", or a file holding one
    flat coordinate per line (exact grammar when every line parses, raw
    expression strings otherwise)."""
    if spec == "theta":
        return "theta"
    lines = load_expressions(spec)
    try:
        return [parse_cyclo_coordinate(line) for line in lines]
    except InvalidConfig:
        return list(lines)


# ---------------------------------------------------------------------------
# records and cache


def config_digest(op: str, args: argparse.Namespace) -> str:
    skip = {"func", "out", "format", "cache_dir", "refresh"}
    block = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and not k.endswith("_file")
    }
    block["op"] = op
    return _sha256(canonical_json(block).encode())


def inputs_digest(args: argparse.Namespace) -> str:
    """Digest of the contents (not paths) of every referenced input file."""
    h = hashlib.sha256()
    for name, value in sorted(vars(args).items()):
        if not name.endswith("_file") or value is None:
            continue
        if name == "z_file" and value == "theta":
            h.update(b"z_file:theta\n")
            continue
        try:
            with open(value, "rb") as fh:
                content = fh.read()
        except OSError as exc:
            raise InvalidConfig(f"cannot read input file {value!r}: {exc}") from exc
        h.update(f"{name}:{_sha256(content)}\n".encode())
    return h.hexdigest()


def make_records(
    op: str,
    payloads: Sequence[dict],
    *,
    config_hash: str,
    inputs_dig: str,
    precision_bits: int,
    seed: int,
) -> list[dict]:
    """One record per payload; the payloads are already in jsonable form."""
    experiment_id = _sha256(f"{config_hash}:{inputs_dig}".encode())[:16]
    return [
        {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "config_hash": config_hash,
            "inputs_digest": inputs_dig,
            "op": op,
            "precision_bits": precision_bits,
            "seed": seed,
            "payload": payload,
        }
        for payload in payloads
    ]


@functools.cache
def code_digest() -> str:
    """sha256 over the names and contents of genlab's own .py sources, read
    once per process."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(f"{name}:{_sha256(fh.read())}\n".encode())
    return h.hexdigest()


def cache_path(cache_dir: str, config_hash: str, inputs_dig: str) -> str:
    return os.path.join(cache_dir, f"{config_hash[:24]}-{inputs_dig[:24]}.json")


def cache_lookup(
    cache_dir: Optional[str], config_hash: str, inputs_dig: str
) -> Optional[list[dict]]:
    """Stored payload list iff both digests match exactly and the entry was
    stored by this code (code_digest); corrupt records are warned about and
    treated as misses."""
    if cache_dir is None:
        return None
    path = cache_path(cache_dir, config_hash, inputs_dig)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if (
            entry["schema_version"] != SCHEMA_VERSION
            or entry["config_hash"] != config_hash
            or entry["inputs_digest"] != inputs_dig
            or entry.get("code_digest") != code_digest()
        ):
            return None
        payloads = entry["payloads"]
        if not isinstance(payloads, list):
            raise ValueError("payloads is not a list")
        return payloads
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"ignoring corrupt cache record {path}: {exc}")
        return None


def cache_store(
    cache_dir: Optional[str],
    config_hash: str,
    inputs_dig: str,
    payloads: Sequence[dict],
    wall_ms: float,
) -> None:
    """Write the entry of payloads already in jsonable form."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, config_hash, inputs_dig)
    entry = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "inputs_digest": inputs_dig,
        "code_digest": code_digest(),
        "wall_ms": wall_ms,
        "payloads": list(payloads),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder; json.dump's streaming encoder gives
        # the same bytes more slowly
        fh.write(json.dumps(entry, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# report emission


def _field_key(value):
    """A normal form comparable across records: ints numerically, integer
    vectors elementwise, everything else by canonical JSON."""
    if value is None:
        return (0, 0, "", ())
    if isinstance(value, bool):
        return (1, int(value), "", ())
    if isinstance(value, int):
        return (1, value, "", ())
    if isinstance(value, (list, tuple)) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        return (2, 0, "", tuple(value))
    return (3, 0, canonical_json(value), ())


def _sort_key(record: dict):
    payload = record.get("payload", {})
    return tuple(
        _field_key(payload.get(field))
        for field in ("D", "m", "n", "L", "R", "subset", "l")
    )


def sort_records(records: Sequence[dict]) -> list[dict]:
    return sorted(records, key=_sort_key)


def emit_jsonl(records: Sequence[dict], stream) -> None:
    for record in records:
        stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        stream.write("\n")


def _csv_cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)


def emit_csv(records: Sequence[dict], stream) -> None:
    """One row per record; columns are payload keys in first-seen order."""
    versions = {r["schema_version"] for r in records}
    if len(versions) > 1:
        raise InvalidConfig(f"mixed schema versions in report: {sorted(versions)}")
    columns: list[str] = []
    for record in records:
        for key in record["payload"]:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["op"] + columns)
    for record in records:
        payload = record["payload"]
        writer.writerow(
            [record["op"]] + [_csv_cell(payload.get(col)) for col in columns]
        )


def report(records: Sequence[dict], fmt: str, stream) -> None:
    ordered = sort_records(records)
    if fmt == "jsonl":
        emit_jsonl(ordered, stream)
    elif fmt == "csv":
        emit_csv(ordered, stream)
    else:
        raise InvalidConfig(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# payload builders, one per subcommand


def _load_tuple(path: str, prec: int) -> RealTuple:
    return RealTuple(tuple(load_expressions(path)), precision_bits=prec)


def _load_nonzero_tuple(path: str, prec: int) -> RealTuple:
    """A tuple for the linear-form probes: every entry is certified nonzero,
    and the enclosures this computes stay memoised for the probe."""
    tup = _load_tuple(path, prec)
    tup.validate_nonzero()
    return tup


def run_relation(args, sink: list[dict]) -> None:
    theta = _load_nonzero_tuple(args.tuple_file, args.prec)
    result = dioph.regularity_probe(
        theta,
        include_pi_i=args.pi_i,
        height_bound=args.height,
        precision_bits=args.prec,
        budget=args.budget,
    )
    sink.append(
        {
            "status": result.status,
            "relation": list(result.relation) if result.relation else None,
            "includes_pi": result.includes_pi,
            "height_bound": result.height_bound,
            "verified_exact": result.verified_exact,
            "minimal": result.minimal,
        }
    )


def run_gen(args, sink: list[dict]) -> None:
    theta = _load_nonzero_tuple(args.tuple_file, args.prec)
    report_ = dioph.genericity_probe(
        theta, args.mu, args.eta, args.c, parse_range(args.D), budget=args.budget
    )
    for v in report_.verdicts:
        sink.append(
            {
                "D": v.D,
                "subset": list(v.record.subset),
                "l": list(v.record.l),
                "log_min": v.record.log_value,
                "log_exp_value": v.record.log_exp_value,
                "threshold": v.threshold,
                "passed": v.passed,
                "c_required": v.c_required,
                "mu": report_.mu,
                "eta": report_.eta,
                "c": report_.c,
                "overall": report_.overall,
                "approximate": v.record.approximate,
            }
        )


def run_bigen(args, sink: list[dict]) -> None:
    theta = _load_nonzero_tuple(args.tuple_file, args.prec)
    kappa = _load_nonzero_tuple(args.kappa_file, args.prec)
    report_ = dioph.bituple_probe(
        theta,
        kappa,
        args.mu,
        args.nu,
        args.eta,
        args.c,
        parse_range(args.L),
        parse_range(args.R),
        budget=args.budget,
    )
    for v in report_.verdicts:
        sink.append(
            {
                "L": v.L,
                "R": v.R,
                "subset_theta": list(v.subset_theta),
                "subset_kappa": list(v.subset_kappa),
                "l": list(v.l),
                "r": list(v.r),
                "log_value": v.log_value,
                "log_exp_value": v.log_exp_value,
                "threshold": v.threshold,
                "passed": v.passed,
                "c_required": v.c_required,
                "overall": report_.overall,
                "approximate": v.approximate,
            }
        )


def run_schedule(args, sink: list[dict]) -> None:
    for D in parse_range(args.D):
        s = auxpoly.make_schedule(D, args.k, args.mu, args.nu)
        sink.append(
            {
                "D": s.D,
                "k": s.k,
                "mu": s.mu,
                "nu": s.nu,
                "L": s.L,
                "R": s.R,
                "M": s.M,
                "M_low": s.M_low,
                "delta": s.delta,
                "U": s.U,
                "feasible": s.feasible,
                "siegel_ok": s.siegel_inequality_holds(),
            }
        )


def run_auxpoly(args, sink: list[dict]) -> None:
    theta = _load_tuple(args.tuple_file, args.prec)
    subset = parse_index_list(args.subset)
    alphas, mons = auxpoly.alphas_from_monomials(theta, subset, args.L)
    try:
        radius = Fraction(args.radius)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfig(f"cannot parse radius {args.radius!r}") from exc
    delta = float(args.delta)
    u_target = (
        args.u_target
        if args.u_target is not None
        else math.sqrt(len(mons) * delta) / 8.0
    )
    poly = auxpoly.siegel_construct(
        alphas,
        u_target,
        delta,
        radius=radius,
        grid=GridSpec(args.rings, args.angles),
        taylor_terms=args.taylor_terms,
        monomials=mons,
        strict=args.strict,
        precision_bits=args.prec,
    )
    sink.append(
        {
            "L": args.L,
            "subset": list(subset),
            "monomials": [list(m) for m in poly.monomials],
            "coefficients": list(poly.coefficients),
            "u_target": poly.u_target,
            "delta": poly.delta,
            "radius": str(poly.radius),
            "log_height": poly.log_height,
            "grid_sup": poly.grid_sup,
            "lipschitz_slack": poly.lipschitz_slack,
            "taylor_log_sup": poly.taylor_log_sup,
            "achieved_log_sup": poly.achieved_log_sup,
            "u_achieved": poly.u_achieved,
            "height_ok": poly.height_ok,
            "norm_hypothesis_ok": poly.norm_hypothesis_ok,
            "best_effort": poly.best_effort,
            "identically_zero": poly.identically_zero,
        }
    )


def run_omega(args, sink: list[dict]) -> None:
    points = load_points(args.points_file)
    degree = auxpoly.omega(points, max_degree=args.max_degree)
    sink.append(
        {"points": len(points), "max_degree": args.max_degree, "omega": degree}
    )


def run_zeroest(args, sink: list[dict]) -> None:
    points = load_points(args.points_file)
    sink.append(zero_estimate_search(points, args.depth, args.L, budget=args.budget))


def run_dist_audit(args, sink: list[dict]) -> None:
    z = load_distance_point(args.z_file)
    theta = _load_tuple(args.tuple_file, args.prec)
    kappa = _load_tuple(args.kappa_file, args.prec)
    rep = auxpoly.distance_audit(
        z,
        theta,
        kappa,
        parse_index_list(args.I),
        parse_index_list(args.J),
        args.D,
        k=args.k,
        eta=args.eta,
        c=args.c,
        precision_bits=args.prec,
        budget=args.budget,
    )
    ze = rep.zero_estimate
    sink.append(
        {
            "D": rep.schedule.D,
            "mode": rep.mode,
            "L": rep.schedule.L,
            "R": rep.schedule.R,
            "S": rep.S,
            "count_ok": rep.count_ok,
            "sigma_count": rep.sigma_count,
            "l_power": rep.l_power,
            "omega_degree": rep.omega_degree,
            "zero_estimate_found": ze.found if ze else None,
            "character": ze.character if ze else None,
            "collision": rep.collision,
            "relation_exact": rep.relation_exact,
            "contradiction_log": rep.contradiction_log,
            "distance_log": rep.distance_log,
            "threshold": rep.threshold,
            "binding": rep.binding,
            "verdict": rep.verdict,
        }
    )


def run_bounds(args, sink: list[dict]) -> None:
    for rep in bounds.bound_grid(
        parse_range(args.m), parse_range(args.n), variant=args.variant
    ):
        sink.append(
            {
                "m": rep.m,
                "n": rep.n,
                "theorem_t": rep.theorem_t,
                "theorem_mu": rep.theorem_witness[0] if rep.theorem_witness else None,
                "theorem_nu": rep.theorem_witness[1] if rep.theorem_witness else None,
                "corollary_t": rep.corollary_t,
                "conjecture": str(rep.conjecture),
                "gap": str(rep.gap),
            }
        )


def run_phil_audit(args, sink: list[dict]) -> None:
    family = load_poly_family(args.family_file)
    theta = _load_tuple(args.tuple_file, args.prec)
    rep = auxpoly.philippon_audit(
        family,
        theta,
        args.D,
        c1=args.c1,
        c2=args.c2,
        C=args.C,
        eta=args.eta,
        case=args.case,
        zero_distance_log=args.zero_distance_log,
        seed=args.seed,
        starts=args.starts,
        precision_bits=args.prec,
    )
    payload = {"D": rep.D, "case": rep.case, "note": rep.note}
    for check in (
        rep.degree_check,
        rep.height_check,
        rep.smallness_check,
        rep.distance_check,
    ):
        payload[f"{check.name}_status"] = check.status
        payload[f"{check.name}_details"] = jsonable(check.details)
    sink.append(payload)


# ---------------------------------------------------------------------------
# argument parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prec", type=int, default=128, help="precision in bits")
    sub.add_argument(
        "--budget", type=budget_count, default=DEFAULT_BUDGET, help="enumeration budget"
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized grids")
    sub.add_argument("--cache-dir", dest="cache_dir", default=None)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub.add_argument(
        "--refresh", action="store_true", help="ignore the cache for this run"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every run() shares it."""
    parser = argparse.ArgumentParser(
        prog="genlab",
        description="Number-theory workbench: probes, schedules, audits.",
    )
    subs = parser.add_subparsers(dest="op", required=True)

    p = subs.add_parser("relation", help="integer relation hunt on a tuple")
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--height", type=int, default=10**6)
    p.add_argument("--pi-i", dest="pi_i", action="store_true")
    _add_common(p)
    p.set_defaults(func=run_relation)

    p = subs.add_parser("gen", help="genericity probe over a height range")
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--eta", type=finite_float, required=True)
    p.add_argument("--c", type=finite_float, required=True)
    p.add_argument("--D", required=True, help='heights, e.g. "2..50"')
    _add_common(p)
    p.set_defaults(func=run_gen)

    p = subs.add_parser("bigen", help="bituple product-form probe")
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--kappa", dest="kappa_file", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--eta", type=finite_float, required=True)
    p.add_argument("--c", type=finite_float, required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--R", required=True)
    _add_common(p)
    p.set_defaults(func=run_bigen)

    p = subs.add_parser("schedule", help="auxiliary-polynomial parameter schedules")
    p.add_argument("--D", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=run_schedule)

    p = subs.add_parser("auxpoly", help="Siegel coefficient construction")
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--subset", required=True, help='tuple indices, e.g. "0,1"')
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--delta", type=finite_float, required=True)
    p.add_argument("--u-target", dest="u_target", type=finite_float, default=None)
    p.add_argument("--radius", default="1/4")
    p.add_argument("--rings", type=int, default=10)
    p.add_argument("--angles", type=int, default=100)
    p.add_argument("--taylor-terms", dest="taylor_terms", type=int, default=None)
    p.add_argument("--strict", action="store_true")
    _add_common(p)
    p.set_defaults(func=run_auxpoly)

    p = subs.add_parser("omega", help="minimal vanishing degree of a point set")
    p.add_argument("--points", dest="points_file", required=True)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=run_omega)

    p = subs.add_parser("zeroest", help="obstruction-subgroup search")
    p.add_argument("--points", dest="points_file", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=run_zeroest)

    p = subs.add_parser("dist-audit", help="distance-lemma audit at one point")
    p.add_argument(
        "--z", dest="z_file", required=True, help='point file or the marker "theta"'
    )
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--kappa", dest="kappa_file", required=True)
    p.add_argument("--I", required=True, help="theta index subset")
    p.add_argument("--J", required=True, help="kappa index subset")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eta", type=finite_float, default=2.0)
    p.add_argument("--c", type=finite_float, default=1.0)
    _add_common(p)
    p.set_defaults(func=run_dist_audit)

    p = subs.add_parser("bounds", help="transcendence-degree bound grid")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument(
        "--variant", choices=(bounds.CONSISTENT, bounds.LITERAL), default=bounds.CONSISTENT
    )
    _add_common(p)
    p.set_defaults(func=run_bounds)

    p = subs.add_parser("phil-audit", help="effective-distance hypothesis audit")
    p.add_argument("--family", dest="family_file", required=True)
    p.add_argument("--tuple", dest="tuple_file", required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--c1", type=finite_float, default=1.0)
    p.add_argument("--c2", type=finite_float, default=1.0)
    p.add_argument("--C", type=finite_float, default=1.0)
    p.add_argument("--eta", type=finite_float, default=2.0)
    p.add_argument(
        "--case", choices=("all_large_D", "infinitely_many_D"), default="all_large_D"
    )
    p.add_argument(
        "--zero-distance-log", dest="zero_distance_log", type=log_distance, default=None
    )
    p.add_argument("--starts", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=run_phil_audit)

    return parser


# ---------------------------------------------------------------------------
# driver


def _emit(records: list[dict], args) -> None:
    if args.out is None:
        report(records, args.format, sys.stdout)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        report(records, args.format, fh)


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the invalid-config code
        return int(exc.code or 0)

    payloads: list[dict] = []
    config_hash = inputs_dig = ""
    exit_code = EXIT_OK
    try:
        config_hash = config_digest(args.op, args)
        inputs_dig = inputs_digest(args)
        cached = (
            None
            if args.refresh
            else cache_lookup(args.cache_dir, config_hash, inputs_dig)
        )
        if cached is not None:
            payloads = cached
        else:
            start = time.monotonic()
            try:
                args.func(args, payloads)
            finally:
                wall_ms = (time.monotonic() - start) * 1000.0
                # one conversion serves the cache entry and the records, and
                # the partial payloads of a failing run as well
                payloads = jsonable(payloads)
            cache_store(args.cache_dir, config_hash, inputs_dig, payloads, wall_ms)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        exit_code = EXIT_INVALID
    except HypothesisNotMet as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        exit_code = EXIT_INVALID
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        exit_code = EXIT_PRECISION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        exit_code = EXIT_BUDGET

    # partial results are flushed even when the run failed
    records = make_records(
        args.op,
        payloads,
        config_hash=config_hash,
        inputs_dig=inputs_dig,
        precision_bits=getattr(args, "prec", 0),
        seed=getattr(args, "seed", 0),
    )
    _emit(records, args)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
