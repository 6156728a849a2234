"""Seeded input generators: the same seed gives the same inputs.

Every generator reads its parameters from ``plan.json`` and draws from a
``random.Random`` keyed on the workload name and the seed, so workloads
never share a stream.  Inputs are plain data (dicts and tuples); the
program under test receives only these.
"""

from __future__ import annotations

import json
import pathlib
import random

PLAN = json.loads((pathlib.Path(__file__).with_name("plan.json")).read_text())


def params(workload: str) -> dict:
    return PLAN["workloads"][workload]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _stratified(rng: random.Random, lo: float, hi: float, count: int, digits: int):
    """One uniform draw in each of ``count`` equal strata of ``[lo, hi]``."""
    step = (hi - lo) / count
    return [round(lo + (k + rng.random()) * step, digits) for k in range(count)]


def lockrange_warm(seed: int) -> list[dict]:
    """Distinct ``(family, n, v_i)`` specs, interleaved across the groups."""
    p = params("lockrange-warm")
    rng = _rng("lockrange-warm", seed)
    per_group = []
    for group in p["groups"]:
        v_is = _stratified(rng, *group["v_i"], p["specs_per_group"], 5)
        rng.shuffle(v_is)
        per_group.append(
            [{"family": group["family"], "n": group["n"], "v_i": v} for v in v_is]
        )
    specs = []
    for round_ in zip(*per_group):
        round_ = list(round_)
        rng.shuffle(round_)
        specs.extend(round_)
    return specs


def lockrange_referees(seed: int, specs: list[dict]) -> list[int]:
    """Indices of the specs the dense referee checks (distinct families)."""
    p = params("lockrange-warm")
    rng = _rng("lockrange-warm-referee", seed)
    by_family: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        by_family.setdefault(spec["family"], []).append(index)
    families = sorted(by_family)
    rng.shuffle(families)
    return sorted(rng.choice(by_family[f]) for f in families[: p["referee_specs"]])


def tongue_cold(seed: int) -> list[list[dict]]:
    """Planned operations; each is a list of tongue groups."""
    p = params("tongue-cold")
    rng = _rng("tongue-cold", seed)
    ops = []
    for _ in range(p["ops_planned"]):
        groups = []
        for group in p["groups"]:
            groups.append(
                {
                    "family": group["family"],
                    "n": group["n"],
                    "v_is": _stratified(rng, *group["v_i"], p["vi_count"], 5),
                    "freq_count": p["freq_count"],
                    "freq_rel_span": round(rng.uniform(*p["freq_rel_span"]), 6),
                }
            )
        ops.append(groups)
    return ops


def serve_mix(seed: int) -> list[dict]:
    """Job payloads in shuffled blocks of fixed composition.

    Each block of ``block`` jobs holds ``tongues`` small tongue jobs,
    ``repeats`` exact repeats of earlier lockrange jobs and fresh
    lockrange jobs for the rest, the fresh ones cycling over the groups.
    """
    p = params("serve-mix")
    rng = _rng("serve-mix", seed)
    groups = p["lockrange_groups"]
    jobs: list[dict] = []
    fresh: list[dict] = []
    while len(jobs) < p["jobs_planned"]:
        block = ["tongue"] * p["tongues"] + ["repeat"] * p["repeats"]
        block += ["fresh"] * (p["block"] - len(block))
        rng.shuffle(block)
        for kind in block:
            if kind == "tongue":
                t = p["tongue"]
                job = {
                    "kind": "tongue",
                    "family": t["family"],
                    "n": t["n"],
                    "v_i": round(rng.uniform(*t["v_i"]), 5),
                    "vi_count": t["vi_count"],
                    "freq_count": t["freq_count"],
                }
            elif kind == "repeat" and fresh:
                job = dict(rng.choice(fresh))
            else:
                group = groups[len(fresh) % len(groups)]
                job = {
                    "kind": "lockrange",
                    "family": group["family"],
                    "n": group["n"],
                    "v_i": round(rng.uniform(*group["v_i"]), 5),
                }
                fresh.append(job)
            jobs.append(job)
    return jobs[: p["jobs_planned"]]


GENERATORS = {
    "lockrange-warm": lockrange_warm,
    "tongue-cold": tongue_cold,
    "serve-mix": serve_mix,
}
