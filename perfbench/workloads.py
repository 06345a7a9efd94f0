"""The four benchmark workloads, built from a seed.

Each workload is a list of jobs run one after another in a single process
(the CLI default --threads 1).  A job either calls ``cli.run`` with an
argv, exactly as a user of the CLI would, or calls the public library
API on inputs drawn from the seed.  The CLI configs below are the same for
every seed, and their ``content_hash`` values are frozen in
``FROZEN_HASHES``.  The seed draws the curves of ``census-drawn``, the
point pairs of ``survey-drawn-pairs`` and the jitter of the optimize grid
(``DEFAULT_SEED`` keeps the plain grid); every draw has the same size, so
every seed costs about the same.  See README.md for why each workload is
there and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from integral_census import cli, families, heights, optimizer, points, repulsion
from integral_census.families import CurveModel, Family

import checks

DEFAULT_SEED = 0

CENSUS_X_BOUND = 3000
CENSUS_ARGV = ["census", "--family", "universal", "--T", "4", "--x-bound", str(CENSUS_X_BOUND)]
CENSUS_DRAW_T = 8.0
CENSUS_DRAWN_CURVES = 64
FERMAT_ARGV = ["census", "--curve", "0,-2", "--x-bound", "2000000"]
SWEEP_ARGVS = [
    ["gap-survey", "--family", "universal", "--T", "8", "--x-bound", "10000",
     "--delta", "0.1", "--min-height", "auto", "--restrict-filtered"],
    ["small-points", "--family", "universal", "--T", "8", "--exponent", "1.5"],
]
SURVEY_X_BOUND = 1000
SURVEY_MIN_HEIGHT = 0.5
SURVEY_ARGV = ["gap-survey", "--family", "universal", "--T", "2.5",
               "--x-bound", str(SURVEY_X_BOUND), "--min-height", str(SURVEY_MIN_HEIGHT)]
SURVEY_PRECISION = 1e-10  # the CLI default
SURVEY_POOL_T = 3.0
SURVEY_DRAWN_PAIRS = 8
DIVPOLY_ARGV = ["divpoly-verify", "--n-max", "18"]
MOMENTS_ARGV = ["optimize", "--model", "moments"]
MINIMALIST_ARGV = ["optimize", "--model", "minimalist"]
REFERENCE = optimizer.REFERENCE_PARAMS
BOUND_GRID = {
    "c": [REFERENCE.c, 0.9995],
    "D": [REFERENCE.D, 1200.0],
    "s": [REFERENCE.s],
    "J": [REFERENCE.J_default, 1.3],
}
BOUND_REFINE_ITERS = 2

# content_hash of every CLI job, keyed by its argv; computed on the commit
# that added this benchmark.  Output that changes these changes results.
FROZEN_HASHES = {
    "census --family universal --T 4 --x-bound 3000":
        "b9dd1df4410e3b5ded81d7a1825dc3f695471bc5c23e6e731172ffc626f5b8c3",
    "census --curve 0,-2 --x-bound 2000000":
        "51e662f40b8f9e752955b8b9de682f1f44f248219825e4d93ca1380c5fcbb2e8",
    "gap-survey --family universal --T 8 --x-bound 10000 --delta 0.1 "
    "--min-height auto --restrict-filtered":
        "899fd3e3f2c9a749222df174013a935f80440a11523f7aadcf7461f66187fd9c",
    "small-points --family universal --T 8 --exponent 1.5":
        "b504bd2f311150aa63b3aa5d3090c850131765c277b575caa5e0b6a20124d24d",
    "gap-survey --family universal --T 2.5 --x-bound 1000 --min-height 0.5":
        "223d06682f5dc2b328c08abd5866246c2628bf2362e41461ff81f6e340f4766f",
    "divpoly-verify --n-max 18":
        "4c69963c77e67ad9c7531313d833990aad40d119a53727ca5068937bae0b50cd",
    "optimize --model moments":
        "de0262170447853327e5f7ed3cd1c4c2b95e36c46547b5f6bbd03167d4f9697c",
    "optimize --model minimalist":
        "79b90b99a3cc220c198375c95e157a3846fbf0fad9779ea69fb401bd3ef3f72d",
}


@dataclass
class CliOutput:
    status: int
    doc: dict | None
    text: str


@dataclass
class Job:
    """One unit of work; ``check`` sees this job's output and all outputs
    of the pass by job name, and returns the problems it found."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


def run_cli(argv: list[str]) -> CliOutput:
    """cli.run with its report captured in memory instead of on stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status, doc = cli.run(list(argv))
    return CliOutput(status, doc, buf.getvalue())


def cli_job(name: str, argv: list[str], check=None) -> Job:
    def check_cli(out: CliOutput, outputs: dict) -> list[str]:
        problems = checks.cli_status(out.status, out.doc)
        if problems:
            return problems
        problems += checks.content_hash(" ".join(argv), out.doc, FROZEN_HASHES)
        if check is not None:
            problems += check(out.doc, outputs)
        return problems

    return Job(name, lambda: run_cli(argv), check_cli)


def check_jobs(jobs: list[Job], outputs: dict) -> dict[str, list[str]]:
    """The problems of every job that failed; a job with no output failed."""
    failed = {}
    for job in jobs:
        if job.name not in outputs:
            failed[job.name] = ["no output"]
            continue
        try:
            problems = job.check(outputs[job.name], outputs)
        except Exception as exc:  # a malformed output is a failed job
            problems = [f"check raised {exc!r}"]
        if problems:
            failed[job.name] = problems
    return failed


def build(workload: str, seed: int) -> list[Job]:
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {sorted(_WORKLOADS)}")
    rng = random.Random(seed)
    return _WORKLOADS[workload](seed, rng)


def _census(seed: int, rng: random.Random) -> list[Job]:
    curves = draw_curves(rng, CENSUS_DRAWN_CURVES, CENSUS_DRAW_T)
    return [
        cli_job("census-family", CENSUS_ARGV, lambda doc, _: checks.census_doc(doc)),
        Job(
            "census-drawn",
            lambda: points.census(Family.UNIVERSAL, CENSUS_DRAW_T, CENSUS_X_BOUND, curves=curves),
            lambda summary, _: checks.census_summary(summary),
        ),
        cli_job("census-fermat", FERMAT_ARGV, lambda doc, _: checks.fermat(doc)),
    ]


def draw_curves(rng: random.Random, count: int, T: float) -> list[CurveModel]:
    """``count`` distinct universal-family curves of naive height <= T."""
    a_max = int((T**6 / 4) ** (1 / 3))
    b_max = int((T**6 / 27) ** 0.5)
    seen: set[CurveModel] = set()
    out = []
    while len(out) < count:
        c = CurveModel(rng.randint(-a_max, a_max), rng.randint(-b_max, b_max))
        if c in seen:
            continue
        seen.add(c)
        if families.is_family_member(c, Family.UNIVERSAL):
            out.append(c)
    return out


def _sweep(seed: int, rng: random.Random) -> list[Job]:
    # repulsion_survey and small_point_statistics take a family, not a
    # curve list, so this workload is the same for every seed
    survey, small = SWEEP_ARGVS
    return [
        cli_job("sweep-gap-survey", survey, lambda doc, _: checks.gap_survey(doc)),
        cli_job("sweep-small-points", small, lambda doc, _: checks.small_points(doc)),
    ]


def _survey(seed: int, rng: random.Random) -> list[Job]:
    pairs = draw_pairs(rng, _pair_pool(SURVEY_POOL_T), SURVEY_DRAWN_PAIRS)
    return [
        cli_job("survey-gap-survey", SURVEY_ARGV, lambda doc, _: checks.gap_survey(doc)),
        Job(
            "survey-drawn-pairs",
            lambda: [repulsion.gap_excess(c, p, r, SURVEY_PRECISION) for c, p, r in pairs],
            lambda stats, _: checks.pair_stats(stats),
        ),
        cli_job("survey-divpoly", DIVPOLY_ARGV, lambda doc, _: checks.divpoly(doc)),
    ]


def _pair_pool(T: float) -> list[tuple[CurveModel, tuple[int, int], tuple[int, int]]]:
    """Every pair a gap survey at (T, SURVEY_X_BOUND, SURVEY_MIN_HEIGHT) visits."""
    pool = []
    for c in families.enumerate_family(Family.UNIVERSAL, T):
        pts = [
            pt
            for pt in points.integral_points(c, SURVEY_X_BOUND)
            if heights.weil_height(points.CurvePoint.affine(*pt)) >= SURVEY_MIN_HEIGHT
        ]
        for i, p in enumerate(pts):
            for r in pts[i + 1 :]:
                if not (p[0] == r[0] and p[1] == -r[1]):
                    pool.append((c, p, r))
    return pool


def draw_pairs(rng: random.Random, pool: list, count: int) -> list:
    """``count`` pool pairs, one from each of ``count`` equal strata.

    The cost of a canonical height grows with the size of the points, so
    the pool is ranked by point size before the draw; the drawn set then
    costs about the same for every seed.
    """

    def size(item):
        _, p, r = item
        return (max(abs(p[0]), abs(r[0])), min(abs(p[0]), abs(r[0])))

    pool = sorted(pool, key=size)
    step = len(pool) / count
    return [pool[int((i + rng.random()) * step)] for i in range(count)]


def _bound(seed: int, rng: random.Random) -> list[Job]:
    grid = BOUND_GRID if seed == DEFAULT_SEED else jitter_grid(rng)
    return [
        cli_job("bound-moments", MOMENTS_ARGV, lambda doc, _: checks.moments(doc)),
        cli_job("bound-minimalist", MINIMALIST_ARGV, lambda doc, _: checks.minimalist(doc)),
        Job(
            "bound-optimize",
            lambda: optimizer.optimize(
                optimizer.RankModel.moments(), grid, refine_iters=BOUND_REFINE_ITERS
            ),
            lambda report, outputs: checks.optimized(report, outputs.get("bound-moments")),
        ),
    ]


def jitter_grid(rng: random.Random) -> dict:
    """BOUND_GRID with every non-reference value moved a little.

    The reference point stays in the grid, so the search result can never
    be worse than the reference aggregate.
    """
    return {
        "c": [REFERENCE.c, 0.9995 - 0.0004 * rng.random()],
        "D": [REFERENCE.D, 1200.0 * (1 + 0.1 * (rng.random() - 0.5))],
        "s": [REFERENCE.s],
        "J": [REFERENCE.J_default, 1.3 + 0.04 * (rng.random() - 0.5)],
    }


_WORKLOADS = {"census": _census, "sweep": _sweep, "survey": _survey, "bound": _bound}
