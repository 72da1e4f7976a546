"""One benchmark workload in one process: set-up, timed rounds, checks.

Started by run.py with BLAS threads pinned to 1 and `src/` of the checkout
on the import path.  Prints one JSON line: the step metrics (or, with
--trace-file, the per-layer metrics), the number of rounds and the
operation counts.

Every workload runs the same three step groups (spectrum, Knieper,
dynamics).  SIZES gives each workload a full-size version of its own group
and a small version of the other two, so that every end-to-end metric has
a value on every workload.  A step that takes less than a few seconds is
repeated and its median taken; a longer step runs once.  The calls of all
steps run round-robin (run_steps).  All inputs (box centres and
directions, Monte Carlo seeds, start states) are drawn from --seed here;
geodlab sees only those inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

try:
    import geodlab
except ImportError as exc:
    sys.exit(f"perfbench: cannot import geodlab from {ROOT / 'src'}: {exc}")
if ROOT / "src" not in Path(geodlab.__file__).resolve().parents:
    sys.exit(f"perfbench: geodlab was imported from {geodlab.__file__}, "
             f"not from {ROOT / 'src'}")

from geodlab import cli  # noqa: E402
from geodlab import density as de  # noqa: E402
from geodlab import dynlab as dy  # noqa: E402
from geodlab import fuchsian as fu  # noqa: E402
from geodlab import hypgeom as hg  # noqa: E402
from geodlab import jacobi as ja  # noqa: E402
from geodlab import mme  # noqa: E402
from geodlab.quotient import FundamentalDomain  # noqa: E402

from spans import Tracer  # noqa: E402

SYSTOLE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
INRADIUS = math.acosh(1.0 + math.sqrt(2.0))   # inscribed disk of F
BOX_MARGIN = 0.02
KNIEPER_BOX = (0.6, 1.0)    # (position radius, angle half-width)
WIDE_BOX = (0.8, 1.5)       # flowed box, mixing and equidistribution boxes
ORACLE_DEPTH = 6            # brute-force word length ...
ORACLE_RADIUS = 6.0         # ... complete up to this displacement
ENUM_RADIUS = 10.0
MIXING_T = 12.0
FLOW_T = 1.0
N_EQUIDIST_BOXES = 4
RANK_PRESETS = tuple(sorted(ja.PRESETS))
# every rank preset's expected rank, where the preset has only one
UNIFORM_RANK = {"constant_m1": "rank_one", "flat": "rank_ge_2",
                "strictly_negative": "rank_one"}

# A Monte Carlo check may reject a right estimate with at most this
# probability, so that thousands of checks over many runs and seeds do not
# fail by chance.  Gaussian estimates get a band of SIGMAS standard errors
# (6.1); mixing, a count of a few dozen hits, gets exact binomial tails.
FALSE_ALARM = 1e-9
SIGMAS = statistics.NormalDist().inv_cdf(1.0 - FALSE_ALARM / 2)
# Knieper estimates may differ from m(B) by SIGMAS standard errors plus the
# 5 % tolerance of `geodlab mme`.  The standard error includes that of the
# shared normalization: over 2,000 normalizations of 300 pairs its
# t-statistic had sd 1.02 and stayed below 3.95.
MME_TOL = 0.05
# m(B1 cap g^-t B2) tends to m(B1) m(B2) as t grows; at t = 12 estimates
# from 400k samples were within 2.2 % of it.  The binomial band allows 5 %.
MIXING_TOL = 0.05
# mu_t approaches m(B) as t grows; over 3,000 random wide boxes
# |mu_t / m(B) - 1| stayed below 6.1 % at t = 7, and below 0.9 % at t = 10
# over 600 boxes.
EQUIDIST_TOL = {7.0: 0.10, 10.0: 0.07}
AREA_TOL = 0.005

# probe() takes about this long on the machine of README.md's figures; it
# fixes the unit of reference seconds
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.05       # probe interval inside a timed call

# (repeats, size of one repeat) for each step; see README.md
SMALL_SPECTRUM = dict(builds=(7, 6.0), warm_calls=8)
SMALL_KNIEPER = dict(norm=(11, 300), boxes=(11, 6_000), flow=(11, 120),
                     area_samples=0, liouville_boxes=0, liouville_samples=0)
# rank: (repeats, geodesics per preset, horizon T); dump: (repeats, T)
SMALL_DYNAMICS = dict(mixing=(7, 4_000), equidist=(5, 7.0),
                      rank=(1, 10, ja.DEFAULT_T), dump=(5, 0.25))
SIZES = {
    "spectrum": dict(
        setup_reps=3, density=(10.0, 7.0), table_radius=7.0,
        builds=(1, 10.0), warm_calls=8,
        **SMALL_KNIEPER, **SMALL_DYNAMICS),
    "knieper": dict(
        setup_reps=3, density=(12.0, 9.0), table_radius=7.0,
        **SMALL_SPECTRUM,
        norm=(11, 700), boxes=(11, 20_000), flow=(11, 200),
        area_samples=1_000_000, liouville_boxes=11,
        liouville_samples=100_000,
        **SMALL_DYNAMICS),
    "dynamics": dict(
        setup_reps=1, density=(10.0, 7.0), table_radius=10.0,
        **SMALL_SPECTRUM, **SMALL_KNIEPER,
        mixing=(11, 12_000), equidist=(1, 10.0),
        rank=(1, 100, ja.DEFAULT_T), dump=(1, 1.0)),
}


# ---------------------------------------------------------------------------
# inputs and independent references

def random_box(rng, position_radius, angle_halfwidth):
    """Box whose position ball lies inside the inscribed disk of F; the
    centre is uniform by hyperbolic area."""
    reach = INRADIUS - position_radius - BOX_MARGIN
    d = math.acosh(1.0 + rng.uniform() * (math.cosh(reach) - 1.0))
    z = math.tanh(0.5 * d) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return mme.PhaseBox(
        hg.PhasePoint(hg.DiskPoint(complex(z)), rng.uniform(0, 2 * math.pi)),
        position_radius, angle_halfwidth)


def box_measure(box):
    """Normalized Liouville measure of a box inside F, in closed form:
    disk area 4 pi sinh^2(r/2) over area(F) = 4 pi, times w / pi."""
    return (math.sinh(0.5 * box.position_radius) ** 2
            * box.angle_halfwidth / math.pi)


def round_inputs(rng, size):
    def seeds(n):
        return rng.integers(0, 2**31 - 1, size=n).tolist()

    def state():
        r = 0.65 * math.sqrt(rng.uniform())
        a = rng.uniform(0, 2 * math.pi)
        return ja.GeodesicState(r * math.cos(a), r * math.sin(a),
                                rng.uniform(0, 2 * math.pi))

    return {
        "norm_seeds": seeds(size["norm"][0]),
        "knieper_boxes": [random_box(rng, *KNIEPER_BOX)
                          for _ in range(size["boxes"][0])],
        "box_seeds": seeds(size["boxes"][0]),
        "flow_boxes": [random_box(rng, *WIDE_BOX)
                       for _ in range(size["flow"][0])],
        "flow_seeds": seeds(size["flow"][0]),
        "area_seed": seeds(1)[0],
        "liouville_seed": seeds(1)[0],
        "mixing_boxes": [random_box(rng, *WIDE_BOX) for _ in range(2)],
        "mixing_seeds": seeds(size["mixing"][0]),
        "equidist_boxes": [random_box(rng, *WIDE_BOX)
                           for _ in range(N_EQUIDIST_BOXES)],
        "rank_seeds": seeds(size["rank"][0]),
        "dump_states": [state() for _ in range(size["dump"][0])],
    }


def word_length(surface, word):
    """Translation length of a word from explicit 2x2 SU(1,1) products."""
    m = np.eye(2, dtype=complex)
    for letter in word:
        a, b = surface.gen_a[letter], surface.gen_b[letter]
        m = m @ np.array([[a, b], [np.conj(b), np.conj(a)]])
    return 2.0 * math.acosh(max(abs(m[0, 0] + m[1, 1]) / 2.0, 1.0))


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a message

def check_table(table, surface, radius):
    if table.cutoff != radius:
        return f"cutoff {table.cutoff} != {radius}"
    shortest = [c for c in table.classes if abs(c.length - SYSTOLE) < 1e-9]
    if abs(table.systole() - SYSTOLE) > 1e-9 or len(shortest) != 24:
        return f"systole {table.systole()} x{len(shortest)}, want {SYSTOLE} x24"
    for c in table.classes:
        if c.length > radius + 1e-9:
            return f"class {c.word_str} longer than the cutoff"
        if abs(word_length(surface, c.canonical_word) - c.length) > 1e-7:
            return f"class {c.word_str}: stored length {c.length} != word length"
    return None


def table_rows(table):
    return [(c.word_str, c.length, c.primitive, c.group_id)
            for c in table.classes]


def check_estimate(est, target, tol=MME_TOL):
    band = SIGMAS * est.std_error + tol * target
    if not abs(est.value - target) <= band:
        return f"estimate {est.value} vs {target}: off by more than {band}"
    return None


def binomial_band(n, p):
    """(lo, hi): a Binomial(n, p) count falls below lo, or above hi, each
    with probability at most FALSE_ALARM / 2."""
    k = np.arange(n + 1)
    log_pmf = (math.lgamma(n + 1)
               - np.array([math.lgamma(i + 1) + math.lgamma(n - i + 1)
                           for i in k])
               + k * math.log(p) + (n - k) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    below = np.cumsum(pmf)                  # P(X <= k)
    above = np.cumsum(pmf[::-1])[::-1]      # P(X >= k)
    lo = int(np.argmax(below > FALSE_ALARM / 2))
    hi = int(np.argmax(np.append(above[1:], 0.0) <= FALSE_ALARM / 2))
    return lo, hi


# ---------------------------------------------------------------------------
# operations

def probe():
    """Seconds for a fixed mix of interpreted and numpy work, a few ms.

    The speed of a shared machine swings by tens of percent within
    seconds.  The Ledger runs this probe around and during every timed
    call; scaled by their mean, the call's time becomes reference seconds,
    in which this probe takes PROBE_REF_S.
    """
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0.0
    for _ in range(6_000):
        z = z * z * 0.5 + 0.2j
        acc += abs(z)
    x = np.linspace(0.0, 10.0, 80_000)
    acc += float(np.sort(np.sin(x) * np.exp(-x))[0])
    return time.perf_counter() - t0


class Time(NamedTuple):
    reference: float     # seconds scaled to the reference machine
    measured: float      # seconds as measured here


class Ledger:
    """Times calls; counts operations and failed checks.

    Every call is timed in measured seconds, less the probes run inside
    it, and in reference seconds: the measured time scaled by the mean of
    the probes just before it, every PROBE_EVERY_S during it (from a
    SIGALRM handler) and just after it.  All metrics are in reference
    seconds; the measured figures are kept for comparison.
    """

    def __init__(self, probe=probe):
        self.attempted = 0
        self.failed = 0
        self._probe = probe
        self.probes = [probe()]      # every probe of the run, in order
        self.last = Time(0.0, 0.0)
        self._inner = []
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: self._inner.append(probe()))

    def timed(self, fn):
        """Run fn and return its result; self.last is then the Time of the
        call, also when fn raised."""
        self._inner = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            dt = time.perf_counter() - t0 - sum(self._inner)
            samples = [self.probes[-1], *self._inner, self._probe()]
            self.probes.extend(samples[1:])
            self.last = Time(dt * PROBE_REF_S / statistics.fmean(samples), dt)

    def op(self, name, fn, check):
        """Run fn once and check its result; returns (result, Time), with
        result None when fn raised."""
        self.attempted += 1
        try:
            result = self.timed(fn)
        except Exception:
            self._fail(name, traceback.format_exc())
            return None, self.last
        try:
            problem = check(result)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            self._fail(name, problem)
        return result, self.last

    def _fail(self, name, message):
        self.failed += 1
        print(f"perfbench: {name} failed: {message}", file=sys.stderr)


def figure(values):
    """Medians of a step's Time values, of reference and of measured
    seconds (or of the rates they give)."""
    return Time(statistics.median(v.reference for v in values),
                statistics.median(v.measured for v in values))


def setup(size, work, surface, rep):
    """Everything the timed steps consume; built from nothing each time."""
    out = {"domain": FundamentalDomain(surface),
           "oracle": fu.brute_force_ball(surface, ORACLE_DEPTH)}
    radius, shell = size["density"]
    ball = fu.enumerate_ball(surface, radius)
    out["density"] = de.ps_density(surface, hg.ORIGIN,
                                   de.DEFAULT_S_FACTOR * surface.entropy_h,
                                   radius, ball=ball, R_min=shell)
    cfg = cli.RunConfig(radius=size["table_radius"],
                        cache_dir=str(work / f"setup-{rep}"), out=str(work))
    out["table"], _, _ = cli.cached_spectrum(cfg)
    return out


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Step(NamedTuple):
    """One timed step: its metric and its calls, each (fn, check, work).
    With work None the metric is the call's time, else work / time."""
    metric: str
    name: str
    calls: list


def run_steps(led, steps):
    """Run the steps' calls round-robin, one call of each step in turn, so
    that the repeats of a step spread over the whole run and its changes
    of machine speed.  Returns {metric: figure}."""
    values = {s.metric: [] for s in steps}
    for i in range(max(len(s.calls) for s in steps)):
        for s in steps:
            if i < len(s.calls):
                fn, check, work = s.calls[i]
                t = led.op(s.name, fn, check)[1]
                values[s.metric].append(
                    t if work is None
                    else Time(work / t.reference, work / t.measured))
    return {metric: figure(v) for metric, v in values.items()}


def spectrum_steps(size, work, surface, tag):
    """Cold builds into empty caches and warm CLI calls on the first.
    Returns (steps, checks run after them)."""
    n_builds, radius = size["builds"]
    cfgs = [cli.RunConfig(radius=radius,
                          cache_dir=str(work / f"cache-{tag}-{k}"),
                          out=str(work))
            for k in range(n_builds)]
    cold = {}     # the first cold build's table, CSV path and hash

    def build(cfg):
        def fn():
            result = cli.cached_spectrum(cfg)
            cold.setdefault("result", result)
            return result
        return fn

    def check_build(r):
        return ("cold build reported a cache hit" if r[2]
                else check_table(r[0], surface, radius))

    def lengths():
        if "lengths" not in cold:
            table, csv_path, _ = cold["result"]
            cold["lengths"] = np.array([c.length for c in table.classes])
            cold["sha"] = file_sha256(csv_path)
        return cold["lengths"]

    t_grid = [radius - 2.0, radius - 1.0, radius - 0.5]
    eps = 0.5
    out = work / f"out-{tag}"
    out.mkdir()
    common = ["--radius", repr(radius), "--cache-dir", cfgs[0].cache_dir,
              "--out", str(out)]

    def check_spectrum_call(r):
        code, text = r
        if code != 0:
            return f"exit code {code}"
        rep = json.loads(text.strip().splitlines()[-1])
        want = {"cache_hit": True, "classes": len(lengths()),
                "csv_sha256": cold["sha"], "systole": float(lengths()[0])}
        got = {k: rep.get(k) for k in want}
        return None if got == want else f"report {got} != {want}"

    def check_count_call(r):
        code, _ = r
        if code != 0:
            return f"exit code {code}"
        with open(out / "count_report.json") as f:
            rep = json.load(f)
        ls = lengths()
        want = ([int((ls <= t).sum()) for t in t_grid],
                [int(((ls > t - eps) & (ls <= t + eps)).sum())
                 for t in t_grid])
        got = ([int(row[1]) for row in rep["cumulative"]],
               [int(row[1]) for row in rep["window"]])
        return None if got == want else f"counts {got} != {want}"

    count_argv = ["count", *common, "--t", ",".join(map(repr, t_grid)),
                  "--epsilon", repr(eps)]
    warm_calls = []
    for _ in range(size["warm_calls"]):
        warm_calls += [
            (lambda: run_cli(["spectrum", *common]), check_spectrum_call, None),
            (lambda: run_cli(count_argv), check_count_call, None)]
    # builds first: round-robin runs the first build before any warm call
    steps = [Step("spectrum_build_s", "cold cached_spectrum",
                  [(build(cfg), check_build, None) for cfg in cfgs]),
             Step("spectrum_warm_s", "warm geodlab call", warm_calls)]

    def warm_equals_cold(r):
        loaded, _, hit = r
        if not hit:
            return "warm load missed the cache"
        if table_rows(loaded) != table_rows(cold["result"][0]):
            return "warm table differs from the cold one"
        return None

    def checks(led, state):
        led.op("warm cached_spectrum", lambda: cli.cached_spectrum(cfgs[0]),
               warm_equals_cold)
        oracle = state["oracle"]

        def check_ball(ball):
            want = int((oracle.disp <= ORACLE_RADIUS).sum())
            if ball.count(ORACLE_RADIUS) != want:
                return (f"{ball.count(ORACLE_RADIUS)} elements within "
                        f"{ORACLE_RADIUS}, brute force has {want}")
            for i in np.nonzero(ball.disp <= ORACLE_RADIUS)[0]:
                a, b = hg.normalize_ab(ball.a[i], ball.b[i])
                if not oracle.contains_matrix(complex(a), complex(b)):
                    return f"element {i} missing from the brute-force ball"
            return None

        led.op("enumerate_ball",
               lambda: fu.enumerate_ball(surface, ENUM_RADIUS), check_ball)

    return steps, checks


def knieper_steps(size, surface, state, inputs):
    """Full-space normalization, boxes, flowed boxes; then the Liouville
    oracles.  Returns (steps, checks run after them)."""
    domain, density = state["domain"], state["density"]
    n_norm = size["norm"][1]
    # The density caches one normalization.  The box calls get a copy of
    # their own, holding the normalization for norm_seed, so that the
    # normalization calls in between do not evict it.
    box_density = copy.copy(density)
    norm_seed = inputs["norm_seeds"][-1]

    def check_norm(r):
        z, z_se = r
        ok = 0 < z < math.inf and 0 < z_se < math.inf
        return None if ok else f"normalization {z} +- {z_se}"

    def norm(dens, seed):
        return lambda: mme.knieper_normalization(surface, domain, dens,
                                                 n_norm, seed=seed)

    def measure(box, n, seed, flow_t=0.0):
        return lambda: mme.knieper_measure(
            surface, domain, box, box_density, n_samples=n, seed=seed,
            norm_samples=n_norm, norm_seed=norm_seed, flow_t=flow_t)

    def near(box):
        return lambda est: check_estimate(est, box_measure(box))

    n_box, n_flow = size["boxes"][1], size["flow"][1]
    steps = [
        Step("knieper_norm_pairs_per_s", "knieper_normalization",
             [(norm(density, s), check_norm, n_norm)
              for s in inputs["norm_seeds"]]),
        Step("knieper_box_pairs_per_s", "knieper_measure box",
             [(measure(b, n_box, s), near(b), n_box)
              for b, s in zip(inputs["knieper_boxes"], inputs["box_seeds"])]),
        Step("knieper_flow_pairs_per_s", "knieper_measure flow_t",
             [(measure(b, n_flow, s, FLOW_T), near(b), n_flow)
              for b, s in zip(inputs["flow_boxes"], inputs["flow_seeds"])])]

    def prepare(led):
        led.op("knieper_normalization", norm(box_density, norm_seed),
               check_norm)

    def checks(led, state):
        if size["area_samples"]:
            led.op("domain_area",
                   lambda: mme.domain_area(domain, size["area_samples"],
                                           seed=inputs["area_seed"]),
                   lambda est: None
                   if abs(est.value / (4 * math.pi) - 1) < AREA_TOL
                   else f"area {est.value} vs 4 pi")
        for k, box in enumerate(inputs["knieper_boxes"][
                :size["liouville_boxes"]]):
            led.op("liouville_measure",
                   lambda: mme.liouville_measure(
                       domain, box, size["liouville_samples"],
                       seed=inputs["liouville_seed"] + k),
                   lambda est: check_estimate(est, box_measure(box), tol=0.0))

    return steps, prepare, checks


def dynamics_steps(size, work, state, inputs):
    """Mixing, equidistribution, the rank suite and trajectory dumps."""
    domain, table = state["domain"], state["table"]
    b1, b2 = inputs["mixing_boxes"]
    n_mix = size["mixing"][1]
    q = box_measure(b1) * box_measure(b2)
    lo = binomial_band(n_mix, q * (1 - MIXING_TOL))[0]
    hi = binomial_band(n_mix, q * (1 + MIXING_TOL))[1]

    def check_mixing(est):
        hits = round(est.value * n_mix)
        if lo <= hits <= hi:
            return None
        return (f"mixing {est.value}: {hits} of {n_mix} hits, outside "
                f"[{lo}, {hi}] for m(B1) m(B2) = {q}")

    n_eq, t = size["equidist"]
    boxes = inputs["equidist_boxes"]

    def check_profile(mu):
        for value, box in zip(mu, boxes):
            m = box_measure(box)
            if abs(value - m) > EQUIDIST_TOL[t] * m:
                return f"mu_t = {value} vs m(B) = {m}"
        return None

    n_classes = sum(1 for c in table.classes if c.length <= t + 1e-12)
    _, n_geo, rank_T = size["rank"]

    def check_rank(results):
        for preset, res in results.items():
            if res.disagreements:
                return f"{preset}: {res.disagreements} disagreements"
            ranks = {rk.rank for _, rk, _, _ in res.reports}
            want = UNIFORM_RANK.get(preset)
            if want is not None and ranks != {want}:
                return f"{preset}: ranks {ranks}, want {want}"
        return None

    def sweep(seed):
        return lambda: {p: ja.rank_suite(p, n_geo, seed=seed, T=rank_T)
                        for p in RANK_PRESETS}

    dump_T = size["dump"][1]
    path = work / "trajectory.csv"
    n_steps = max(int(round(dump_T / ja.DEFAULT_DT)), 1)
    n_rows = len(range(0, n_steps + 1, max((n_steps + 1) // 1000, 1)))
    u = math.tanh(min(10.0, dump_T))

    def check_dump(_):
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != n_rows:
            return f"{len(rows)} rows, want {n_rows}"
        for row in rows:
            if (abs(float(row["u_unstable"]) - u) > 1e-6
                    or abs(float(row["u_stable"]) + u) > 1e-6):
                return f"row at s = {row['s']}: Riccati limits are not +-{u}"
        return None

    m1 = ja.load_metric("constant_m1")
    return [
        Step("mixing_samples_per_s", "mixing_correlation",
             [(lambda s=s: dy.mixing_correlation(domain, b1, b2, MIXING_T,
                                                 n_mix, seed=s),
               check_mixing, n_mix) for s in inputs["mixing_seeds"]]),
        Step("equidist_classes_per_s", "equidistribution_profile",
             [(lambda: dy.equidistribution_profile(table, domain, boxes, t),
               check_profile, n_classes)] * n_eq),
        Step("rank_geodesics_per_s", "rank_suite",
             [(sweep(s), check_rank, len(RANK_PRESETS) * n_geo)
              for s in inputs["rank_seeds"]]),
        Step("trajectory_rows_per_s", "dump_trajectory_csv",
             [(lambda s0=s0: ja.dump_trajectory_csv(m1, s0, dump_T,
                                                    ja.DEFAULT_DT, path),
               check_dump, n_rows) for s0 in inputs["dump_states"]])]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--rounds", type=int,
                   help="run exactly this many rounds instead of --seconds")
    p.add_argument("--trace-file", type=Path,
                   help="trace the run; write its spans here")
    args = p.parse_args()
    size = SIZES[args.workload]

    tracer = None
    if args.trace_file:
        tracer = Tracer()
        tracer.install()

    surface = fu.bolza()
    # traced, the probes are spans of their own, so that their time is not
    # charged to the geodlab layer they interrupt
    led = Ledger(tracer.span(probe, "perfbench.probe") if tracer else probe)
    setups = []
    for rep in range(size["setup_reps"]):
        state = led.timed(lambda: setup(size, args.work_dir, surface, rep))
        setups.append(led.last)

    rng = np.random.default_rng(args.seed)
    per_round = []
    start = time.perf_counter()
    while True:
        tag = str(len(per_round))
        inputs = round_inputs(rng, size)
        spectrum, spectrum_checks = spectrum_steps(size, args.work_dir,
                                                   surface, tag)
        knieper, prepare, knieper_checks = knieper_steps(size, surface,
                                                         state, inputs)
        dynamics = dynamics_steps(size, args.work_dir, state, inputs)
        prepare(led)
        per_round.append(run_steps(led, spectrum + knieper + dynamics))
        spectrum_checks(led, state)
        knieper_checks(led, state)
        if args.rounds is not None:
            if len(per_round) >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break

    if tracer is not None:
        tracer.write(args.trace_file)
        with open(ROOT / "BENCHMARK.json") as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
        metrics = tracer.layer_metrics(names)
        alt = {}
    else:
        both = {k: figure([r[k] for r in per_round]) for k in per_round[0]}
        both["setup_s"] = figure(setups)
        metrics = {k: v.reference for k, v in both.items()}
        alt = {"measured": {k: v.measured for k, v in both.items()}}
    print(json.dumps({"attempted": led.attempted, "failed": led.failed,
                      "rounds": len(per_round),
                      "metrics": metrics,
                      "alt": alt,
                      # reference over measured seconds, for the wall time
                      "wall_scale": PROBE_REF_S / statistics.fmean(led.probes),
                      "absent": tracer.absent if tracer else []}))


if __name__ == "__main__":
    main()
