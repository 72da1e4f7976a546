"""Command-line entry point: configuration, caching, and experiment reports.

Subcommands: spectrum | count | density | mme | cube | rank | verify-all.
Configuration is a flat ``key = value`` text file; flags override file
values; a command takes only the flags in ``READS`` and the path flags.
All outputs are deterministic for a fixed (config, seed): reports carry no
timestamps and all float formatting uses repr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import density as de
from . import dynlab as dy
from . import fuchsian as fu
from . import hypgeom as hg
from . import jacobi as ja
from . import mme
from .errors import (ConfigError, DegenerateMeasureError, GeodlabError,
                     IntegrationError, InvalidConfigurationError,
                     NumericDegeneracyError, OutOfRangeError)
from .quotient import FundamentalDomain

EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CACHE_ENV = "GEODLAB_CACHE"


@dataclass
class RunConfig:
    radius: float = 10.0
    t: list = field(default_factory=lambda: [6.0, 8.0, 9.0])  # t grid
    epsilon: float = 0.5
    samples: int = 200_000
    seed: int = 0
    box: list | None = None          # [x, y, theta, pos_radius, angle_hw]
    out: str = "."
    cache_dir: str | None = None

    def validate(self):
        if not all(map(math.isfinite, [self.radius, self.epsilon,
                                       *self.t, *(self.box or ())])):
            raise ConfigError("numeric values must be finite")
        if self.radius <= 0 or self.epsilon <= 0 or self.samples <= 0:
            raise ConfigError("radius, epsilon, and samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.t or any(t <= 0 for t in self.t):
            raise ConfigError("t grid must be nonempty with positive entries")
        if self.box is not None and len(self.box) != 5:
            raise ConfigError("box needs 5 numbers: x,y,theta,radius,halfwidth")
        try:
            self.phase_box()
        except InvalidConfigurationError as e:
            raise ConfigError(f"box: {e}") from e
        return self

    def resolved_cache_dir(self):
        d = self.cache_dir or os.environ.get(CACHE_ENV) or os.path.join(
            self.out, ".geodlab-cache")
        os.makedirs(d, exist_ok=True)
        return d

    def phase_box(self):
        if self.box is None:
            return None
        x, y, th, pr, ahw = self.box
        return mme.PhaseBox(hg.PhasePoint(hg.DiskPoint(complex(x, y)), th),
                            pr, ahw)


def parse_config_file(path) -> dict:
    """Flat key = value format; '#' starts a comment; lists are comma-joined."""
    out = {}
    try:
        with open(path) as f:
            for ln, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key = value")
                k, v = (part.strip() for part in line.split("=", 1))
                out[k] = v
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return out


def _parse_floats(text):
    try:
        return [float(x) for x in str(text).split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad numeric list {text!r}") from e


# How a flag or config-file value of each RunConfig field is parsed
TYPES = {"radius": float, "t": _parse_floats, "epsilon": float,
         "samples": int, "seed": int, "box": _parse_floats, "out": str,
         "cache_dir": str}
# The RunConfig fields each command reads.  Its flags are these and the path
# flags --config, --out and --cache-dir; a config file may set any field.
READS = {
    "spectrum": {"radius"},
    "count": {"radius", "t", "epsilon"},
    "density": {"radius"},
    "mme": {"radius", "samples", "seed", "box"},
    "cube": {"radius", "t", "samples", "seed", "box"},
    "rank": {"seed"},
    "verify-all": {"seed"},
}
PATHS = {"out", "cache_dir"}


def build_config(args) -> RunConfig:
    unread = [f"--{k}" for k in TYPES if k not in READS[args.command] | PATHS
              and getattr(args, k) is not None]
    if unread:
        raise ConfigError(f"{args.command} does not read {' '.join(unread)}")
    cfg = RunConfig()
    if args.command == "cube":      # one t: the default grid's largest
        cfg.t = [max(cfg.t)]
    file_vals = parse_config_file(args.config) if args.config else {}
    for key, v in file_vals.items():
        if key not in TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, TYPES[key](v))
        except ValueError as e:
            raise ConfigError(f"bad {key} value ({e})") from e
    for key in TYPES:           # flags override file values
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg.validate()


# ---------------------------------------------------------------------------
# caching

def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def cached_spectrum(cfg: RunConfig) -> tuple[fu.SpectrumTable, str, bool]:
    """Build or reuse the spectrum table; returns (table, csv_path, hit).

    An entry is keyed on the surface and every build parameter in the
    table's meta (schema version included).  It is reused only when its meta
    equals those parameters and its CSV matches the sha256 sidecar; anything
    else is rebuilt.  Files are written under temporary names and renamed
    into place, sidecar last, so a crash never leaves a valid-looking entry.
    """
    want = {"surface": "bolza", "cutoff": cfg.radius,
            **fu.spectrum_meta(cfg.radius)}
    key = hashlib.sha256(
        json.dumps(want, sort_keys=True).encode()).hexdigest()[:16]
    cdir = cfg.resolved_cache_dir()
    csv_path = os.path.join(cdir, f"spectrum_{key}.csv")
    meta_path = os.path.join(cdir, f"spectrum_{key}.json")
    sidecar = csv_path + ".sha256"
    try:
        with open(meta_path) as f:
            meta_ok = json.load(f) == want
        with open(sidecar) as f:
            hash_ok = _file_sha256(csv_path) == f.read().strip()
    except (OSError, ValueError):
        meta_ok = hash_ok = False
    if meta_ok and hash_ok:
        return fu.SpectrumTable.load(csv_path, meta_path), csv_path, True
    table = fu.build_spectrum(fu.bolza(), cfg.radius)
    tmp = {p: f"{p}.{os.getpid()}.tmp" for p in (csv_path, meta_path, sidecar)}
    try:
        table.save(tmp[csv_path], tmp[meta_path])
        with open(tmp[sidecar], "w") as f:
            f.write(_file_sha256(tmp[csv_path]) + "\n")
        for final in (csv_path, meta_path, sidecar):
            os.replace(tmp[final], final)
    finally:
        for t in tmp.values():
            if os.path.exists(t):
                os.unlink(t)
    return table, csv_path, False


# ---------------------------------------------------------------------------
# report helpers

def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in r])


def _default_box(domain, seed):
    return mme.random_box(domain, np.random.default_rng(seed))


def _box_payload(box):
    return {"x": box.center.base.z.real, "y": box.center.base.z.imag,
            "theta": box.center.dir, "position_radius": box.position_radius,
            "angle_halfwidth": box.angle_halfwidth}


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(cfg: RunConfig) -> int:
    table, path, hit = cached_spectrum(cfg)
    out = {"cache_hit": hit, "classes": len(table.classes),
           "csv": path, "csv_sha256": _file_sha256(path),
           "systole": table.systole(), "cutoff": table.cutoff}
    _write_json(os.path.join(cfg.out, "spectrum_report.json"), out)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_count(cfg: RunConfig) -> int:
    if max(cfg.t) + cfg.epsilon > cfg.radius:
        raise ConfigError("t grid plus epsilon exceeds the spectrum radius")
    table, _, _ = cached_spectrum(cfg)
    rep = dy.counting_suite(table, cfg.t, cfg.epsilon)
    rows = [(r.t, float(r.observed), r.predicted, r.ratio)
            for r in rep.cumulative]
    _write_csv(os.path.join(cfg.out, "count_cumulative.csv"),
               ["t", "P_t", "predicted", "ratio"], rows)
    wrows = [(r.t, float(r.observed), r.predicted, r.ratio)
             for r in rep.window]
    _write_csv(os.path.join(cfg.out, "count_window.csv"),
               ["t", "P_t_eps", "predicted", "ratio"], wrows)
    payload = {"epsilon": cfg.epsilon, "empirical_slope": rep.empirical_slope,
               "cumulative": [[r.t, float(r.observed), r.predicted]
                              for r in rep.cumulative],
               "window": [[r.t, float(r.observed), r.predicted]
                          for r in rep.window]}
    _write_json(os.path.join(cfg.out, "count_report.json"), payload)
    print(json.dumps({"empirical_slope": rep.empirical_slope}, sort_keys=True))
    return 0


def cmd_density(cfg: RunConfig) -> int:
    surface = fu.bolza()
    s = de.DEFAULT_S_FACTOR * surface.entropy_h
    ball = fu.enumerate_ball(surface, cfg.radius)
    rep_t = de.check_transformation(surface, hg.ORIGIN,
                                    hg.DiskPoint(0.3 + 0.1j), s,
                                    cfg.radius, 48, ball=ball)
    rep_e = de.check_equivariance(surface, surface.generator(0), hg.ORIGIN,
                                  s, cfg.radius - 2.0, 48)
    payload = {"transformation": {"max_rel_dev": rep_t.max_rel_dev,
                                  "passed": rep_t.passed,
                                  "excluded_bins": rep_t.excluded_bins},
               "equivariance": {"max_rel_dev": rep_e.max_rel_dev,
                                "passed": rep_e.passed},
               "s": s, "R": cfg.radius}
    _write_json(os.path.join(cfg.out, "density_report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0 if (rep_t.passed and rep_e.passed) else EXIT_ACCEPTANCE


def cmd_mme(cfg: RunConfig) -> int:
    surface = fu.bolza()
    domain = FundamentalDomain(surface)
    ball = fu.enumerate_ball(surface, cfg.radius)
    density = de.ps_density(surface, hg.ORIGIN,
                            de.DEFAULT_S_FACTOR * surface.entropy_h,
                            cfg.radius, ball=ball, R_min=cfg.radius - 3.0)
    box = cfg.phase_box() or _default_box(domain, cfg.seed)
    # at domain_area's own size the 0.5 % check is a 3.4-sigma test
    area = mme.domain_area(domain, max(cfg.samples, 400_000),
                           seed=cfg.seed)
    liv = mme.liouville_measure(domain, box, cfg.samples, seed=cfg.seed + 1)
    kn = mme.knieper_measure(surface, domain, box, density,
                             n_samples=cfg.samples, seed=cfg.seed + 2,
                             norm_samples=max(cfg.samples // 2, 10_000))
    rel = abs(kn.value / liv.value - 1.0) if liv.value else math.inf
    v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.2j), 0.7)
    w = hg.PhasePoint(hg.DiskPoint(-0.2 + 0.05j), 1.9)
    exp_rep = mme.verify_expansion(v, w, [-3.0, -1.0, 2.0, 7.0],
                                   surface.entropy_h)
    area_ok = abs(area.value - 4.0 * math.pi) < 0.005 * 4.0 * math.pi
    passed = bool(rel < 0.05 and exp_rep.passed and area_ok)
    payload = {"box": _box_payload(box),
               "estimate": kn.value, "std_error": kn.std_error,
               "samples": kn.samples, "discarded": kn.discarded,
               "seed": cfg.seed,
               "liouville": liv.value, "liouville_std_error": liv.std_error,
               "relative_gap": rel, "domain_area": area.value,
               "expansion_max_error": exp_rep.max_error, "passed": passed}
    _write_json(os.path.join(cfg.out, "mme_report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0 if passed else EXIT_ACCEPTANCE


def cmd_cube(cfg: RunConfig) -> int:
    t, *more = cfg.t
    if more or t > cfg.radius:
        raise ConfigError("cube reads one t, at most the spectrum radius")
    domain = FundamentalDomain(fu.bolza())
    table, _, _ = cached_spectrum(cfg)
    b1 = cfg.phase_box() or _default_box(domain, cfg.seed)
    b2 = _default_box(domain, cfg.seed + 1)
    m1 = mme.liouville_measure(domain, b1, cfg.samples, seed=cfg.seed + 2)
    m2 = mme.liouville_measure(domain, b2, cfg.samples, seed=cfg.seed + 3)
    corr = dy.mixing_correlation(domain, b1, b2, t, cfg.samples,
                                 seed=cfg.seed + 4)
    mu_t = dy.equidistribution_stat(table, domain, b1, t)
    payload = {"t": t,
               "box1": _box_payload(b1), "box2": _box_payload(b2),
               "m1": m1.value, "m2": m2.value,
               "mixing": corr.value, "mixing_std_error": corr.std_error,
               "mixing_target": m1.value * m2.value,
               "mu_t_box1": mu_t, "seed": cfg.seed}
    _write_json(os.path.join(cfg.out, "cube_report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    results = {}
    disagreements = 0
    for preset in sorted(ja.PRESETS):
        res = ja.rank_suite(preset, 100, seed=cfg.seed)
        counts = {}
        for _, rk, _, _ in res.reports:
            counts[rk.rank] = counts.get(rk.rank, 0) + 1
        results[preset] = {"disagreements": res.disagreements,
                           "counts": counts}
        disagreements += res.disagreements
    m1 = ja.load_metric("constant_m1")
    rc = ja.riccati_subspaces(m1, ja.GeodesicState(0.1, 0.05, 0.3), 30.0)
    riccati_ok = (abs(rc.u_unstable - 1.0) < 1e-6
                  and abs(rc.u_stable + 1.0) < 1e-6)
    payload = {"presets": results, "constant_m1_riccati":
               {"u_unstable": rc.u_unstable, "u_stable": rc.u_stable},
               "passed": disagreements == 0 and riccati_ok}
    _write_json(os.path.join(cfg.out, "rank_report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["passed"] else EXIT_ACCEPTANCE


def cmd_verify_all(cfg: RunConfig) -> int:
    """Deterministic smoke battery over every module.

    Scaled-down versions of the acceptance checks (the full-size battery
    lives in the test suite); byte-identical reports for a fixed seed.
    """
    surface = fu.bolza()
    checks = {}

    # group sanity
    rel = surface.eval_word(surface.relator)
    checks["relator_closes"] = bool(
        abs(rel[0] - 1.0) < 1e-8 and abs(rel[1]) < 1e-8)
    sys_len = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    checks["generator_lengths"] = bool(all(
        abs(surface.generator(i).displacement() - sys_len) < 1e-9
        for i in range(0, 8, 2)))

    # enumeration vs brute force at small radius
    ball = fu.enumerate_ball(surface, 5.0)
    brute = fu.brute_force_ball(surface, 6)
    checks["enumeration_matches_brute_force"] = bool(
        ball.size == int((brute.disp <= 5.0).sum()))

    # spectrum with cross-validation
    table = fu.build_spectrum(surface, 6.5)
    checks["systole"] = bool(abs(table.systole() - sys_len) < 1e-9)
    checks["systole_multiplicity"] = bool(
        np.count_nonzero(np.abs(table.length - sys_len) < 1e-9) == 24)

    # busemann closed form vs truncated limit
    rng = np.random.default_rng(cfg.seed)
    errs = []
    for _ in range(200):
        p = hg.DiskPoint(complex(*rng.uniform(-0.4, 0.4, 2)))
        q = hg.DiskPoint(complex(*rng.uniform(-0.4, 0.4, 2)))
        xi = hg.BoundaryPoint.from_angle(rng.uniform(0, 2 * math.pi))
        x = hg.DiskPoint(math.tanh(10.0) * xi.u)   # horizon 20 along the ray
        approx = hg.dist(q, x) - hg.dist(p, x)
        errs.append(abs(hg.busemann(p, q, xi) - approx))
    checks["busemann_limit"] = bool(max(errs) < 1e-6)

    # density transformation law
    ball8 = fu.enumerate_ball(surface, 8.0)
    rep_t = de.check_transformation(surface, hg.ORIGIN,
                                    hg.DiskPoint(0.3 + 0.1j),
                                    de.DEFAULT_S_FACTOR, 8.0, 32, ball=ball8)
    checks["transformation_law"] = bool(rep_t.max_rel_dev < 0.05)

    # conditionals
    v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.2j), 0.7)
    w = hg.PhasePoint(hg.DiskPoint(-0.2 + 0.05j), 1.9)
    exp_rep = mme.verify_expansion(v, w, [-3.0, -1.0, 2.0, 7.0],
                                   surface.entropy_h)
    checks["conditional_expansion"] = bool(exp_rep.max_error < 1e-9)

    # mme box vs liouville, reduced scale
    domain = FundamentalDomain(surface)
    density = de.ps_density(surface, hg.ORIGIN, de.DEFAULT_S_FACTOR, 10.0,
                            R_min=7.0)
    box = _default_box(domain, cfg.seed)
    liv = mme.liouville_measure(domain, box, 100_000, seed=cfg.seed)
    kn = mme.knieper_measure(surface, domain, box, density,
                             n_samples=60_000, seed=cfg.seed,
                             norm_samples=60_000)
    checks["knieper_vs_liouville_10pct"] = bool(
        abs(kn.value / liv.value - 1.0) < 0.10)

    # dynamics: one period's tile walk closes up in the quotient, and the
    # full-space normalization
    _, a, b, length = dy.axis_pieces(domain, table, slice(0, 1))
    x = np.array([0.0, math.tanh(0.5 * length[-1])]) + 0j
    ends = hg.mobius_apply_z(a[[0, -1]], b[[0, -1]], x)
    dirs = hg.mobius_dir_z(a[[0, -1]], b[[0, -1]], x, 0.0)
    ga = np.append(1.0 + 0j, domain.test_a)
    gb = np.append(0j, domain.test_b)
    gap = np.maximum(
        hg.dist_z(hg.mobius_apply_z(ga, gb, ends[0]), ends[1]),
        hg.angle_gap(hg.mobius_dir_z(ga, gb, ends[0], dirs[0]), dirs[1]))
    checks["realized_periodicity"] = bool(gap.min() < 1e-6)
    # equidistribution: mu_t of a box inside the inscribed disk against its
    # closed-form Liouville measure sinh^2(r/2) w / pi (ball area
    # 4 pi sinh^2(r/2) over area(F) = 4 pi, angle fraction w / pi).  This
    # origin-centred wide box reads mu_6.5 / m(B) - 1 = -5.8 %; over 1,200
    # random wide boxes (r = 0.8, w = 1.5) on this R = 6.5 table the largest
    # |mu_6.5 / m(B) - 1| was 9.0 %; the 15 % bound leaves room above that.
    r, w = 0.8, 1.5
    wide = mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0), r, w)
    m_wide = math.sinh(0.5 * r) ** 2 * w / math.pi
    checks["mu_t_vs_liouville_15pct"] = bool(
        abs(dy.equidistribution_stat(table, domain, wide, 6.5) / m_wide - 1.0)
        < 0.15)

    # counting trend at the reduced horizon
    rep = dy.counting_suite(table, [5.0, 6.0], 0.5)
    checks["counting_ratio_sane"] = bool(
        0.5 < rep.cumulative[-1].ratio < 2.0)

    # rank suite, reduced size
    disagreements = 0
    for preset in sorted(ja.PRESETS):
        disagreements += ja.rank_suite(preset, 25, seed=cfg.seed).disagreements
    checks["rank_suite_agreement"] = bool(disagreements == 0)
    m1 = ja.load_metric("constant_m1")
    rc = ja.riccati_subspaces(m1, ja.GeodesicState(0.1, 0.05, 0.3), 20.0)
    checks["riccati_constant_curvature"] = bool(
        abs(rc.u_unstable - 1.0) < 1e-6 and abs(rc.u_stable + 1.0) < 1e-6)

    passed = all(checks.values())
    payload = {"surface": surface.name, "seed": cfg.seed,
               "checks": checks, "passed": passed}
    _write_json(os.path.join(cfg.out, "verify_all_report.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0 if passed else EXIT_ACCEPTANCE


COMMANDS = {
    "spectrum": cmd_spectrum,
    "count": cmd_count,
    "density": cmd_density,
    "mme": cmd_mme,
    "cube": cmd_cube,
    "rank": cmd_rank,
    "verify-all": cmd_verify_all,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # usage errors follow the JSON contract
        raise ConfigError(message)


def make_parser():
    p = _Parser(
        prog="geodlab",
        description="Desk-scale lab for geodesic flows on hyperbolic surfaces")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="flat key = value config file")
    hints = {"t": "comma-separated t grid (one t for cube)",
             "box": "x,y,theta,position_radius,angle_halfwidth"}
    for key, kind in TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       help=hints.get(key))
    return p


def _fail(kind, message, code):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except (ConfigError, OutOfRangeError) as e:
        return _fail("config", str(e), EXIT_CONFIG)
    except (NumericDegeneracyError, DegenerateMeasureError,
            IntegrationError) as e:
        return _fail("numerical", str(e), EXIT_NUMERIC)
    except GeodlabError as e:
        return _fail("acceptance", str(e), EXIT_ACCEPTANCE)


if __name__ == "__main__":
    sys.exit(main())
