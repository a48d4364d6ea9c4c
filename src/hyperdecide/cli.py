"""Command line front end.

Subcommands: generate, validate, thresholds, simulate, equilibria, sweep,
normal-form. Every run writes a manifest file (sorted key=value lines of
the fully resolved configuration) into the output directory, and all CSV
output is deterministic for a fixed manifest, byte for byte.

Configuration precedence: explicit flags, then --config file entries,
then built-in defaults. The output directory comes from --out-dir, the
HYPERDECIDE_OUT environment variable, or the working directory.

Exit codes: 0 success, 1 validation or numeric failure, 2 usage.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import HyperdecideError
from .nonlinearity import tanh_family
from .hypergraph import (
    from_text,
    load,
    parse_arrays,
    random_instance,
    save,
    validation_report,
)
from .dynamics import SystemInstance, integrate, write_trajectory_csv
from .equilibria import find_all, normal_form_coeffs, pi1_star, write_equilibria_csv
from .bifurcation import make_grid, sweep, write_diagram_csv, write_diagram_svg
from .spectra import thresholds, thresholds_text, with_pi1_star

__all__ = ["main", "build_parser"]

OUT_ENV = "HYPERDECIDE_OUT"

# Per-command defaults; None marks a value the user must supply.
_DEFAULTS = {
    "generate": {"n": 5, "p2": 0.8, "p3": 0.2, "alpha": 1.0, "seed": 1,
                 "out": "instance.txt"},
    "validate": {},
    "thresholds": {},
    "simulate": {"pi": None, "x0": "zeros", "dt": 0.01, "t_max": 200.0,
                 "out": "trajectory.csv"},
    "equilibria": {"pi": None, "out": "equilibria.csv"},
    "sweep": {"pi_min": 0.005, "pi_max": 5.0, "pi_step": 0.005, "workers": 1,
              "out": "diagram.csv", "svg": None, "svg_coord": 0},
    "normal-form": {},
}


def _finite_float(text: str) -> float:
    """float() for flags and config values, refusing inf and nan."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got '{text}'")
    return value


_TYPES = {
    "n": int, "seed": int, "workers": int, "svg_coord": int,
    "p2": _finite_float, "p3": _finite_float, "alpha": _finite_float,
    "pi": _finite_float, "dt": _finite_float, "t_max": _finite_float,
    "pi_min": _finite_float, "pi_max": _finite_float, "pi_step": _finite_float,
    "x0": str, "out": str, "svg": str,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdecide",
        description="Collective decision dynamics on networks with pairwise "
                    "and three-way interactions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default: ${OUT_ENV} or '.')")
        p.add_argument("--config", default=None,
                       help="key=value file supplying defaults (flags win)")

    p = sub.add_parser("generate", help="draw a random connected instance")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p2", type=_finite_float, default=None, help="pairwise edge probability")
    p.add_argument("--p3", type=_finite_float, default=None, help="triple probability")
    p.add_argument("--alpha", type=_finite_float, default=None, help="2-interaction ratio")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("validate", help="check a stored instance against the model assumptions")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("thresholds", help="print the spectral effort thresholds")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("simulate", help="integrate one trajectory to a CSV file")
    p.add_argument("file")
    p.add_argument("--pi", type=_finite_float, default=None, help="effort level (required)")
    p.add_argument("--x0", default=None,
                   help="zeros | consensus:C | random:SEED[:NORM] | list:v1,v2,...")
    p.add_argument("--dt", type=_finite_float, default=None)
    p.add_argument("--t-max", type=_finite_float, default=None, dest="t_max")
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("equilibria", help="global equilibrium search at one effort level")
    p.add_argument("file")
    p.add_argument("--pi", type=_finite_float, default=None, help="effort level (required)")
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("sweep", help="effort sweep to a branch diagram CSV")
    p.add_argument("file")
    p.add_argument("--pi-min", type=_finite_float, default=None, dest="pi_min")
    p.add_argument("--pi-max", type=_finite_float, default=None, dest="pi_max")
    p.add_argument("--pi-step", type=_finite_float, default=None, dest="pi_step")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None, help="also write an SVG scatter here")
    p.add_argument("--svg-coord", type=int, default=None, dest="svg_coord",
                   help="state coordinate plotted in the SVG (0-based)")
    common(p)

    p = sub.add_parser("normal-form", help="print the reduced-map coefficients")
    p.add_argument("file")
    common(p)
    return parser


def _read_config(path, defaults, parser):
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in defaults:
            parser.error(f"config line {lineno}: unknown key '{key}'")
        try:
            out[key] = _TYPES[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"config line {lineno}: bad value for '{key}'")
    return out


def _resolve(args, parser):
    defaults = _DEFAULTS[args.command]
    cfg = _read_config(args.config, defaults, parser) if args.config else {}
    resolved = {}
    for key, default in defaults.items():
        given = getattr(args, key, None)
        resolved[key] = given if given is not None else cfg.get(key, default)
    return resolved


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_manifest(out_dir, command, resolved, extra):
    entries = {"command": command, **resolved, **extra}
    path = os.path.join(out_dir, f"{command}.manifest")
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={_fmt_value(entries[key])}\n")
    return path


def _parse_x0(spec: str, n: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(n)
    if spec.startswith("consensus:"):
        return float(spec.split(":", 1)[1]) * np.ones(n)
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad start spec '{spec}'")
        rng = np.random.default_rng(int(parts[1]))
        x = rng.uniform(-1.0, 1.0, n)
        norm = float(parts[2]) if len(parts) == 3 else 1.0
        peak = np.abs(x).max()
        return x * (norm / peak) if peak > 0 else x
    if spec.startswith("list:"):
        vals = [float(v) for v in spec[len("list:"):].split(",")]
        if len(vals) != n:
            raise ValueError(f"start vector has {len(vals)} entries, instance has {n}")
        return np.array(vals)
    raise ValueError(f"bad start spec '{spec}'")


def _out_path(out_dir, name) -> str:
    return os.path.join(out_dir, name)


def _cmd_generate(resolved, out_dir, parser, args):
    if resolved["n"] < 2:
        parser.error("n must be at least 2")
    if not 0.0 < resolved["p2"] <= 1.0:
        parser.error("p2 must be in (0, 1]")
    if not 0.0 <= resolved["p3"] <= 1.0:
        parser.error("p3 must be in [0, 1]")
    if resolved["alpha"] < 0.0:
        parser.error("alpha must be nonnegative")
    g = random_instance(resolved["n"], resolved["p2"], resolved["p3"],
                        resolved["alpha"], resolved["seed"])
    path = _out_path(out_dir, resolved["out"])
    save(g, path)
    print(f"wrote {path}")
    return 0


def _cmd_validate(resolved, out_dir, parser, args):
    with open(args.file) as fh:
        text = fh.read()
    a2, b, header_alpha = parse_arrays(text)
    report = validation_report(a2, b)
    failed = False
    for check in report:
        if check.passed:
            print(f"ok   {check.name}")
        else:
            failed = True
            print(f"FAIL {check.name}: {check.detail}")
    if failed:
        return 1
    # consistency of the stored ratio against the matrices
    from_text(text)
    print("all assumptions hold")
    return 0


def _cmd_thresholds(resolved, out_dir, parser, args):
    g = load(args.file)
    t = thresholds(g)
    if g.alpha is not None:
        star, _ = pi1_star(g.alpha)
        t = with_pi1_star(t, star)
    sys.stdout.write(thresholds_text(t))
    return 0


def _cmd_simulate(resolved, out_dir, parser, args):
    if resolved["pi"] is None:
        parser.error("--pi is required")
    g = load(args.file)
    s = SystemInstance(graph=g, psi=tanh_family(), pi=resolved["pi"])
    try:
        x0 = _parse_x0(resolved["x0"], g.n)
    except ValueError as exc:
        parser.error(str(exc))
    traj = integrate(s, x0, dt=resolved["dt"], t_max=resolved["t_max"])
    path = _out_path(out_dir, resolved["out"])
    write_trajectory_csv(traj, path)
    print(f"wrote {path} converged={traj.converged} "
          f"final_residual={traj.final_residual:.3e}")
    return 0


def _cmd_equilibria(resolved, out_dir, parser, args):
    if resolved["pi"] is None:
        parser.error("--pi is required")
    g = load(args.file)
    eqs = find_all(SystemInstance(graph=g, psi=tanh_family(), pi=resolved["pi"]))
    path = _out_path(out_dir, resolved["out"])
    write_equilibria_csv(eqs, path)
    print(f"wrote {path} count={len(eqs)}")
    return 0


def _cmd_sweep(resolved, out_dir, parser, args):
    g = load(args.file)
    try:
        grid = make_grid(resolved["pi_min"], resolved["pi_max"], resolved["pi_step"])
    except ValueError as exc:
        parser.error(str(exc))
    if grid.size == 0:
        parser.error("empty grid")
    result = sweep(g, tanh_family(), grid, workers=resolved["workers"])
    path = _out_path(out_dir, resolved["out"])
    write_diagram_csv(result, path)
    line = f"wrote {path} branches={len(result.branches)}"
    if result.bistability is not None:
        lo, hi = result.bistability
        line += f" bistability=({lo:.6g},{hi:.6g})"
    if resolved["svg"] is not None:
        svg_path = _out_path(out_dir, resolved["svg"])
        write_diagram_svg(result, svg_path, coord=resolved["svg_coord"])
        line += f" svg={svg_path}"
    print(line)
    return 0


def _cmd_normal_form(resolved, out_dir, parser, args):
    g = load(args.file)
    kappa1, kappa2 = normal_form_coeffs(g)
    print(f"kappa1={format(kappa1, '.17g')}")
    print(f"kappa2={format(kappa2, '.17g')}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "thresholds": _cmd_thresholds,
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "sweep": _cmd_sweep,
    "normal-form": _cmd_normal_form,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out_dir or os.environ.get(OUT_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    resolved = _resolve(args, parser)
    extra = {"out_dir": out_dir}
    if hasattr(args, "file"):
        extra["file"] = args.file
    _write_manifest(out_dir, args.command, resolved, extra)
    try:
        return _HANDLERS[args.command](resolved, out_dir, parser, args)
    except (HyperdecideError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
