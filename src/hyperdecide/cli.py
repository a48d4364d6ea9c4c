"""Command line front end.

Subcommands: generate, validate, thresholds, simulate, equilibria, sweep,
normal-form. Each option is declared once, in ``_COMMANDS``; its flag, config
key, default and valid range all come from there. A run that succeeds ends
by writing a manifest (sorted key=value lines of the fully resolved
configuration) into the output directory; all CSV output is byte-identical
for a fixed manifest. Equilibrium searches and sweeps pin numpy's OpenBLAS
to one thread; where no pin symbol is found, the BLAS thread count can move
a solve's last bits.

Configuration precedence: explicit flags, then --config file entries,
then built-in defaults. The output directory comes from --out-dir, the
HYPERDECIDE_OUT environment variable, or the working directory.

Exit codes: 0 success, 1 validation or numeric failure, 2 usage, including
any value outside its option's range (inf and nan never pass).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np

from .errors import HyperdecideError
from .nonlinearity import tanh_family
from .hypergraph import (MAX_AGENTS, _from_parsed, load, parse_arrays, random_instance, save,
                         validation_report)
from .dynamics import DT, T_MAX, SystemInstance, _check_start, integrate, write_trajectory_csv
from .equilibria import find_all, normal_form_coeffs, pi1_star, write_equilibria_csv
from .bifurcation import (PI_MAX, PI_MIN, PI_STEP, make_grid, sweep, write_diagram_csv,
                          write_diagram_svg)
from .spectra import thresholds, thresholds_text

__all__ = ["main", "build_parser"]

OUT_ENV = "HYPERDECIDE_OUT"


def _number(kind, low, high=math.inf, strict=False):
    """Converter for one flag or config value: ``kind(text)``, finite, at
    most ``high`` and at least ``low`` (above it when ``strict``)."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        inside = low < value <= high if strict else low <= value <= high
        if not (inside and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} in {'(' if strict else '['}{low:g}, {high:g}], "
                f"got '{text}'")
        return value
    return convert


_POSITIVE = _number(float, 0.0, strict=True)


# An option: its converter (type and valid range), default, whether a value
# must be given, and help text. A command: its handler, help text, options,
# and whether it takes the instance file as its positional argument.
_Option = namedtuple("_Option", "convert default required help", defaults=(None, False, None))
_Command = namedtuple("_Command", "handler help options file", defaults=(True,))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path, options, parser):
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
        if key not in options:
            parser.error(f"config line {lineno}: unknown key '{key}'")
        try:
            out[key] = options[key].convert(value.strip())
        except argparse.ArgumentTypeError as exc:
            parser.error(f"config line {lineno}: bad value for '{key}': {exc}")
    return out


def _resolve(args, parser):
    """The run's manifest entries: each option of the command (flag, else config
    entry, else default), the instance file and the output directory."""
    command = _COMMANDS[args.command]
    cfg = _read_config(args.config, command.options, parser) if args.config else {}
    run = {"out_dir": args.out_dir or os.environ.get(OUT_ENV) or "."}
    if command.file:
        run["file"] = args.file
    for key, opt in command.options.items():
        given = getattr(args, key)
        run[key] = given if given is not None else cfg.get(key, opt.default)
        if run[key] is None and opt.required:
            parser.error(f"{_flag(key)} is required")
    return run


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_manifest(command, run):
    entries = {"command": command, **run}
    with open(os.path.join(run["out_dir"], f"{command}.manifest"), "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={_fmt_value(entries[key])}\n")


def _parse_x0(spec: str, n: int) -> np.ndarray:
    if spec == "zeros":
        x = np.zeros(n)
    elif spec.startswith("consensus:"):
        x = float(spec.split(":", 1)[1]) * np.ones(n)
    elif spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad start spec '{spec}'")
        rng = np.random.default_rng(int(parts[1]))
        x = rng.uniform(-1.0, 1.0, n)
        norm = float(parts[2]) if len(parts) == 3 else 1.0
        peak = np.abs(x).max()
        x = x * (norm / peak) if peak > 0 else x
    elif spec.startswith("list:"):
        x = np.array([float(v) for v in spec[len("list:"):].split(",")])
        if x.size != n:
            raise ValueError(f"start vector has {x.size} entries, instance has {n}")
    else:
        raise ValueError(f"bad start spec '{spec}'")
    _check_start(x)
    return x


def _cmd_generate(run, parser):
    g = random_instance(run["n"], run["p2"], run["p3"], run["alpha"], run["seed"])
    path = os.path.join(run["out_dir"], run["out"])
    save(g, path)
    print(f"wrote {path}")
    return 0


def _cmd_validate(run, parser):
    with open(run["file"]) as fh:
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
    _from_parsed(text, a2, b, header_alpha)  # the header's ratio against the matrices
    print("all assumptions hold")
    return 0


def _cmd_thresholds(run, parser):
    g = load(run["file"])
    t = thresholds(g)
    if g.alpha is not None:
        t = replace(t, pi1_star=pi1_star(g.alpha)[0])  # Thresholds re-checks the ordering
    sys.stdout.write(thresholds_text(t))
    return 0


def _system(run, parser, pi):
    """The instance file's system at effort ``pi``; a level too large for the
    finite blow-up guards is a usage error."""
    g = load(run["file"])
    try:
        return SystemInstance(graph=g, psi=tanh_family(), pi=pi)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_simulate(run, parser):
    s = _system(run, parser, run["pi"])
    try:
        x0 = _parse_x0(run["x0"], s.graph.n)
    except ValueError as exc:
        parser.error(str(exc))
    traj = integrate(s, x0, dt=run["dt"], t_max=run["t_max"])
    path = os.path.join(run["out_dir"], run["out"])
    write_trajectory_csv(traj, path)
    print(f"wrote {path} converged={traj.converged} "
          f"final_residual={traj.final_residual:.3e}")
    return 0


def _cmd_equilibria(run, parser):
    eqs = find_all(_system(run, parser, run["pi"]))
    path = os.path.join(run["out_dir"], run["out"])
    write_equilibria_csv(eqs, path)
    print(f"wrote {path} count={len(eqs)}")
    return 0


def _cmd_sweep(run, parser):
    try:
        grid = make_grid(run["pi_min"], run["pi_max"], run["pi_step"])
    except ValueError as exc:
        parser.error(str(exc))
    g = _system(run, parser, float(grid[-1])).graph  # the largest level is refused up front
    if run["svg_coord"] >= g.n:
        parser.error(f"--svg-coord must be below the instance size {g.n}")
    result = sweep(g, tanh_family(), grid)
    path = os.path.join(run["out_dir"], run["out"])
    write_diagram_csv(result, path)
    line = f"wrote {path} branches={len(result.branches)}"
    if result.bistability is not None:
        lo, hi = result.bistability
        line += f" bistability=({lo:.6g},{hi:.6g})"
    if run["svg"] is not None:
        svg_path = os.path.join(run["out_dir"], run["svg"])
        write_diagram_svg(result, svg_path, coord=run["svg_coord"])
        line += f" svg={svg_path}"
    print(line)
    return 0


def _cmd_normal_form(run, parser):
    g = load(run["file"])
    kappa1, kappa2 = normal_form_coeffs(g)
    print(f"kappa1={format(kappa1, '.17g')}")
    print(f"kappa2={format(kappa2, '.17g')}")
    return 0


_COMMANDS = {
    "generate": _Command(_cmd_generate, "draw a random connected instance", {
        "n": _Option(_number(int, 2, MAX_AGENTS), 5),
        "p2": _Option(_number(float, 0.0, 1.0, strict=True), 0.8, help="pairwise edge probability"),
        "p3": _Option(_number(float, 0.0, 1.0), 0.2, help="triple probability"),
        "alpha": _Option(_number(float, 0.0), 1.0, help="2-interaction ratio"),
        "seed": _Option(_number(int, 0), 1),
        "out": _Option(str, "instance.txt"),
    }, file=False),
    "validate": _Command(_cmd_validate,
                         "check a stored instance against the model assumptions", {}),
    "thresholds": _Command(_cmd_thresholds, "print the spectral effort thresholds", {}),
    "simulate": _Command(_cmd_simulate, "integrate one trajectory to a CSV file", {
        "pi": _Option(_POSITIVE, required=True, help="effort level (required)"),
        "x0": _Option(str, "zeros",
                      help="zeros | consensus:C | random:SEED[:NORM] | list:v1,v2,..."),
        "dt": _Option(_POSITIVE, DT),
        "t_max": _Option(_POSITIVE, T_MAX),
        "out": _Option(str, "trajectory.csv"),
    }),
    "equilibria": _Command(_cmd_equilibria, "global equilibrium search at one effort level", {
        "pi": _Option(_POSITIVE, required=True, help="effort level (required)"),
        "out": _Option(str, "equilibria.csv"),
    }),
    "sweep": _Command(_cmd_sweep, "effort sweep to a branch diagram CSV", {
        "pi_min": _Option(_POSITIVE, PI_MIN),
        "pi_max": _Option(_POSITIVE, PI_MAX),
        "pi_step": _Option(_POSITIVE, PI_STEP),
        "out": _Option(str, "diagram.csv"),
        "svg": _Option(str, help="also write an SVG scatter here"),
        "svg_coord": _Option(_number(int, 0), 0,
                             help="state coordinate plotted in the SVG (0-based)"),
    }),
    "normal-form": _Command(_cmd_normal_form, "print the reduced-map coefficients", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdecide",
        description="Collective decision dynamics on networks with pairwise "
                    "and three-way interactions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.file:
            p.add_argument("file")
        for key, opt in command.options.items():
            p.add_argument(_flag(key), type=opt.convert, help=opt.help)
        p.add_argument("--out-dir", help=f"output directory (default: ${OUT_ENV} or '.')")
        p.add_argument("--config", help="key=value file supplying defaults (flags win)")
        p.set_defaults(command_parser=p)  # usage errors after parsing show p's usage
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _resolve(args, args.command_parser)
    os.makedirs(run["out_dir"], exist_ok=True)
    try:
        code = _COMMANDS[args.command].handler(run, args.command_parser)
    except (HyperdecideError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        _write_manifest(args.command, run)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
