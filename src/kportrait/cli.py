"""Command-line interface.

Subcommands: classify, hopf, cycle, portrait, scan.  Exit codes: 0 success,
2 invalid arguments (with usage on stderr), 1 analysis failure.

:func:`main` reads an argv that starts with a command name and goes on in whole
``--name value`` and ``--flag`` tokens straight into that command's namespace;
any other argv, help and usage errors included, goes to the full argparse tree.
On one 2-vCPU x86 machine (CPython 3.11) the direct read takes about 4 us where
``parse_known_args`` took about 24 us, and the median ``classify`` or ``hopf``
call fell from 84 to 58 us.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .model import AnalysisError, IllConditionedError, IntegrationFailure, NoReturnError
from .model import Params, _check_parameter, _to_float, classify_case, discriminants, finite_singular_points

# The names the commands take from local, numerics and portrait.  They stay
# attributes of this module, which tests and the bench tracer replace, but are
# bound only when a command first needs them or on attribute access, so
# classify runs on model alone.
_LAZY = {
    "local": ("hopf_analysis", "lyapunov_procedural"),
    "numerics": ("GridSpec", "IntegratorConfig", "conjecture_scan", "detect_limit_cycle", "scan_to_csv"),
    "portrait": ("build_portrait", "render_svg", "write_report"),
}


def _load(module: str) -> None:
    """Import ``module`` and bind its names of ``_LAZY`` here; a name already
    bound, such as a stub set on this module, is kept."""
    # __import__ rather than importlib.import_module, so -X importtime lists the module
    home = __import__(f"{__package__}.{module}", fromlist=_LAZY[module])
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Built once per process.  Besides the tree, which parses every argv that
# _read_canonical declines, it returns the name -> sub-parser map of its commands,
# whose option tables _read_canonical reads in place of a parse.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="kportrait",
        description=(
            "Classify and render the global dynamics of the cubic predator-prey "
            "system x' = x(-x^2 + (1-b)x - y + b), y' = y((c-delta)x - delta*b) "
            "on the positive quarter of the Poincare disc."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="case, region and portrait letter")
    cls.add_argument("--b", required=True)
    cls.add_argument("--c", required=True)
    cls.add_argument("--delta", required=True)
    cls.add_argument(
        "--exact",
        action="store_true",
        help="treat inputs as exact rationals (fractions like 3/10 are accepted)",
    )
    cls.set_defaults(func=_cmd_classify)

    hop = sub.add_parser("hopf", help="Hopf data at the critical parameter b0")
    hop.add_argument("--c", required=True)
    hop.add_argument("--delta", required=True)
    hop.set_defaults(func=_cmd_hopf)

    cyc = sub.add_parser("cycle", help="limit-cycle detection via the return map")
    cyc.add_argument("--b", required=True)
    cyc.add_argument("--c", required=True)
    cyc.add_argument("--delta", required=True)
    cyc.set_defaults(func=_cmd_cycle)

    por = sub.add_parser("portrait", help="build the portrait; write SVG and JSON")
    por.add_argument("--b", required=True)
    por.add_argument("--c", required=True)
    por.add_argument("--delta", required=True)
    por.add_argument("--out", help="SVG output path")
    por.add_argument("--report", help="JSON report output path")
    por.set_defaults(func=_cmd_portrait)

    scn = sub.add_parser("scan", help="no-cycle evidence scan over a parameter grid")
    scn.add_argument("--grid", required=True, help="bmin:bmax:n,cmin:cmax:n,dmin:dmax:n")
    scn.add_argument("--jobs", type=int, default=1)
    scn.add_argument("--out", required=True, help="CSV output path")
    scn.set_defaults(func=_cmd_scan)
    return parser, sub.choices


def _parse_value(parser: argparse.ArgumentParser, name: str, text: str, exact: bool):
    """The number ``text``, held to the rule of :class:`Params`: finite and positive."""
    try:
        value = Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"argument --{name}: invalid number {text!r}")
    try:
        _check_parameter(name, value)
    except ValueError as err:
        parser.error(str(err))
    return value


def _params(parser: argparse.ArgumentParser, ns: argparse.Namespace, exact: bool = False) -> Params:
    return Params(*(_parse_value(parser, name, getattr(ns, name), exact) for name in ("b", "c", "delta")))


def _cmd_classify(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    p = _params(parser, ns, exact=ns.exact)
    label = classify_case(p)
    disc = discriminants(p)
    points = finite_singular_points(p)
    try:  # the float image of an exact A or B may leave the range of doubles
        a, b = _to_float(disc.A), _to_float(disc.B)
    except OverflowError:
        raise AnalysisError("the float image of A or B leaves the range of doubles") from None
    print(
        f"case {label.case} (region {label.region}): portrait {label.portrait} [{label.status}]"
    )
    if label.boundary:
        print("boundary: " + ", ".join(label.boundary))
    print(f"A = {disc.A} ({a!r})")
    print(f"B = {disc.B} ({b!r})")
    for q in points:
        x, y = q.location
        print(f"{q.name}: {q.kind} at ({_to_float(x)!r}, {_to_float(y)!r})")
    return 0


def _cmd_hopf(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    _load("local")
    c = _parse_value(parser, "c", ns.c, False)
    d = _parse_value(parser, "delta", ns.delta, False)
    hd = hopf_analysis(c, d)
    try:
        ell1_proc, warning = lyapunov_procedural(c, d), None
    except IllConditionedError as err:
        # a failed cross-check leaves the closed forms standing, as a disagreement does
        ell1_proc, warning = None, f"the from-scratch ell1 cross-check failed: {err}"
    b0 = float(hd.b0)
    print(f"b0 = {b0!r}")
    print(f"dmu/db(b0) = {hd.dmu_db_at_b0!r}")
    print(f"omega(b0) = {hd.omega_at(b0)!r}")
    print(f"g20 = {hd.g20.real!r} + {hd.g20.imag!r}i")
    print(f"g11 = {hd.g11.real!r} + {hd.g11.imag!r}i")
    print(f"g21 = {hd.g21.real!r} + {hd.g21.imag!r}i")
    print(f"ell1 = {hd.ell1!r}")
    if ell1_proc is not None:
        print(f"ell1 (from-scratch cross-check) = {ell1_proc!r}")
        # 1e-8 relative is the agreement the tests hold the two routes to
        if abs(hd.ell1 - ell1_proc) > 1e-8 * max(abs(hd.ell1), abs(ell1_proc)):
            warning = "the two ell1 routes disagree beyond 1e-8 relative"
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_cycle(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    _load("numerics")
    p = _params(parser, ns)
    res = detect_limit_cycle(p)
    if res.found:
        print("cycle found")
        print(f"section_x = {res.section_x!r}")
        print(f"period = {res.period!r}")
        print(f"multiplier = {res.multiplier!r}")
        print(f"encloses_P2 = {res.encloses_p2}")
    else:
        print(f"no cycle: {res.detail}")
    return 0


def _cmd_portrait(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    _load("portrait")
    p = _params(parser, ns)
    report = build_portrait(p)
    print(
        f"portrait {report.label.portrait} [{report.label.status}] "
        f"(case {report.label.case}, region {report.label.region})"
    )
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(render_svg(report))
        print(f"svg written to {ns.out}")
    if ns.report:
        with open(ns.report, "w") as fh:
            fh.write(write_report(report))
        print(f"report written to {ns.report}")
    return 0


def _parse_grid(parser: argparse.ArgumentParser, text: str) -> GridSpec:
    axes = text.split(",")
    if len(axes) != 3:
        parser.error("grid needs three axes: bmin:bmax:n,cmin:cmax:n,dmin:dmax:n")
    spec = []
    for ax in axes:
        parts = ax.split(":")
        if len(parts) != 3:
            parser.error(f"bad grid axis {ax!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            parser.error(f"bad grid axis {ax!r}")
        # hi * n bounds every intermediate value of the axis, so it must be finite
        if n < 1 or not 0 < lo <= hi <= sys.float_info.max / n:
            parser.error(f"bad grid axis {ax!r}")
        spec.append((lo, hi, n))
    return GridSpec(b=spec[0], c=spec[1], delta=spec[2])


def _cmd_scan(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    _load("numerics")
    grid = _parse_grid(parser, ns.grid)
    if ns.jobs < 1:
        parser.error("--jobs must be at least 1")
    rows = conjecture_scan(grid, IntegratorConfig(), jobs=ns.jobs)
    scan_to_csv(rows, ns.out)
    counts: dict[str, int] = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "no cells in scope"
    print(f"{len(rows)} cells scanned ({summary}); csv written to {ns.out}")
    return 0


def _read_canonical(command: argparse.ArgumentParser, args: list[str]) -> argparse.Namespace | None:
    """The namespace ``command.parse_known_args(args)`` builds when every token is a whole
    option string given once, each option with a value has no type converter and a value that
    is not empty and starts with no "-", and no required option is missing; None otherwise."""
    given: dict[str, object] = {}
    tokens = iter(args)
    for token in tokens:
        action = command._option_string_actions.get(token)
        if action is None or action.dest in given:
            return None
        if isinstance(action, argparse._StoreConstAction):  # --exact
            given[action.dest] = action.const
        elif type(action) is argparse._StoreAction and action.type is None and action.nargs is None:
            value = given[action.dest] = next(tokens, "")
            if value[:1] in ("", "-"):
                return None
        else:  # help, and --jobs with its int converter
            return None
    actions = command._actions
    if any(a.required and a.dest not in given for a in actions):
        return None
    defaults = {a.dest: a.default for a in actions if argparse.SUPPRESS not in (a.dest, a.default)}
    return argparse.Namespace(**{**defaults, **command._defaults, **given})


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(args[0]) if args else None
    try:
        if command is None or (ns := _read_canonical(command, args[1:])) is None:
            ns = parser.parse_args(args)
        return ns.func(parser, ns)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (AnalysisError, IllConditionedError, NoReturnError, IntegrationFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
