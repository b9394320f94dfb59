"""Command-line interface.

Subcommands: classify, hopf, cycle, portrait, scan.  Exit codes: 0 success,
2 invalid arguments (with usage on stderr), 1 analysis failure.

Each command's options are declared once, in ``_COMMANDS``.  :func:`main` reads an argv
that starts with a command name and goes on in whole ``--name value`` and ``--flag`` tokens
from that table into the command's namespace, importing no argparse; any other argv, help
and usage errors included, goes to the argparse tree built from the same table on demand.
``classify`` and ``hopf`` build their answer and write it with one ``print``, the warning of
``hopf`` after it on stderr.  On one 2-vCPU x86 machine (CPython 3.11, bytecode caching off,
medians of 21 fresh processes) the import of this module and one ``classify`` took 25 ms, against
52 ms with the tree always built and ``model``'s records then dataclasses, and the whole process
242 ms against 258 ms.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from types import SimpleNamespace

from .model import AnalysisError, IllConditionedError, IntegrationFailure, NoReturnError
from .model import Params, _check_parameter, _to_float, classify_case, discriminants, finite_singular_points

# The names the commands take from local, numerics and portrait.  They stay
# attributes of this module, which tests and the bench tracer replace, but are
# bound only when a command first needs them or on attribute access, so
# classify runs on model alone.
_LAZY = {
    "local": ("hopf_analysis", "lyapunov_procedural"),
    "numerics": ("GridSpec", "conjecture_scan", "detect_limit_cycle", "scan_to_csv"),
    "portrait": ("build_portrait", "render_svg", "write_report"),
}


def _load(module: str) -> None:
    """Import ``module`` and bind its names of ``_LAZY`` here, unless all are bound; a name
    already bound, such as a stub set on this module, is kept, and a deleted one bound again."""
    names, here = _LAZY[module], globals()
    if not all(map(here.__contains__, names)):
        # __import__ rather than importlib.import_module, so -X importtime lists the module
        home = __import__(f"{__package__}.{module}", fromlist=names)
        for name in names:
            here.setdefault(name, getattr(home, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_value(name: str, text: str, exact: bool):
    """The number ``text``, held to the rule of :class:`Params`: finite and positive."""
    try:
        value = Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError):
        _build_parser().error(f"argument --{name}: invalid number {text!r}")
    try:
        _check_parameter(name, value)
    except ValueError as err:
        _build_parser().error(str(err))
    return value


def _params(ns: SimpleNamespace, exact: bool = False) -> Params:
    return Params(_parse_value("b", ns.b, exact), _parse_value("c", ns.c, exact), _parse_value("delta", ns.delta, exact))


def _cmd_classify(ns: SimpleNamespace) -> int:
    p = _params(ns, exact=ns.exact)
    label = classify_case(p)
    disc = discriminants(p)
    points = finite_singular_points(p)
    try:  # the float image of an exact A or B may leave the range of doubles
        a, b = _to_float(disc.A), _to_float(disc.B)
    except OverflowError:
        raise AnalysisError("the float image of A or B leaves the range of doubles") from None
    text = f"case {label.case} (region {label.region}): portrait {label.portrait} [{label.status}]\n"
    if label.boundary:
        text += f"boundary: {', '.join(label.boundary)}\n"
    text += f"A = {disc.A} ({a!r})\nB = {disc.B} ({b!r})"
    text += "".join([f"\n{q.name}: {q.kind} at ({_to_float(q.location[0])!r}, {_to_float(q.location[1])!r})" for q in points])
    print(text)
    return 0


def _cmd_hopf(ns: SimpleNamespace) -> int:
    _load("local")
    c = _parse_value("c", ns.c, False)
    d = _parse_value("delta", ns.delta, False)
    hd = hopf_analysis(c, d)
    try:
        ell1_proc, warning = lyapunov_procedural(c, d), None
    except IllConditionedError as err:
        # a failed cross-check leaves the closed forms standing, as a disagreement does
        ell1_proc, warning = None, f"the from-scratch ell1 cross-check failed: {err}"
    text = (f"b0 = {float(hd.b0)!r}\ndmu/db(b0) = {hd.dmu_db_at_b0!r}\nomega(b0) = {hd.omega!r}\n"
            f"g20 = {hd.g20.real!r} + {hd.g20.imag!r}i\ng11 = {hd.g11.real!r} + {hd.g11.imag!r}i\n"
            f"g21 = {hd.g21.real!r} + {hd.g21.imag!r}i\nell1 = {hd.ell1!r}")
    if ell1_proc is not None:
        text += f"\nell1 (from-scratch cross-check) = {ell1_proc!r}"
        # 1e-8 relative is the agreement the tests hold the two routes to
        if abs(hd.ell1 - ell1_proc) > 1e-8 * max(abs(hd.ell1), abs(ell1_proc)):
            warning = "the two ell1 routes disagree beyond 1e-8 relative"
    print(text)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_cycle(ns: SimpleNamespace) -> int:
    _load("numerics")
    p = _params(ns)
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


def _cmd_portrait(ns: SimpleNamespace) -> int:
    _load("portrait")
    p = _params(ns)
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


def _parse_grid(text: str) -> GridSpec:
    axes = text.split(",")
    if len(axes) != 3:
        _build_parser().error("grid needs three axes: bmin:bmax:n,cmin:cmax:n,dmin:dmax:n")
    spec = []
    for ax in axes:
        parts = ax.split(":")
        if len(parts) != 3:
            _build_parser().error(f"bad grid axis {ax!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            _build_parser().error(f"bad grid axis {ax!r}")
        # hi * n bounds every intermediate value of the axis, so it must be finite
        if n < 1 or not 0 < lo <= hi <= sys.float_info.max / n:
            _build_parser().error(f"bad grid axis {ax!r}")
        spec.append((lo, hi, n))
    return GridSpec(b=spec[0], c=spec[1], delta=spec[2])


def _cmd_scan(ns: SimpleNamespace) -> int:
    _load("numerics")
    grid = _parse_grid(ns.grid)
    if ns.jobs < 1:
        _build_parser().error("--jobs must be at least 1")
    rows = conjecture_scan(grid, ns.jobs)
    scan_to_csv(rows, ns.out)
    counts: dict[str, int] = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "no cells in scope"
    print(f"{len(rows)} cells scanned ({summary}); csv written to {ns.out}")
    return 0


# Each command's handler, help line and options, in the order of its help text: the
# keyword arguments of argparse's add_argument for each option string.  _read_canonical
# reads an argv from this table, and _build_parser builds the argparse tree from it.
_REQUIRED = {"required": True}
_TRIPLE = {"--b": _REQUIRED, "--c": _REQUIRED, "--delta": _REQUIRED}
_COMMANDS = {
    "classify": (_cmd_classify, "case, region and portrait letter", {
        **_TRIPLE,
        "--exact": {"action": "store_true", "help": "treat inputs as exact rationals (fractions like 3/10 are accepted)"},
    }),
    "hopf": (_cmd_hopf, "Hopf data at the critical parameter b0", {"--c": _REQUIRED, "--delta": _REQUIRED}),
    "cycle": (_cmd_cycle, "limit-cycle detection via the return map", _TRIPLE),
    "portrait": (_cmd_portrait, "build the portrait; write SVG and JSON", {
        **_TRIPLE, "--out": {"help": "SVG output path"}, "--report": {"help": "JSON report output path"},
    }),
    "scan": (_cmd_scan, "no-cycle evidence scan over a parameter grid", {
        "--grid": {"required": True, "help": "bmin:bmax:n,cmin:cmax:n,dmin:dmax:n"},
        "--jobs": {"type": int, "default": 1},
        "--out": {"required": True, "help": "CSV output path"},
    }),
}


# Built once per process, and only for an argv that _read_canonical declines or
# a usage error, so a canonical command imports no argparse.
@functools.cache
def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="kportrait",
        description=(
            "Classify and render the global dynamics of the cubic predator-prey "
            "system x' = x(-x^2 + (1-b)x - y + b), y' = y((c-delta)x - delta*b) "
            "on the positive quarter of the Poincare disc."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, spec in options.items():
            command.add_argument(option, **spec)
    return parser


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that the parse of ``argv`` by :func:`_build_parser`'s tree holds when
    ``argv`` is a command followed by whole option strings, each given once, each option
    with a value has no type converter and a value that is not empty and starts with no
    "-", and no required option is missing; None otherwise."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    given = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        spec = options.get(token)
        if spec is None or token[2:] in given or "type" in spec:  # --jobs with its int converter
            return None
        if "action" in spec:  # --exact
            given[token[2:]] = True
        else:
            value = given[token[2:]] = next(tokens, "")
            if value[:1] in ("", "-"):
                return None
    for option, spec in options.items():
        if option[2:] not in given:
            if spec.get("required"):
                return None
            given[option[2:]] = spec.get("default", False if "action" in spec else None)
    return SimpleNamespace(**given)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        if (ns := _read_canonical(args)) is None:
            ns = SimpleNamespace(**vars(_build_parser().parse_args(args)))
        return _COMMANDS[ns.command][0](ns)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (AnalysisError, IllConditionedError, NoReturnError, IntegrationFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
