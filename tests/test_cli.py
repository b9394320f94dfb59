"""Command-line interface: subcommands, exit codes, file outputs."""

import csv
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import kportrait
from kportrait.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_ok(capsys):
    code, out, _ = run(capsys, "classify", "--b", "2", "--c", "1", "--delta", "1")
    assert code == 0
    assert "case 1" in out and "region I" in out and "portrait A" in out
    assert "P1: stable-node" in out


def test_classify_exact_fractions(capsys):
    code, out, _ = run(
        capsys, "classify", "--exact", "--b", "3/5", "--c", "1", "--delta", "1/4"
    )
    assert code == 0
    assert "case 7" in out and "boundary: A-zero" in out


def test_repeated_calls_in_one_process_print_the_same(capsys):
    args = ("classify", "--exact", "--b", "3/5", "--c", "1", "--delta", "1/4")
    first = run(capsys, *args)
    assert run(capsys, "classify", "--b", "zebra", "--c", "1", "--delta", "1")[0] == 2
    assert run(capsys, "hopf", "--c", "1", "--delta", "0.25")[0] == 0
    assert run(capsys, *args) == first


class _Stream:
    """A text stream that logs each ``write`` call, with its name, into a shared list."""

    def __init__(self, name: str, log: list) -> None:
        self.name, self.log = name, log

    def write(self, text: str) -> int:
        self.log.append((self.name, text))
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv, warns",
    [
        ("classify --b 0.5 --c 1 --delta 0.25", False),
        ("classify --exact --b 3/10 --c 1 --delta 1/4", False),
        ("classify --exact --b 3/5 --c 1 --delta 1/4", False),  # with a boundary: line
        ("hopf --c 1 --delta 0.25", False),
        ("hopf --c 1e60 --delta 1", True),
    ],
)
def test_each_command_writes_its_answer_once(monkeypatch, capsys, argv, warns):
    # one print: the block, then its newline; hopf's warning follows on stderr
    code, out, err = run(capsys, *argv.split())
    log: list = []
    monkeypatch.setattr(sys, "stdout", _Stream("out", log))
    monkeypatch.setattr(sys, "stderr", _Stream("err", log))
    assert main(argv.split()) == code == 0
    want = [("out", out[:-1]), ("out", "\n")] + [("err", err[:-1]), ("err", "\n")] * warns
    assert log == want and err.startswith("warning:") == warns


def test_lazy_names_keep_a_stub_and_bind_a_deleted_name_again(monkeypatch, capsys):
    import kportrait.cli as cli
    import kportrait.local as local

    monkeypatch.setattr(cli, "hopf_analysis", lambda c, d: local.hopf_analysis(c, d)._replace(ell1=-1.0))
    monkeypatch.delattr(cli, "lyapunov_procedural", raising=False)
    code, out, _ = run(capsys, "hopf", "--c", "1", "--delta", "0.25")
    assert code == 0 and "ell1 = -1.0\n" in out
    assert cli.lyapunov_procedural is local.lyapunov_procedural


def test_classify_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "classify", "--b", "-1", "--c", "1", "--delta", "1")
    assert code == 2
    assert "usage" in err


def test_classify_rejects_garbage(capsys):
    code, _, err = run(capsys, "classify", "--b", "zebra", "--c", "1", "--delta", "1")
    assert code == 2
    assert "usage" in err


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "classify", "--b", "1", "--c", "1", "--delta", "1", "--frob")
    assert code == 2
    assert "usage" in err


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_hopf_output(capsys):
    code, out, _ = run(capsys, "hopf", "--c", "1", "--delta", "0.25")
    assert code == 0
    assert "b0 = 0.6" in out
    assert "ell1 = -0.12909944487358058" in out


def _rule_message(name, v):
    """The text of the parameter rule's ValueError, spelled out here rather than read from the code."""
    return f"{name} must be {'finite' if isinstance(v, float) and not math.isfinite(v) else 'positive'}, got {v!r}"


@pytest.mark.parametrize(
    "v",
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0, -1, Fraction(0), Fraction(-1, 3), 5e-324],
    ids=repr,
)
def test_each_route_holds_a_value_to_the_parameter_rule_with_one_message(capsys, v):
    # every entry point checks its parameters; a float that passes a shortcut there must pass
    # the full rule, and an invalid value fails it with the same text in the library and the CLI
    from kportrait import Params, hopf_analysis, lyapunov_procedural

    valid = v == 5e-324

    def outcome(call):
        try:
            call()
        except ValueError as err:  # AnalysisError, a subclass, is a verdict on a valid value
            if type(err) is ValueError:
                return str(err)
        return None

    calls = [
        ("b", lambda: Params(v, 1.0, 0.25)),
        ("c", lambda: Params(1.0, v, 0.25)),
        ("delta", lambda: Params(1.0, 1.0, v)),
        ("c", lambda: Params(1, v, 1)),
        ("c", lambda: hopf_analysis(v, 0.25)),
        ("delta", lambda: hopf_analysis(1.0, v)),
        ("c", lambda: lyapunov_procedural(v, 0.25)),
        ("delta", lambda: lyapunov_procedural(1.0, v)),
    ]
    for name, call in calls:
        assert outcome(call) == (None if valid else _rule_message(name, v)), name
    # classify reads a float in floats and a rational with --exact, hopf reads floats; a value
    # that starts with "-" goes as --name=value, which argparse reads as a value
    exact = not isinstance(v, float)
    text = str(v) if exact else repr(v)

    def argv(command, args):
        return [command, *(t for k, a in args.items() for t in ([f"--{k}={a}"] if a[0] == "-" else [f"--{k}", a]))]

    for name in ("b", "c", "delta"):
        checks = [(argv("classify", {"b": "0.5", "c": "1", "delta": "0.25", name: text}) + ["--exact"] * exact,
                   Fraction(text) if exact else v)]
        if name != "b":
            checks.append((argv("hopf", {"c": "1", "delta": "0.25", name: repr(float(v))}), float(v)))
        for args, parsed in checks:
            code, _, err = run(capsys, *args)
            if valid:
                assert code != 2, args
            else:
                assert code == 2 and "usage:" in err, args
                assert err.endswith(f"error: {_rule_message(name, parsed)}\n"), (args, err)


def test_hopf_analysis_failure_is_exit_1(capsys):
    code, _, err = run(capsys, "hopf", "--c", "0.25", "--delta", "1")
    assert code == 1
    assert "error:" in err


def test_ill_conditioned_cross_check_warns_and_exits_0(capsys):
    # trace^2 > 4 det at b0 in floats (the trace is rounding residue), so the
    # from-scratch route fails; the closed forms stand, as on a disagreement
    code, out, err = run(
        capsys, "hopf", "--c", "3.7802802784996394e+57", "--delta", "2.461851146874583e+47"
    )
    assert code == 0
    assert len(out.splitlines()) == 7 and "ell1 = -8.547609718335349e-45" in out and "cross-check" not in out
    assert err.count("\n") == 1 and err.startswith("warning:") and "no complex pair" in err


@pytest.mark.parametrize(
    "c, delta, warns",
    [("1e60", "1", True), ("1", "0.25", False)],
)
def test_hopf_warns_when_ell1_routes_disagree(capsys, c, delta, warns):
    code, out, err = run(capsys, "hopf", "--c", c, "--delta", delta)
    assert code == 0
    assert "ell1 (from-scratch cross-check) = " in out
    if warns:
        assert err.count("\n") == 1 and err.startswith("warning:") and "ell1" in err
    else:
        assert err == ""


@pytest.mark.parametrize(
    "c, delta",
    [("nan", "1"), ("inf", "1"), ("1", "nan"), ("1", "inf"), ("0", "1"), ("1", "-1")],
)
def test_hopf_holds_c_and_delta_to_the_params_rule(capsys, c, delta):
    code, out, err = run(capsys, "hopf", "--c", c, "--delta", delta)
    assert code == 2
    assert out == "" and "usage" in err and ("finite" in err or "positive" in err)


def test_classify_float_overflow_is_exit_1(capsys):
    code, _, err = run(capsys, "classify", "--b", "1e200", "--c", "1e200", "--delta", "1e200")
    assert code == 1
    assert "error:" in err and "--exact" in err


@pytest.mark.parametrize(
    "args",
    [
        ("hopf", "--c", "1e200", "--delta", "1"),
        ("cycle", "--b", "1e-300", "--c", "1e200", "--delta", "1"),
        ("classify", "--b", "1e-300", "--c", "1e-300", "--delta", "1e-310"),
        # at b0, p = (-(c+delta)/(2 delta), i/(2 omega)) overflows; then omega does
        ("hopf", "--c", "2.6004607454220134e+53", "--delta", "2.7284730497909304e-263"),
        ("hopf", "--c", "2.961503700683393e+70", "--delta", "3.110359770482965e+58"),
        # a scale of the zero band underflows, so every value would read as a zero
        ("classify", "--b", "1e-200", "--c", "1e-200", "--delta", "1e-200"),
        ("classify", "--b", "1.1683229682558197e-122", "--c", "7.956599072006431e-142", "--delta", "2.3455979493381626e-215"),
        # B(b0) < 0 for every c > delta, yet in floats it overflows to nan or underflows to 0
        ("hopf", "--c", "1e120", "--delta", "1e119"),
        ("hopf", "--c", "1e-200", "--delta", "1e-201"),
    ],
)
def test_float_range_errors_are_exit_1(capsys, args):
    code, _, err = run(capsys, *args)
    assert code == 1
    assert err.startswith("error:") and "range of doubles" in err


# exact rationals whose float images, or those of A and B, leave the range of doubles
@pytest.mark.parametrize(
    "b, c, delta",
    [
        ("1/1" + "0" * 400, "1", "1/4"),  # b underflows to 0.0
        ("3/10", "1" + "0" * 400, "1/4"),  # c overflows
        ("1", "1" + "0" * 300, "1"),  # c fits a double, but B ~ c^4 does not
    ],
    ids=["b-underflows", "c-overflows", "B-overflows"],
)
def test_exact_classify_out_of_float_range_is_exit_1(capsys, b, c, delta):
    code, out, err = run(capsys, "classify", "--exact", "--b", b, "--c", c, "--delta", delta)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "range of doubles" in err


def test_programming_errors_raise(monkeypatch):
    import kportrait.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "classify_case", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["classify", "--b", "2", "--c", "1", "--delta", "1"])


def test_cycle_found(capsys):
    code, out, _ = run(capsys, "cycle", "--b", "0.5", "--c", "1", "--delta", "0.25")
    assert code == 0
    assert "cycle found" in out
    assert "multiplier" in out


def test_cycle_contraction(capsys):
    code, out, _ = run(capsys, "cycle", "--b", "2", "--c", "1", "--delta", "0.2")
    assert code == 0
    assert "no cycle" in out


def test_portrait_writes_files(tmp_path, capsys):
    svg = tmp_path / "portrait.svg"
    rep = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "portrait",
        "--b", "2", "--c", "1", "--delta", "1",
        "--out", str(svg),
        "--report", str(rep),
    )
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    doc = json.loads(rep.read_text())
    assert doc["portrait"] == "A"
    assert doc["schema_version"] == "1"


def test_scan_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        "scan",
        "--grid", "0.7:1.2:2,0.9:1.4:2,0.2:0.35:2",
        "--jobs", "1",
        "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["b", "c", "delta", "case", "verdict", "section_x", "multiplier", "seeds"]
    assert len(rows) > 1
    assert all(r[4] == "contraction-to-P2" for r in rows[1:])


# sha256 of what `portrait` writes for portraits A, B and C, of what `scan`
# writes for a 3x3x3 grid and of what `hopf` and `classify` print; a change that
# moves these bytes updates the digests and names the change
BYTE_GOLDEN = {
    "portrait-A": (
        ["portrait", "--b", "2", "--c", "1", "--delta", "1"],
        {
            "svg": "8c46b58f4d2d6afc9db64a6a9a98056d0af7702ee86acfe4c1759334956b5e75",
            "json": "475e67bd7b4d27ce1b9eec6d67e8539c233ceb6f6463e89dc0c0fd0be607a720",
        },
    ),
    # the B and C json digests moved when P2's eigenvalues began to come from A and B; B's moved
    # again when orbits lost their time budget: the inner representative walks on until it
    # settles, and the cycle loop is sampled under the disc-chord rule, 44 points for 88
    "portrait-B": (
        ["portrait", "--b", "0.5", "--c", "1", "--delta", "0.25"],
        {
            "svg": "00e7cf4374be8c4801a5ed85e52cf3c72ebc3908c35fea90d880cea0de48a0db",
            "json": "4cf7c11a3753c5d14fb1a55c3a84430e7c81b59a27022d472dcb5cedd3ce85c6",
        },
    ),
    "portrait-C": (
        ["portrait", "--b", "0.9", "--c", "1.2", "--delta", "0.3"],
        {
            "svg": "58bfbaee64ca42b9752d016c0b6abca1f58238c51bb5e60f964232321256a7c5",
            "json": "ed1546d62244ffa66bf0231c5e3e9b674753182b5d57a8346bde39e03a680a5b",
        },
    ),
    **{
        f"scan-jobs{jobs}": (
            ["scan", "--grid", "0.65:1.3:3,0.9:1.5:3,0.15:0.4:3", "--jobs", jobs],
            {"csv": "481a989871fa0864f6ddc257a7d749a41d3754781a9e0db421fc4565d54ab699"},
        )
        for jobs in ("1", "2")
    },
    # (1e60, 1) is the disagreement case; the last three are log-uniform draws
    # of random.Random(13) over 1e-3 .. 1e3
    **{
        f"hopf-{c}-{delta}": (["hopf", "--c", c, "--delta", delta], {"stdout": digest})
        for c, delta, digest in (
            ("1", "0.25", "5398b1b6e97d13755bf6f0fa0f8f40f094945505dac1623181620b244b7eacb2"),
            ("1e60", "1", "89281e2b9bfe7ab38e7567b57cc5694d3b0993d3864190bca18aee362d06ab53"),
            ("12.92849458264166", "0.03581384505045391", "20ae743f2104c1464ce4ee72cfb4fa6250ed9fff61b87a6494294bfa5ae7e73b"),
            ("124.74322517734318", "12.720128777549203", "fc778bffb5d317da8d2ab9255b4a9e8de80919b5d6b2ca210fdc5de127d07ace"),
            ("0.024174174559989544", "0.013012029620689472", "2319d06b0e183ec1d4fa3b6dfe17ae815b481a3ba929f48ef9c12c3aebf5b71e"),
        )
    },
    # the README float and --exact argv; exact case-3, 5 and 6 triples among the slowest tenth
    # of the benchmark's analysis inputs; exact points on the case-2 and A = 0 surfaces
    **{
        f"classify-{name}": (["classify", *argv.split()], {"stdout": digest})
        for name, argv, digest in (
            ("readme", "--b 2 --c 1 --delta 1", "d66a426eae0f243c57cd13dcd9491767233de8996393af28410b4352183e1721"),
            ("readme-exact", "--exact --b 3/10 --c 1 --delta 1/4", "965620050d5622282d24f47132b1af49d2b1e2d272009325b12b17c45654cbe1"),
            ("case3", "--exact --b 13/921 --c 986/839 --delta 853/805", "f6b1c01a1158513ff028d7ea66053dab155ef037f196874d56e5e719376366e6"),
            ("case5", "--exact --b 240/877 --c 726/793 --delta 211/885", "ec5b3e8f1a02dc786b774657853ad9ed6166a5d88d8903c957ed5aabf96114ed"),
            ("case6", "--exact --b 1126/985 --c 1393/941 --delta 235/999", "31c9e41028c55d99ac6fea4503c3fb97d50d814ec96ef6aacc47d4a51d249b73"),
            ("case2", "--exact --b 20/7 --c 27/20 --delta 7/20", "a3d1c6c02652c65e16422087d90973fc326345d418f55f2a13c77249dae8f301"),
            ("a-zero", "--exact --b 10/17 --c 27/20 --delta 7/20", "0ca8ea8a396e219c9595ac872871ad8be543fa193c7da977cb4162d24206c6a1"),
        )
    },
}


@pytest.mark.parametrize("name", list(BYTE_GOLDEN))
def test_output_bytes_match_the_golden(name, tmp_path, capsys):
    argv, digests = BYTE_GOLDEN[name]
    flags = {"svg": "--out", "json": "--report", "csv": "--out"}
    paths = {kind: tmp_path / f"output.{kind}" for kind in digests if kind in flags}
    code, out, _ = run(capsys, *argv, *(a for kind, path in paths.items() for a in (flags[kind], str(path))))
    assert code == 0
    outputs = {kind: path.read_bytes() for kind, path in paths.items()}
    if "stdout" in digests:
        outputs["stdout"] = out.encode()
    assert {kind: hashlib.sha256(data).hexdigest() for kind, data in outputs.items()} == digests


def test_scan_bad_grid(capsys):
    for grid in ("1:2", "nan:1:2,1:1:1,1:1:1", "1:1e308:3,1:1:1,1:1:1"):
        code, _, err = run(capsys, "scan", "--grid", grid, "--out", "x.csv")
        assert code == 2
        assert "usage" in err


README_ARGVS = [
    line.split()[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("kportrait ")
]
FLOATS = ["--b", "0.5", "--c", "1", "--delta", "0.25"]
# argv that reach a command; portrait and scan name files, which the recorder below never writes
VALID_ARGVS = README_ARGVS + [
    ["classify", "--del", "0.25", "--b", "0.5", "--c", "1"],
    ["classify", "--ex", "--b", "3/10", "--c", "1", "--delta", "1/4"],
    ["classify", "--b=0.5", "--c", "1", "--delta", "0.25"],
    ["classify", "--b", "7", *FLOATS],
    ["classify", *FLOATS, "--exact", "--exact"],
    ["hopf", "--c", "-1", "--delta", "1"],
    ["scan", "--grid=1:2:1,1:2:1,1:2:1", "--out", "s.csv", "--jobs", "-3"],
    # canonical argv, which main reads without argparse
    ["classify", "--delta", "1/4", "--exact", "--c", "1", "--b", "3/10"],
    ["hopf", "--delta", "0.25", "--c", "1"],
    ["cycle", "--c", "1", "--delta", "0.25", "--b", "0.5"],
    ["portrait", *FLOATS, "--report", "r.json"],
    ["scan", "--out", "s.csv", "--grid", "1:2:1,1:2:1,1:2:1"],
    # DECLINED: what argparse reads although every token is a whole option string
    ["classify", "--b", "", "--c", "1", "--delta", "1"],
    ["scan", "--grid", "1:2:1,1:2:1,1:2:1", "--out", "s.csv", "--jobs", "2"],
]
DECLINED = [VALID_ARGVS[-2], VALID_ARGVS[-1], ["classify", *FLOATS, "--exact", "--exact"]]
# help and usage errors: argv with "--", abbreviated help, unknown commands and flags
OTHER_ARGVS = [
    [], ["-h"], ["--h"], ["--help"], ["bogus"], ["--frob"], ["--", "classify", *FLOATS], ["-h", "classify"],
    *([cmd, "-h"] for cmd in ("classify", "hopf", "cycle", "portrait", "scan")),
    *([cmd, "--h"] for cmd in ("classify", "hopf", "cycle", "portrait", "scan")),
    ["classify", *FLOATS, "--frob"], ["classify", *FLOATS, "x"], ["classify", *FLOATS, "--"],
    ["classify", "--", *FLOATS], ["classify", "-x", *FLOATS], ["classify", "--b", "1"],
    ["hopf", "--c", "1", "--delta", "0.25", "--b", "1"], ["scan", "--grid", "1:2:1,1:2:1,1:2:1", "--out", "s.csv", "--jobs", "x"],
]


def _full_tree_main(argv) -> int:
    """main as one parse_args of the whole tree, the reference for its dispatch."""
    from kportrait.cli import _COMMANDS, _build_parser

    try:
        ns = _build_parser().parse_args(argv)
        return _COMMANDS[ns.command][0](ns)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


def test_dispatch_parses_as_the_full_tree(monkeypatch, capsys):
    import kportrait.cli as cli

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    calls = []

    def record(ns):
        calls.append(vars(ns))
        return 0

    for name, (_, *rest) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (record, *rest))
    assert len(README_ARGVS) == 6
    for argv in VALID_ARGVS + OTHER_ARGVS:
        results = []
        for entry in (main, _full_tree_main):
            calls.clear()
            code = entry(list(argv))
            results.append((code, *capsys.readouterr(), list(calls)))
        assert results[0] == results[1], argv
        # a valid argv reaches its command once
        got = results[0][3]
        assert [ns["command"] for ns in got] == ([argv[0]] if argv in VALID_ARGVS else []), argv


def _draw_argv(rng, options) -> list[str]:
    """A canonical argv of a command with the option table ``options``: the required options
    in random order, the others sometimes, and values of which about one in five is a hard
    token; then zero to two edits that argparse reads differently or rejects."""
    chosen = [(option, spec) for option, spec in options.items() if spec.get("required") or rng.random() < 0.4]
    rng.shuffle(chosen)
    hard = ["-1", "", "-", "--", "-h", "--b", "nan", " 1"]
    args = []
    for option, spec in chosen:
        args.append(option)
        if "action" not in spec:
            args.append(rng.choice(hard) if rng.random() < 0.2 else rng.choice(["0.5", "3/10", "1e-3", "x", "2"]))
    for _ in range(rng.randrange(3)):
        edit = rng.randrange(3)
        if edit == 0 and args:
            del args[rng.randrange(len(args))]
        elif edit == 1:
            token = rng.choice(["--del", "--ex", "--b=0.5", "--", "-x", "pos", "--exact"])
            args.insert(rng.randrange(len(args) + 1), token)
        else:
            args += args[:2]
    return args


def test_canonical_reader_agrees_with_the_command_parser():
    import random

    from kportrait.cli import _COMMANDS, _build_parser, _read_canonical

    parser = _build_parser()
    rng = random.Random(22)
    for command, (_, _, options) in _COMMANDS.items():
        accepted = 0
        for _ in range(20_000):
            argv = [command, *_draw_argv(rng, options)]
            ns = _read_canonical(argv)
            if ns is not None:
                accepted += 1
                got, extras = parser.parse_known_args(argv)
                assert (vars(got), extras) == (vars(ns), []), argv
        assert accepted > 0, command
    for argv in README_ARGVS:
        assert (_read_canonical(argv) is None) == (argv[0] == "scan"), argv
    assert {argv[0] for argv in VALID_ARGVS if _read_canonical(argv)} == set(_COMMANDS)
    for argv in DECLINED + OTHER_ARGVS:
        assert _read_canonical(argv) is None, argv


def test_canonical_argv_skip_the_parse(capsys):
    from kportrait.cli import _build_parser

    for argv in README_ARGVS[:3]:
        assert argv[0] in ("classify", "hopf")
        _build_parser.cache_clear()
        canonical = run(capsys, *argv)
        assert canonical[0] == 0 and _build_parser.cache_info().misses == 0, argv
        # --name=value is the same argv to argparse, whose tree reads it
        joined, tokens = [argv[0]], iter(argv[1:])
        for token in tokens:
            joined.append(token if token == "--exact" else f"{token}={next(tokens)}")
        assert run(capsys, *joined) == canonical
        assert _build_parser.cache_info().misses == 1, joined


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify", "--b", "zebra", "--c", "1", "--delta", "1"], "argument --b: invalid number 'zebra'"),
        (["classify", *FLOATS, "--frob"], "unrecognized arguments: --frob"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'classify', 'hopf', 'cycle', 'portrait', 'scan')"),
    ],
)
def test_usage_errors_are_pinned(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: kportrait [-h] {classify,hopf,cycle,portrait,scan} ...\n"
    assert run(capsys, *argv) == (2, "", f"{usage}kportrait: error: {err}\n")


GRID = ["--grid", "1:2:1,1:2:1,1:2:1", "--out", "s.csv"]
# sha256 of repr((exit code, stdout, stderr)) at COLUMNS=80 for help and usage errors,
# recorded with the parser that argparse builds, so that each byte of its text is pinned
HELP_GOLDEN = [
    ([], "ad8fe16b4cb1a0a829c6094211800fdec353602485b310bb45536a8613f1b4c7"),
    (["-h"], "c82fb64cd39acf32ec8c080ac372f3d9f49cfdf8d7c66a6797fad2fed3a14fcc"),
    (["--help"], "c82fb64cd39acf32ec8c080ac372f3d9f49cfdf8d7c66a6797fad2fed3a14fcc"),
    (["bogus"], "bfbe70a24c9b2373ef5c2fd50fbb6f4cc072d63977b14529ed60507b1d187a53"),
    (["classify", "-h"], "77c00e432a3ea813de6b7db7f301e8da6a3311bf67ac91671fdeadf64d437dfb"),
    (["hopf", "-h"], "9cd87f0de67257a43af703ef33e019c2597d82d5ddd4397de3f4eca60086da99"),
    (["cycle", "-h"], "9484705a304991b348f8537b6b0a71af4ce829e4fc33fc7f6c303b3a0c1e4df4"),
    (["portrait", "-h"], "0fcd59ffbedf72569b14f122ff3ee7bbbad085e08fcdcd6886dd9a51242f8aee"),
    (["scan", "-h"], "0fcdceaefdd85d4aace59fa9e36385aa7cffe06a7abb9a251a71ea8ae72f0859"),
    (["classify", "--b", "zebra", "--c", "1", "--delta", "1"], "65c867750ba82b4e784964aa5c6aa26090d32a9d2b847dac60e605ea2badccc4"),
    (["classify", *FLOATS, "--frob"], "0942675a2e00ef2f43bfdd6d5772ef141ce0e59f3215111d3f81e08afda881b1"),
    (["scan", *GRID, "--jobs", "x"], "bbc6849a21bdcfa13537d65b060a009d0360292bd733f18f6dd77e273acef2c9"),
    (["scan", *GRID, "--jobs", "0"], "09113e1b1b57ee0c2036a09625d3e79f1627e374cfa00258ad233e9805b5af9a"),
]


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", HELP_GOLDEN, ids=[" ".join(argv) or "no-argv" for argv, _ in HELP_GOLDEN])
def test_help_and_usage_bytes_are_pinned(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(run(capsys, *argv)) == digest


def test_main_reads_sys_argv(monkeypatch, capsys):
    want = run(capsys, "classify", *FLOATS)
    monkeypatch.setattr(sys, "argv", ["kportrait", "classify", *FLOATS])
    assert main() == 0
    assert (0, *capsys.readouterr()) == want
    monkeypatch.setattr(sys, "argv", ["kportrait", "classify", *FLOATS, "x"])
    assert main() == 2 and capsys.readouterr().err.endswith("error: unrecognized arguments: x\n")


NUMPY_FREE_SCRIPT = """
import contextlib, io, os, sys, tempfile
from fractions import Fraction as F

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import kportrait as k
from kportrait.cli import main

argvs = [
    ["classify", "--b", "0.5", "--c", "1", "--delta", "0.25"],
    ["classify", "--exact", "--b", "3/10", "--c", "1", "--delta", "1/4"],
    ["classify", "--b", "2", "--c", "1", "--delta", "1"],
    ["hopf", "--c", "1", "--delta", "0.25"],
]
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert [main(a) for a in argvs] == [0, 0, 0, 0]
assert out.getvalue().count("P2: unstable-focus") == 2, out.getvalue()
for p in (k.Params(0.5, 1.0, 0.25), k.Params(F(3, 10), F(1), F(1, 4)), k.Params(F(3, 5), F(1), F(1, 4))):
    k.classify_case(p), k.finite_singular_points(p), k.family_infinite_points(p)
    k.dulac_check(p), k.uniqueness_check(p)
    k.hopf_analysis(p.c, p.delta), k.lyapunov_procedural(p.c, p.delta)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    svg, report, csv = (os.path.join(tmp, name) for name in ("b.svg", "b.json", "scan.csv"))
    assert main(["cycle", "--b", "0.5", "--c", "1", "--delta", "0.25"]) == 0
    assert main(["scan", "--grid", "0.65:1.3:2,0.9:1.5:2,0.15:0.4:1", "--jobs", "1", "--out", csv]) == 0
    assert main(["portrait", "--b", "0.5", "--c", "1", "--delta", "0.25", "--out", svg, "--report", report]) == 0
rep = k.build_portrait(k.Params(2.0, 1.0, 1.0))
k.render_svg(rep), k.write_report(rep)
assert sys.modules["numpy"] is None
print("ok")
"""


def _run_fresh(script, stdout="ok\n", *args):
    src = str(Path(kportrait.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, stdout), proc.stderr


def test_analysis_path_runs_without_numpy():
    # pytest has imported numpy already, so the check needs a fresh interpreter;
    # every command and the portrait calls run there with numpy blocked
    _run_fresh(NUMPY_FREE_SCRIPT)


LAZY_LOAD_SCRIPT = """
import contextlib, io, sys
import kportrait

def loaded():
    return {m for m in ("local", "numerics", "portrait") if "kportrait." + m in sys.modules}

assert loaded() == set(), loaded()
from kportrait.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["classify", "--b", "0.5", "--c", "1", "--delta", "0.25"]) == 0
    assert main(["classify", "--exact", "--b", "3/10", "--c", "1", "--delta", "1/4"]) == 0
    assert loaded() == set(), loaded()
    assert main(["hopf", "--c", "1", "--delta", "0.25"]) == 0
assert loaded() == {"local"}, loaded()
kportrait.build_portrait
assert loaded() == {"local", "numerics", "portrait"}, loaded()
assert kportrait.compactify is sys.modules["kportrait.compactify"]
print("ok")
"""


def test_each_command_loads_only_the_modules_it_calls():
    _run_fresh(LAZY_LOAD_SCRIPT)


COLD_PATH_SCRIPT = """
import contextlib, hashlib, io, os, sys
import kportrait, kportrait.local
from kportrait.cli import main

argvs = [a.split() for a in sys.argv[1:]]  # the README's classify, classify --exact and hopf lines
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(a) for a in argvs] == [0, 0, 0]
loaded = {"argparse", "gettext", "dataclasses", "inspect"} & set(sys.modules)
assert not loaded, loaded
# no module of the package defines a dataclass, and loading them all imports neither dataclasses nor inspect
import kportrait.numerics, kportrait.portrait
homes = [sys.modules["kportrait." + m] for m in ("model", "compactify", "local", "numerics", "portrait")]
found = {v for mod in homes for v in vars(mod).values() if isinstance(v, type) and "__dataclass_fields__" in vars(v)}
assert not found, found
loaded = {"dataclasses", "inspect"} & set(sys.modules)
assert not loaded, loaded
os.environ["COLUMNS"] = "80"
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
    code = main(["classify", "-h"])
print(hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest())
"""


def test_cold_path_imports_no_argparse_and_defines_no_dataclass():
    # pytest has imported argparse and dataclasses already, so the check needs a fresh
    # interpreter; help still comes from the argparse tree, built on demand
    argvs = README_ARGVS[:3]
    assert [a[0] for a in argvs] == ["classify", "classify", "hopf"] and "--exact" in argvs[1]
    help_digest = next(digest for argv, digest in HELP_GOLDEN if argv == ["classify", "-h"])
    _run_fresh(COLD_PATH_SCRIPT, help_digest + "\n", *(" ".join(a) for a in argvs))


def _converted_records() -> list:
    """One instance of each hashable NamedTuple record."""
    p = kportrait.Params(0.5, 1.0, 0.25)
    hd = kportrait.hopf_analysis(1.0, 0.25)
    grid = kportrait.GridSpec((0.9, 0.9, 1), (1.2, 1.2, 1), (0.3, 0.3, 1))
    return [
        kportrait.discriminants(p),
        kportrait.finite_singular_points(p)[2],
        kportrait.family_infinite_points(p)[1].sector,
        kportrait.family_infinite_points(p)[1],
        hd,
        kportrait.dulac_check(p),
        kportrait.detect_limit_cycle(p),
        grid,
        kportrait.conjecture_scan(grid)[0],
        # the summary at b = b0, where mu = 0
        kportrait.HopfSummary(float(hd.b0), hd.dmu_db_at_b0, 0.0, hd.omega, hd.ell1),
        kportrait.uniqueness_check(p),
    ]


def test_records_keep_the_dataclass_behaviour():
    records = _converted_records()
    assert sorted(type(r).__name__ for r in records) == sorted(
        ["Discriminants", "SingularPoint", "SectorData", "SingularPoint", "HopfData", "DulacReport",
         "CycleResult", "GridSpec", "ScanEvidence", "HopfSummary", "UniquenessReport"]
    )
    assert repr(records[2]) == "SectorData(sector='hyperbolic', separatrices=('infinity-equator', 'x=0-axis'))"
    for r in records:
        # the text the frozen dataclass's __repr__ gave
        fields = ", ".join(f"{name}={getattr(r, name)!r}" for name in r._fields)
        assert repr(r) == f"{type(r).__name__}({fields})"
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r
        assert hash(copy) == hash(r) == hash(tuple(getattr(r, name) for name in r._fields))
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.no_such_field = None
    assert records[-1].all_hold


def test_the_list_records_keep_the_dataclass_behaviour():
    # the records that hold lists print, pickle and refuse assignment, but do not hash
    p = kportrait.Params(2.0, 1.0, 1.0)
    report = kportrait.build_portrait(p)
    orbit = kportrait.integrate(p, (0.5, 0.5))
    for r in (orbit, report.representatives[0], report):
        fields = ", ".join(f"{name}={getattr(r, name)!r}" for name in r._fields)
        assert repr(r) == f"{type(r).__name__}({fields})"
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r
        with pytest.raises(TypeError):
            hash(r)
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            r.no_such_field = None


def test_lazy_exports_resolve_to_their_home_objects():
    import importlib

    for module in ("compactify", "model", "local", "numerics", "portrait"):
        home = importlib.import_module(f"kportrait.{module}")
        assert set(home.__all__) <= set(kportrait.__all__), module
    homes = {name: module for module, names in kportrait._EXPORTS.items() for name in names}
    assert sorted(homes) == sorted(kportrait.__all__)
    for name, module in homes.items():
        assert getattr(kportrait, name) is getattr(importlib.import_module(f"kportrait.{module}"), name), name
    assert set(kportrait.__all__) <= set(vars(kportrait)), "a resolved name was not cached"
    assert not hasattr(kportrait, "no_such_name")
    # the sparse polynomial engine and the U1/U2 chart maps live in tests/poincare_engine.py
    assert kportrait._EXPORTS["compactify"] == ("family_infinite_points",)
    # O1 and O2 are SingularPoints, so compactify defines no record of its own
    assert "InfinitePoint" not in kportrait.__all__ and not hasattr(kportrait.compactify, "InfinitePoint")
    assert not [v for v in vars(kportrait.compactify).values() if isinstance(v, type) and v.__module__ == "kportrait.compactify"]
    assert len(kportrait.__all__) == 39
    for name in ("PolySystem", "ChartDomainError", "chart_transition", "family_system"):
        assert name not in kportrait.__all__ and not hasattr(kportrait.compactify, name), name
    # the from-scratch Hopf route keeps its coefficient tuples in a private dict
    assert "MultilinearForms" not in kportrait.__all__ and not hasattr(kportrait.local, "MultilinearForms")
    # orbit limits come from the section crossings, not from a distance to the cycle polyline
    assert "point_polyline_distance" not in kportrait.__all__ and not hasattr(kportrait.numerics, "point_polyline_distance")
    # no public name shadows a submodule: the package attribute is the submodule
    importlib.import_module("kportrait.local"), importlib.import_module("kportrait.numerics")
    assert kportrait.compactify is sys.modules["kportrait.compactify"]
