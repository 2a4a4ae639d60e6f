"""A committed differential corpus for the CLI.

``corpus_argvs()`` builds a seeded list of invocations: the argv shapes of
the benchmark's ``cli`` workload for a few seeds, in plain and JSON output,
and hand-picked edge cases (signed zeros, each size cap and one past it,
operators with a zero root and scaled operators, points near a pole, usage
and domain errors).  ``cli_corpus.json`` holds, for each argv, the exit code,
stderr, stdout and the report CSV, if any.  ``{tmp}`` stands for the
directory a report writes into, in the argv and wherever the output echoes
it.

The test runs every argv in process through ``cli.main`` and compares with
the file: the text between numbers must match exactly, and each float token
must agree within 1e-12 of the largest float magnitude in the same output.
The stdout of ``bernoulli``, ``faulhaber`` and ``antidiff`` and the zeta
coefficient must match byte for byte.

A change that moves outputs on purpose regenerates the entries it moves,
and a new argv goes at the end of ``corpus_argvs()`` and is appended:

    PYTHONPATH=src python tests/test_cli_corpus.py --entries 17,18
    PYTHONPATH=src python tests/test_cli_corpus.py --append

Either way the argvs past the end of the committed list are written and
every other entry is left as it is; with neither flag the whole file is
written again.
"""

import argparse
import contextlib
import io
import json
import math
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from deltasolve import cli
from deltasolve.polynomials import (Polynomial, format_complex,
                                    format_polynomial)

GOLDEN = Path(__file__).with_name("cli_corpus.json")
WORKLOAD_SEEDS = (1, 2, 3, 4, 5)
FLOAT_TOLERANCE = 1e-12
# Subcommands whose stdout is exact rational text.
EXACT_COMMANDS = ("bernoulli", "faulhaber", "antidiff")
# A float token, with the sign written next to it; integers and rationals
# contain no "." or exponent and so stay part of the text.  A token starts
# only where a run of digits starts: a match can start nowhere else, and
# trying each digit of a long integer (B_1000 has 1,779) costs time
# quadratic in its length.
_FLOAT = re.compile(r"[-+]?(?<!\d)(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


# ----------------------------------------------------------------------
# the argv generator
# ----------------------------------------------------------------------

def _forcing(rng, degree) -> str:
    """Rational coefficients with a nonzero leading one, as CLI text."""
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 20),
                           rng.randint(1, 12)))
    return format_polynomial(Polynomial(coeffs))


def _roots(rng, degree):
    """degree points in |r| <= 2.5, pairwise at least 0.5 apart."""
    roots = []
    while len(roots) < degree:
        r = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(r) <= 2.5 and all(abs(r - s) >= 0.5 for s in roots):
            roots.append(r)
    return roots


def _operator(lead, roots):
    """Ascending coefficients of lead * prod (z - r)."""
    coeffs = [complex(lead)]
    for r in roots:
        shifted = [0j] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def _point_away_from_poles(rng):
    radius, angle = rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def workload_argvs(seed: int) -> list:
    """The ``cli`` workload's argv shapes: two of each computing subcommand
    per format and four reports, with an operator with a zero root and a
    scaled operator among the four ``ode`` calls."""
    rng = random.Random(f"corpus/{seed}")
    fmts = ("plain", "json") * 2
    argvs = []
    for fmt, n in zip(fmts, (10, 37, 65, 92)):
        argvs.append(["bernoulli", str(n + seed), "--format", fmt])
    for fmt, n in zip(fmts, (5, 13, 22, 31)):
        argvs.append(["faulhaber", str(n + seed), "--format", fmt])
    for fmt, degree in zip(fmts, (3, 5, 7, 10)):
        g = _forcing(rng, degree)
        argvs.append(["antidiff", f"--g={g}", "--format", fmt])
    for fmt, degree in zip(fmts, (1, 2, 3, 4)):
        g = _forcing(rng, degree)
        K = rng.randint(100, 2000)
        argvs.append(["spectral", f"--g={g}", "--K", str(K), "--format", fmt])
    for fmt, degree in zip(fmts, (1, 2, 3, 4)):
        g = _forcing(rng, degree)
        x, K = repr(rng.uniform(-2.0, 2.0)), rng.randint(10, 500)
        argvs.append(["euler-gap", f"--g={g}", f"--x={x}", "--K", str(K),
                      "--format", fmt])
    for fmt in fmts:
        z = format_complex(_point_away_from_poles(rng))
        argvs.append(["pfd", f"--z={z}", "--K", str(rng.randint(100, 10000)),
                      "--format", fmt])
    for i, (fmt, j) in enumerate(zip(fmts, (1, 2, 4, 6))):
        words = ["zeta", "--j", str(j)]
        if i % 2 == 0:
            n_terms = rng.randint(50, 2000) if j == 1 else rng.randint(5, 20)
            words += ["--oracle-N", str(n_terms)]
        argvs.append(words + ["--format", fmt])
    for i, (fmt, degree) in enumerate(zip(fmts, (2, 3, 4, 5))):
        coeffs = _operator(rng.uniform(0.5, 2.0), _roots(rng, degree))
        if i == 1:
            coeffs = [0j] + coeffs
        elif i == 2:
            coeffs = [1e-9 * c for c in coeffs]
        text = ",".join(format_complex(c) for c in coeffs)
        g = _forcing(rng, rng.randint(0, 3))
        argvs.append(["ode", f"--coeffs={text}", f"--g={g}", "--format", fmt])
    out = ["--out", "{tmp}/report.csv"]
    g = _forcing(rng, rng.randint(1, 3))
    ks = ",".join(str(rng.randint(10, 1000)) for _ in range(3))
    for fmt, threads in zip(("plain", "json"), ("1", "2")):
        argvs.append(["report", "residual-decay", f"--g={g}", "--K-list", ks,
                      "--threads", threads, "--format", fmt] + out)
    zs = ",".join(format_complex(_point_away_from_poles(rng)) for _ in range(2))
    ks = ",".join(str(rng.randint(100, 5000)) for _ in range(2))
    argvs.append(["report", "pfd-convergence", f"--z-list={zs}", "--K-list",
                  ks] + out)
    ks = ",".join(str(rng.randint(100, 2000)) for _ in range(2))
    argvs.append(["report", "ab-comparison", "--n-max",
                  str(rng.randint(3, 6)), "--K-list", ks, "--format",
                  "json"] + out)
    return argvs


def _ode(coeffs: str, g: str = "x", fmt: str = "plain") -> list:
    return ["ode", f"--coeffs={coeffs}", f"--g={g}", "--format", fmt]


def _degree_90(low: str) -> str:
    """Coefficients low, then zeros, then 1 in the z^90 slot."""
    parts = low.split(",")
    return ",".join(parts + ["0"] * (90 - len(parts)) + ["1"])


def edge_argvs() -> list:
    out = ["--out", "{tmp}/report.csv"]
    T, R = cli.MAX_TERMS, cli.MAX_REPORT_TERMS
    return [
        # signed zeros
        ["pfd", "--z=1.5-0.0i", "--K", "10"],
        ["pfd", "--z=-0.0+1.0i", "--K", "10", "--format", "json"],
        ["euler-gap", "--g=x^2", "--x=-0.0", "--K", "5"],
        ["spectral", "--g=-0*x^2 + x", "--K", "3"],
        _ode("1,1"),
        _ode("-1-0.0i,1", "x^2"),
        _ode("-0.0,1", "x"),
        # each cap, and one past it (bernoulli and faulhaber at the cap are
        # appended below)
        ["bernoulli", str(cli.MAX_BERNOULLI_INDEX + 1)],
        ["faulhaber", str(cli.MAX_BERNOULLI_INDEX + 1)],
        ["zeta", "--j", str(cli.MAX_ZETA_INDEX)],
        ["zeta", "--j", str(cli.MAX_ZETA_INDEX + 1)],
        ["zeta", "--j", "40", "--oracle-N", str(T)],
        ["zeta", "--j", "40", "--oracle-N", str(T + 1)],
        ["spectral", "--g=1", "--K", str(T)],
        ["spectral", "--g=1", "--K", str(T + 1)],
        ["euler-gap", "--g=3", "--x=0.5", "--K", str(T), "--format", "json"],
        ["euler-gap", "--g=3", "--x=0.5", "--K", str(T + 1)],
        ["pfd", "--z=1", "--K", str(T + 1)],
        _ode(_degree_90("0,1"), "1"),
        _ode(_degree_90("0,1") + ",1", "1"),
        # residual-decay charges each row K + 20000 terms
        ["report", "residual-decay", "--g=1", "--K-list",
         f"{T},{R - T - 40000}"] + out,
        ["report", "residual-decay", "--g=1", "--K-list",
         f"{T},{R - T - 40000 + 1}"] + out,
        ["report", "pfd-convergence", "--K-list", str(T + 1)] + out,
        ["report", "ab-comparison", "--n-max", "12", "--K-list", "10"] + out,
        ["report", "ab-comparison", "--n-max", "13", "--K-list", "10"] + out,
        _ode("1,1", "x^1000"),
        _ode("1,1", "x^1001"),
        # operators with a zero root
        _ode("0,1", "1"),
        _ode("0,1,1", "x", "json"),
        _ode("0,2,3,1", "x^2 - 1/3"),
        _ode("0,-1,0,1", "x^3"),
        _ode("0,1i,1", "x"),
        _ode("0,1,1e-9", "x"),
        _ode("0,1e-9,1e-9", "x^2"),
        _ode("0,1e-7,1", "x"),
        _ode("0,0,1", "x"),
        _ode("0,0,0,1", "1"),
        _ode("0,4.002,-4.001,1", "x^3"),
        # scaled operators
        _ode("1e-9,1e-9", "x"),
        _ode("2e-9,3e-9,1e-9", "x^2"),
        _ode("1e9,1e9", "x"),
        _ode("2e9,3e9,1e9", "x^2", "json"),
        # points near a pole, and the pole itself
        ["pfd", "--z=0", "--K", "5"],
        ["pfd", "--z=1e-7", "--K", "5"],
        ["pfd", "--z=2e-6", "--K", "5"],
        ["pfd", "--z=6.283185307179586i", "--K", "5"],
        ["pfd", "--z=6.2831853i", "--K", "5"],
        ["pfd", "--z=0.001+6.283185307179586i", "--K", "5"],
        ["pfd", "--z=31.41592653589793i", "--K", "3"],
        ["pfd", "--z=31.41592653589793i", "--K", "4"],
        ["report", "pfd-convergence", "--z-list=2e-6,1+0.5i",
         "--K-list", "10,1000"] + out,
        # domain errors
        _ode("1,-2,1", "x"),
        _ode("4.002,-4.001,1", "x^3"),
        _ode("1,1,1", "x^400"),
        ["euler-gap", "--g=x^30", "--x=1e300", "--K", "3"],
        ["pfd", "--z=1e200+1e200i", "--K", "3"],
        ["report", "residual-decay", "--K-list", "10",
         "--out", "{tmp}/missing/report.csv"],
        # usage errors
        [],
        ["frobnicate"],
        ["spectral", "--g=x"],
        ["spectral", "--g=x^^2", "--K", "3"],
        ["spectral", "--g=x", "--K", "0"],
        ["spectral", "--g=x", "--K", "abc"],
        ["euler-gap", "--g=x", "--x=abc", "--K", "3"],
        ["euler-gap", "--g=x", "--x=1e400", "--K", "3"],
        ["pfd", "--z=1e400", "--K", "3"],
        ["pfd", "--z=1+2j", "--K", "3"],
        ["bernoulli", "-1"],
        ["bernoulli", "12", "--format", "xml"],
        ["zeta", "--j", "0"],
        ["zeta", "--j", "1", "--oracle-N", "1"],
        ["ode", "--coeffs=1", "--g=x"],
        ["ode", "--coeffs=1,0", "--g=x"],
        ["ode", "--coeffs=1,abc", "--g=x"],
        ["antidiff", "--g=x^1001"],
        ["antidiff", "--g=1/0*x"],
        ["report", "nonsense"] + out,
        ["report", "residual-decay", "--threads", "0"] + out,
        # default report lists
        ["report", "residual-decay"] + out,
        ["report", "pfd-convergence", "--K-list", "10,20"] + out,
        # appended after the first 260 entries: every zero root exact, root
        # estimates outside double range, the last default report lists, a
        # coefficient whose magnitude is outside double range
        _ode(_degree_90("0")),
        _ode("1,5e-324"),
        _ode("1.7e308,1"),
        _ode("1,0,1e-300"),
        ["report", "ab-comparison"] + out,
        _ode("0.5,1.7e308+1.7e308i"),
        # appended after the first 266 entries: a root that underflows to 0
        _ode("1,1e308+1e308i"),
        # appended after the first 267 entries: bernoulli and faulhaber at
        # their cap (a cold table up to B_1000 takes about 0.1 s)
        ["bernoulli", str(cli.MAX_BERNOULLI_INDEX)],
        ["faulhaber", str(cli.MAX_BERNOULLI_INDEX)],
        # appended after the first 269 entries: odd indices, which answer
        # without growing the table, the cap in JSON (the plain one is
        # above), and ab-comparison within its budget and just past it
        ["bernoulli", "1"],
        ["bernoulli", "1", "--format", "json"],
        ["bernoulli", "3"],
        ["bernoulli", "3", "--format", "json"],
        ["bernoulli", str(cli.MAX_BERNOULLI_INDEX - 1)],
        ["bernoulli", str(cli.MAX_BERNOULLI_INDEX - 1), "--format", "json"],
        ["bernoulli", str(cli.MAX_BERNOULLI_INDEX + 1), "--format", "json"],
        ["report", "ab-comparison", "--n-max", "12", "--K-list",
         str(T)] + out,
        ["report", "ab-comparison", "--n-max", "12", "--K-list",
         f"{T},145591"] + out,
        # appended after the first 278 entries: power sums on both sides of
        # the cache boundaries 1024 and 2048
        ["spectral", "--g=x^5 - 1/2*x^2 + x", "--K", "1023"],
        ["spectral", "--g=x^5 - 1/2*x^2 + x", "--K", "1024"],
        ["spectral", "--g=x^5 - 1/2*x^2 + x", "--K", "1025"],
        ["zeta", "--j", "1", "--oracle-N", "1024"],
        ["zeta", "--j", "1", "--oracle-N", "1025"],
        ["report", "ab-comparison", "--K-list", "1024,2048,2049"] + out,
        # appended after the first 284 entries: g = x, whose two solutions
        # of size x^2 differ by x/2, at x = 1e16 and near the top of double
        # range
        ["euler-gap", "--g", "x", "--x", "1e16", "--K", "3"],
        ["euler-gap", "--g", "x", "--x", "1e308", "--K", "3"],
    ]


def corpus_argvs() -> list:
    argvs = []
    for seed in WORKLOAD_SEEDS:
        argvs += workload_argvs(seed)
    return argvs + edge_argvs()


# ----------------------------------------------------------------------
# running and comparing
# ----------------------------------------------------------------------

def run_entry(argv: list, tmp: str) -> dict:
    """Run one argv in process; ``{tmp}`` in its words and its output
    stands for the directory ``tmp``."""
    report = Path(tmp, "report.csv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([word.replace("{tmp}", tmp) for word in argv])
    csv = None
    if report.exists():
        csv = report.read_text()
        report.unlink()
    return {"argv": argv, "code": code,
            "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
            "stderr": stderr.getvalue().replace(tmp, "{tmp}"), "csv": csv}


def run_corpus(argvs: list) -> list:
    # argparse wraps its usage lines at the width it reads from COLUMNS.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict("os.environ", {"COLUMNS": "80"}):
        return [run_entry(argv, tmp) for argv in argvs]


def _split_floats(text: str):
    """(the text with each finite float token replaced by ``{}``, the
    floats in order)."""
    floats = []

    def take(match):
        value = float(match.group())
        if not math.isfinite(value):
            return match.group()
        floats.append(value)
        return "{}"

    return _FLOAT.sub(take, text), floats


def output_mismatch(expected: str | None, got: str | None) -> str | None:
    """Why ``got`` does not match ``expected``, or None when it does."""
    if expected is None or got is None:
        return None if expected == got else f"{expected!r} != {got!r}"
    want_text, want = _split_floats(expected)
    got_text, have = _split_floats(got)
    if want_text != got_text or len(want) != len(have):
        return f"text differs:\n  want {expected!r}\n  got  {got!r}"
    bound = FLOAT_TOLERANCE * max(map(abs, want), default=0.0)
    for a, b in zip(want, have):
        if not abs(a - b) <= bound:
            return f"{b!r} is off {a!r} by more than {bound:.1e}"
    return None


def _zeta_coefficient(stdout: str) -> str:
    if stdout.startswith("{"):
        return json.loads(stdout)["result"]["coefficient"]
    return stdout.split("*pi^")[0]


def entry_mismatches(expected: dict, got: dict) -> list:
    """Every way ``got`` fails to match ``expected``, as messages."""
    problems = []
    if got["code"] != expected["code"]:
        problems.append(f"exit code {got['code']}, want {expected['code']}")
    command = expected["argv"][0] if expected["argv"] else None
    if command in EXACT_COMMANDS and got["stdout"] != expected["stdout"]:
        problems.append("exact stdout differs")
    if command == "zeta" and expected["code"] == 0 and \
            _zeta_coefficient(got["stdout"]) != _zeta_coefficient(expected["stdout"]):
        problems.append("zeta coefficient differs")
    for stream in ("stdout", "stderr", "csv"):
        reason = output_mismatch(expected[stream], got[stream])
        if reason:
            problems.append(f"{stream}: {reason}")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def test_generator_matches_the_committed_argvs():
    assert [entry["argv"] for entry in load_golden()["entries"]] \
        == corpus_argvs()


def test_cli_outputs_match_the_corpus():
    golden = load_golden()
    expected = golden["entries"]
    got = run_corpus([entry["argv"] for entry in expected])
    failures = [f"entry {i} {want['argv']}: {'; '.join(problems)}"
                for i, (want, have) in enumerate(zip(expected, got))
                for problems in [entry_mismatches(want, have)] if problems]
    assert not failures, (
        f"{len(failures)} of {len(expected)} corpus entries differ (corpus "
        f"written on Python {golden['python']}, running "
        f"{sys.version.split()[0]}):\n" + "\n".join(failures))


def test_comparison_allows_rounding_and_nothing_else():
    base = "(0.5+1e-17i)*x + (-2.0-0.0i)"
    assert output_mismatch(base, base) is None
    assert output_mismatch(base, "(0.5000000000001-1e-17i)*x + (-2.0+0.0i)") \
        is None
    assert output_mismatch(base, "(0.50000000001+1e-17i)*x + (-2.0-0.0i)")
    assert output_mismatch(base, "(0.5+1e-17i)*x^2 + (-2.0-0.0i)")
    assert output_mismatch("x - 1", "x + 1")
    assert output_mismatch("5/66", "5/67")
    assert output_mismatch(None, "")
    assert entry_mismatches(
        {"argv": ["zeta"], "code": 0, "stdout": "1/6*pi^2 = 1.0", "stderr": "",
         "csv": None},
        {"argv": ["zeta"], "code": 0, "stdout": "1/7*pi^2 = 1.0", "stderr": "",
         "csv": None})


def test_partial_regeneration_appends_and_keeps_the_rest(tmp_path,
                                                        monkeypatch):
    golden = tmp_path / "corpus.json"
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    monkeypatch.setattr(sys.modules[__name__], "run_corpus",
                        lambda argvs: [{"argv": a, "new": True} for a in argvs])
    monkeypatch.setattr(sys.modules[__name__], "corpus_argvs",
                        lambda: [["a"], ["b"], ["c"], ["d"]])
    old = [{"argv": [word], "new": False} for word in "ab"]
    golden.write_text(json.dumps({"python": "3", "entries": old}))
    main(["--append"])
    assert [(e["argv"], e["new"]) for e in load_golden()["entries"]] == [
        (["a"], False), (["b"], False), (["c"], True), (["d"], True)]
    golden.write_text(json.dumps({"python": "3", "entries": old}))
    main(["--entries", "1"])
    assert [(e["argv"], e["new"]) for e in load_golden()["entries"]] == [
        (["a"], False), (["b"], True), (["c"], True), (["d"], True)]


# ----------------------------------------------------------------------
# regeneration
# ----------------------------------------------------------------------

def _write(entries: list) -> None:
    golden = {"python": sys.version.split()[0], "entries": entries}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Write cli_corpus.json.")
    parser.add_argument("--entries", type=lambda s: [int(i) for i in s.split(",")],
                        help="regenerate only these entry indices")
    parser.add_argument("--append", action="store_true",
                        help="write only the argvs past the committed ones")
    args = parser.parse_args(argv)
    argvs = corpus_argvs()
    if args.entries is None and not args.append:
        _write(run_corpus(argvs))
        return
    entries = load_golden()["entries"]
    indices = (args.entries or []) + list(range(len(entries), len(argvs)))
    entries += [None] * (len(argvs) - len(entries))
    for i, entry in zip(indices, run_corpus([argvs[i] for i in indices])):
        entries[i] = entry
    _write(entries)


if __name__ == "__main__":
    main()
