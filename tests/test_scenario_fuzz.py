"""Generated scenarios end in a documented exit code, never in a traceback.

Each example writes a scenario built from the grammar in README (a chart
line, the T^4 bindings, check lines) and a pencil file to a temporary
directory and runs it through ``cli.main``.  The texts reach every check kind
with 0-3 arguments, integer parameters at and past their bounds, missing
bindings, malformed pencil files, chart clauses in any order, broken or
repeated, a domain bound past every float, nesting one level past
``_ExprParser.MAX_DEPTH``, literals up to 10^(+-400) and pi^(+-400), and
bytes that are not UTF-8, at --truncation 1-8 and --samples 2-6.  Exponents
stay at most 400: the cost of a large power is not bounded by the grammar.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from coisokit.cli import CHECKS, MAX_ORDER, _ExprParser, main

INTEGERS = ["x", "-1", "0", "1", str(MAX_ORDER), str(MAX_ORDER + 1), str(10**23)]
NAMES = ["omega", "pi", "a", "flat", "n", "nope"]
PENCIL = "pencil.txt"  # written by every example that has a pencil
FILES = [PENCIL, "missing.txt"]


@st.composite
def literals(draw):
    k = draw(st.integers(-400, 400))
    return draw(st.sampled_from([
        f"10^{k}", f"{10 ** abs(k)}", f"1/{10 ** abs(k)}", f"pi^{k}", "i",
    ]))


@st.composite
def chart_lines(draw):
    """The T^4 chart line, its clauses in any order; some lines carry a
    domain bound, a bad one, lose a clause or a ')', or repeat a clause."""
    clauses = ["base=(y1*,y2*,q1*,q2*)", "fibre=(p1,p2)"]
    fault = draw(st.sampled_from([None] * 8 + ["paren", "drop", "domain", "repeat"]))
    domain = draw(st.sampled_from(
        ["0", "-1", "abc", "", "1/0", "1e400"] if fault == "domain"
        else [None, None, "1/2", "4"]))
    if domain is not None:
        clauses.append("domain=" + domain)
    clauses = draw(st.permutations(clauses))
    if fault == "paren":
        k = draw(st.integers(0, 1))
        clauses[k] = clauses[k].replace(")", "", 1)
    elif fault == "drop":
        del clauses[draw(st.integers(0, len(clauses) - 1))]
    elif fault == "repeat":
        again = draw(st.sampled_from(clauses))
        clauses.insert(draw(st.integers(0, len(clauses))), again)
    return "chart " + " ".join(clauses)


@st.composite
def nested(draw):
    depth = draw(st.integers(0, _ExprParser.MAX_DEPTH + 1))
    return draw(st.sampled_from([
        "(" * depth + "p1" + ")" * depth,
        "-" * depth + "p1",
    ]))


@st.composite
def bindings(draw):
    lit = literals()
    lines = {
        "omega": "gotay(dy1/\\dy2, q1, q2)",
        # exact, a jet (omega plus the closed d(p1*sin(2*pi*y1)*dy2)), not Poisson
        "pi": draw(st.sampled_from([
            "inv_form(omega)",
            "inv_form(omega + sin(2*pi*y1)*dp1/\\dy2 + 2*pi*p1*cos(2*pi*y1)*dy1/\\dy2)",
            "@y1/\\@p1 + p1*@y2/\\@q1",
        ])),
        "a": draw(st.sampled_from([
            f"({draw(lit)}*sin(2*pi*y1), sin(2*pi*y2))",
            f"(sin(2*pi*y1)/{draw(lit)}, {draw(lit)}*cos(2*pi*y2))",
            "@p1/\\@p2",
            "(0, 0)",
        ])),
        "flat": f"({draw(lit)}, 0)",
        "n": draw(nested()),
    }
    # a dropped binding leaves checks and later bindings naming it undefined
    dropped = draw(st.sampled_from([None] * 10 + sorted(lines)))
    return [f"{name} = {value}" for name, value in lines.items() if name != dropped]


@st.composite
def check_lines(draw):
    """Mostly lines of a valid shape (a target, and an integer where the kind
    takes one); the rest have 0-3 arguments or an unknown kind."""
    kind = draw(st.sampled_from(list(CHECKS) * 3 + ["bogus"]))
    if kind in CHECKS and draw(st.integers(0, 3)):
        count = 1 if CHECKS[kind].param is None else draw(st.integers(
            1 if CHECKS[kind].param.optional else 2, 2))
    else:
        count = draw(st.integers(0, 3))
    targets = FILES if kind == "pencil" else NAMES
    # small orders are drawn more often, so that more scenarios run
    integers = INTEGERS + ["1", "2", "3"]
    args = [draw(st.sampled_from(targets if i == 0 else integers)) for i in range(count)]
    return " ".join(["check", kind] + args)


@st.composite
def pencils(draw):
    """Pencil file bytes of size at most 4 with 1-3 parameter blocks:
    rational, empty, ragged, singular, not rational or not UTF-8, or no file
    at all (None)."""
    shape = draw(st.sampled_from(
        ["rational", "empty", "ragged", "singular", "token", "bytes", None]))
    if shape is None:
        return None
    if shape in ("empty", "bytes"):
        return draw(st.sampled_from(
            [b"", b"\n\n", b"  \n"] if shape == "empty" else [b"1 \xff\n", b"\xfe0\n"]))
    n = draw(st.integers(1, 4))
    entry = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"])
    # more than one parameter block at order MAX_ORDER is past MAX_PENCIL_TERMS
    blocks = [[[draw(entry) for _ in range(n)] for _ in range(n)]
              for _ in range(draw(st.integers(2, 4)))]
    blocks[0] = [[str(int(i == j) + 1) if i <= j else "0" for j in range(n)]
                 for i in range(n)]  # upper triangular, invertible
    if shape == "singular":
        blocks[0][0] = ["0"] * n
    elif shape == "ragged":
        row = draw(st.integers(0, n - 1))
        blocks[draw(st.integers(0, 1))][row].append("1")
    elif shape == "token":
        blocks[1][0][0] = draw(st.sampled_from(["x", "1/0", "nan", "1..2", "ξ"]))
    text = "\n\n".join("\n".join(" ".join(row) for row in block) for block in blocks)
    return (text + "\n").encode("utf-8")


@st.composite
def scenarios(draw):
    lines = [draw(chart_lines())] + draw(bindings())
    lines += draw(st.lists(check_lines(), min_size=1, max_size=2))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    # a byte that is not UTF-8, in a comment
    return text + draw(st.sampled_from([b""] * 9 + [b"# \xff\n"])), draw(pencils())


FLAGS = st.lists(st.sampled_from(
    [["--strict"], ["--timings"], ["--format", "json"], ["--format", "csv"]]), max_size=2)


@settings(max_examples=400, deadline=None)
@given(scenario=scenarios(), flags=FLAGS,
       truncation=st.integers(1, 8), samples=st.integers(2, 6))
def test_every_generated_scenario_ends_in_a_documented_exit_code(
        scenario, flags, truncation, samples):
    text, pencil = scenario  # bytes
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzz.scn")
        with open(path, "wb") as fh:
            fh.write(text)
        if pencil is not None:
            with open(os.path.join(directory, PENCIL), "wb") as fh:
                fh.write(pencil)
        argv = ["run", path, "--samples", str(samples), "--truncation", str(truncation)]
        assert main(argv + [flag for pair in flags for flag in pair]) in (0, 1, 2, 3)
