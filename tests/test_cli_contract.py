"""The CLI's exit-code contract over drawn and pinned argument lists.

Every call runs ``cli.main`` in-process with stdout and stderr redirected.
For each one: the exit code is 0, 1 or 2; 1 (a verification failure) comes
only from ``verify``; nothing escapes ``main`` and stderr holds no
traceback or remedy meant for Python programmers; a refusal (exit 2) writes
exactly one stderr line, which never shows Python's ``None``; and an SVG
holds no ``nan`` or ``inf``.
Hypothesis draws only argument lists that argparse accepts (options take
their value after ``=``, so a leading minus stays a value), so every
refusal comes from the program.  The inputs lean on what has broken before:
division by zero, integers near the 4300-digit conversion limit, radicands
above the 64-bit factoring budget, depth-3 towers, deep nesting and long
sign runs, empty entries, literals cut short, float placements near
+-1e308, and out-of-range counts.  Each case found by hand is pinned below,
whatever hypothesis draws; those pinned in ``test_cli.py`` already (division
by zero, placements whose triangle overflows, out-of-range counts) are not
repeated.
"""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from ceviangeo import cli
from ceviangeo.field import MAX_NESTING

# above the 64-bit factoring budget, with no prime factor below 50
BIG_PRIME = 2 ** 64 + 13
DEEP = "(" * 1200 + "1" + ")" * 1200


def check_contract(argv: list[str]) -> tuple[int, str]:
    """The exit code and the stderr text of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or argv[0] == "verify", (argv, text)
    assert "Traceback" not in text, (argv, text)
    assert "set_int_max_str_digits" not in text, (argv, text)
    if code == 2:
        assert len(text.splitlines()) == 1, (argv, text)
        assert "None" not in text, (argv, text)
    if argv[0] == "render":
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), argv
    return code, text


def nested(text: str, depth: int) -> str:
    return "(" * depth + text + ")" * depth


atoms = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from([2, 3, 5, 6, 8, 12, BIG_PRIME, 3 * BIG_PRIME]).map(lambda d: f"sqrt({d})"),
    st.sampled_from([1, 2000, 4299, 4300, 4301]).map(lambda n: "7" * n),
)
expressions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(inner, st.sampled_from([1, MAX_NESTING - 1, MAX_NESTING + 1])).map(
            lambda t: nested(*t)),
        st.tuples(st.sampled_from(["-", "+", "-" * 1500]), inner).map("".join),
    ),
    max_leaves=4,
)
literals = st.one_of(
    st.lists(expressions, min_size=3, max_size=3).map(lambda es: "[" + ",".join(es) + "]"),
    # wrong entry counts, empty entries and stray whitespace
    st.lists(st.sampled_from(["", " ", "1", "sqrt(2)", " 2 "]), min_size=1, max_size=5).map(
        lambda es: "[" + ",".join(es) + "]"),
    # cut short: the parser meets the end of input
    st.sampled_from(["[1,2,3]", "[sqrt(2),(-1),3/4]"]).flatmap(
        lambda lit: st.integers(0, len(lit) - 1).map(lambda k: lit[:k])),
)
floats = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e307, -5e307, 1.7e308, 1e-308]).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
placements = st.lists(floats, min_size=6, max_size=6).map(" ".join)
counts = st.sampled_from([-1, 0, 1, 2, 5, 129, 10 ** 9])

commands = st.one_of(
    st.tuples(st.just("compute"), literals,
              st.lists(st.sampled_from(cli.COMPUTE_NAMES + ("all", "X")), max_size=2)).map(
        lambda t: [t[0], t[1], *t[2]]),
    st.tuples(st.sampled_from("ABC"), expressions).map(
        lambda t: ["locus", "param", "--vertex", t[0], f"--t={t[1]}"]),
    literals.map(lambda lit: ["locus", "check", f"--point={lit}"]),
    st.integers(-200, 200).map(lambda k: ["curve", "multiple", f"--k={k}"]),
    st.tuples(counts, st.integers(-5, 5)).map(
        lambda t: ["curve", "sample", f"--n={t[0]}", f"--seed={t[1]}"]),
    st.tuples(st.sampled_from(["conics", "construction", "locus", "special"]), placements).map(
        lambda t: ["render", t[0], f"--placement={t[1]}"]),
    # verify only where it is cheap: counts of at most 2, or out of range
    st.tuples(st.sampled_from(["all", "construction", "curve", "translation", "special"]),
              st.sampled_from([-3, -1, 0, 1, 2, 129, 10 ** 9])).map(
        lambda t: ["verify", t[0], f"--n={t[1]}"]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(commands)
def test_drawn_commands_keep_the_contract(argv):
    check_contract(argv)


@pytest.mark.parametrize("argv,code", [
    # deep nesting: a RecursionError traceback (exit 1) before the bound
    (["compute", f"[{DEEP},1,2]", "H"], 2),
    (["locus", "param", f"--t={nested('1/3', 400)}"], 2),
    (["compute", f"[{nested('2', MAX_NESTING)},3,6]", "H"], 0),
    # a sign run is not nesting: it reads in a loop
    (["compute", f"[{'-' * 1500}1,1,2]", "H"], 0),
    # empty entries were dropped, so these read as [1,2,3]
    (["compute", "[1,,2,3]", "H"], 2),
    (["compute", "[1,2,3,]", "H"], 2),
    # whitespace after a token was a bad character
    (["compute", "[1 ,2, 3 ]", "H"], 0),
    # Arabic-Indic and fullwidth digits read as 6 and 3
    (["compute", "[\u0666,3,2]", "H"], 2),
    (["compute", "[6,\uff13,2]", "H"], 2),
    # the output's integers pass the 4300-digit conversion limit
    (["compute", f"[{'9' * 4300},1,2]", "H"], 2),
    (["compute", f"[{'9' * 4301},1,2]", "H"], 2),
    # a radicand above the factoring budget; a depth-3 tower
    (["compute", f"[sqrt({BIG_PRIME}),1,2]", "H"], 2),
    (["compute", "[sqrt(2),sqrt(3),sqrt(5)]", "H"], 2),
    # finite extent, but placing a swept point overflowed to nan
    (["render", "construction", "--placement=-5e307 0 5e307 0 0 1"], 0),
    (["render", "construction", "--placement=0 -5e307 1 5e307 0 0"], 0),
    # a finite triangle extent, but a figure point or a label offset beyond
    # it overflowed: inf in the viewBox and in a label's position
    (["render", "construction", "--placement=0 0 0 1 1e308 0"], 2),
    (["render", "conics", "--placement=0 0 1 0 0 1.7653287740055476e308"], 2),
    (["curve", "multiple", "--k=129"], 2),
], ids=lambda v: " ".join(v)[:60] if isinstance(v, list) else str(v))
def test_pinned_cases(argv, code):
    assert check_contract(argv)[0] == code


@pytest.mark.parametrize("literal,message", [
    ("[sqrt(", "sqrt takes a nonnegative integer, found the end of input"),
    ("[1,2,", "expected a number, 'sqrt' or '(', found the end of input"),
    ("[1,2", "expected ',', found the end of input"),
])
def test_refusal_at_the_end_of_input_names_it(literal, message):
    # each printed Python's None for the missing token
    assert check_contract(["compute", literal, "all"]) == (2, f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["compute", f"[{'9' * 4300},1,2]", "H"],
    ["compute", f"[{'9' * 4301},1,2]", "H"],
    ["compute", f"[{'9' * 2000},1,2]", "all"],
    ["compute", f"[sqrt({'4' * 4301}),1,2]", "H"],
], ids=["output-4300", "input-4301", "output-2000-all", "radicand-4301"])
def test_digit_limit_refusal_names_the_limit(argv):
    # the input is refused as it is read, the output as it is written
    code, err = check_contract(argv)
    assert code == 2 and "4300-digit limit" in err, err


@pytest.mark.parametrize("coordinate", ["9" * 4301, "9_" * 4400 + "9", "0." + "0" * 4400 + "1"],
                         ids=["integer-4301", "underscored-4401", "decimal-4401"])
def test_overlong_placement_coordinate_names_the_limit(coordinate):
    # Fraction(str) let Python's own remedy through
    code, err = check_contract(["render", "conics", f"--placement={coordinate} 0 1 0 0 1"])
    assert code == 2 and "4300-digit limit" in err, err


@pytest.mark.parametrize("coordinate", ["1e40000000", "1e-40000000", "1e4301"])
def test_placement_exponent_past_the_limit_is_refused_fast(coordinate):
    # Fraction builds 10**exponent exactly: 1e10000000 alone takes seconds
    start = time.perf_counter()
    code, err = check_contract(["render", "conics", f"--placement={coordinate} 0 1 0 0 1"])
    assert code == 2 and "4300-digit limit" in err and "exponent" in err, err
    assert time.perf_counter() - start < 1.0
