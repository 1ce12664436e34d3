"""The exit-code contract of the command line, fuzzed in-process.

Hypothesis draws argv, ring and involution recipes, and the contents of the
corpus, involution-table and matrix files the argv names. Whatever it draws,
``cli.main`` must end in 0, 1, 2 or 3; 4 is an internal error, that is a bug.
On 0 or 1 a JSON report must be strict JSON.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from starclean import cli
from starclean.fixtures import FIXTURES
from starclean.properties import PROPERTIES
from starclean.suites import SUITE_TAGS

# integers in recipes: small ones build rings, the long ones must be refused
_digits = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(0, 80).map(str),
    st.sampled_from(["99999999999999999999", "9" * 5000]),
)
_group = st.recursive(
    _digits.map(lambda d: f"C{d}"), lambda g: st.tuples(g, g).map("*".join), max_leaves=3
)


def _ring_extend(r):
    return st.one_of(
        st.tuples(r, r).map("x".join),
        st.tuples(_digits, r).map(lambda t: f"M{t[0]}({t[1]})"),
        st.tuples(r, _group).map(lambda t: f"GR({t[0]},{t[1]})"),
        st.tuples(r, _digits).map(lambda t: f"TP({t[0]},{t[1]})"),
        st.tuples(r, st.lists(_digits, min_size=1, max_size=3)).map(
            lambda t: f"Q({t[0]},[{','.join(t[1])}])"
        ),
    )


_ring = st.one_of(
    st.recursive(_digits.map(lambda d: f"Z{d}"), _ring_extend, max_leaves=4),
    st.text(alphabet="ZMGRTPQCx*()[], 0123456789", max_size=20),
)


# recipes that build, so that the deciders run too
_star_ring = st.sampled_from(
    [
        ("Z4", "id"),
        ("Z6", "id"),
        ("Z2xZ2", "swap"),
        ("Z2xZ3", "prod(id,id)"),
        ("M2(Z2)", "tr(id)"),
        ("GR(Z2,C2*C2)", "grp(id)"),
        ("GR(Z3,C2)", "grp(id)"),
        ("TP(Z2,3)", "tp(id)"),
        ("Q(Z8,[4])", "id"),
        ("Q(M2(Z4),[130])", "tr(id)"),
        ("Z8", "table:inv.json"),
    ]
)


def _inv_extend(i):
    return st.one_of(
        st.sampled_from(["tr", "grp", "tp"]).flatmap(lambda k: i.map(lambda s: f"{k}({s})")),
        st.tuples(i, i).map(lambda t: f"prod({t[0]},{t[1]})"),
    )


# a table path is relative: a corpus reads it next to itself, argv gets it absolute
_inv = st.one_of(
    st.recursive(
        st.sampled_from(["id", "swap", "table:inv.json", "table:missing.json"]),
        _inv_extend,
        max_leaves=3,
    ),
    st.text(alphabet="idswaptrgp(),:.json ", max_size=12),
)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda j: st.lists(j, max_size=4) | st.dictionaries(st.text(max_size=5), j, max_size=3),
    max_leaves=10,
)
# files every reader must refuse cleanly: not UTF-8, empty, and JSON holding an
# integer too long to convert or too large for a float
_edge = st.sampled_from(
    [b"\xff\xfe", b"", b"[]", b"{}", b"[" + b"9" * 5000 + b"]", b"[[" + b"9" * 400 + b"]]"]
)
_raw = st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode))


def _dumps(value):
    return json.dumps(value).encode()


_recipes = st.one_of(_star_ring, st.tuples(_ring, _inv))
_entry = st.tuples(_recipes, st.one_of(st.none(), st.text(max_size=5), st.integers())).map(
    lambda t: {"ring": t[0][0], "inv": t[0][1], "label": t[1]}
)
_corpus_file = st.one_of(
    st.lists(_entry, min_size=1, max_size=3).map(_dumps),
    _edge,
    _json.map(_dumps),
    _raw,
)
_table_file = st.one_of(
    st.integers(1, 64).map(lambda n: _dumps(list(range(n)))),
    _edge,
    st.lists(st.integers(-2, 70), max_size=70).map(_dumps),
    _json.map(_dumps),
    _raw,
)
_number = st.one_of(
    st.integers(-5, 5),
    st.floats(),
    st.sampled_from(["1+2i", "-i", "x", 1e308, True]),
)


def _square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


_matrix_file = st.one_of(
    _square(st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3))).map(_dumps),
    st.sampled_from([b"[[1e999]]", b"[[NaN]]", b"[[]]", b"1,x"]),
    _edge,
    _square(_number).map(_dumps),
    st.lists(st.lists(_number, max_size=4), max_size=4).map(_dumps),
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3).map(
        lambda rows: "\n".join(",".join(map(str, r)) for r in rows).encode()
    ),
    _raw,
)

_fmt = st.sampled_from([[], ["--format", "json"], ["--format", "text"], ["--format", "csv"]])
_out = st.sampled_from([[], ["--out", "OUT/report.txt"], ["--out", "OUT/missing/report.txt"]])
_corpus_arg = st.sampled_from(["CORPUS", "default", "OUT/missing.json", "OUT/matrix.csv"])
_jobs = st.sampled_from([[], ["--jobs", "1"], ["--jobs", "3"], ["--jobs", "x"]])


def _words(choices):
    return st.one_of(st.sampled_from(choices), st.text(max_size=8))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


_command = st.one_of(
    st.tuples(_recipes, _words(PROPERTIES)).map(
        lambda t: ["check", "--ring", t[0][0], "--inv", t[0][1], "--prop", t[1]]
    ),
    st.tuples(_recipes, st.one_of(st.integers(-3, 70).map(str), st.text(max_size=4))).map(
        lambda t: ["element", "--ring", t[0][0], "--inv", t[0][1], "--elem", t[1]]
    ),
    st.tuples(
        _corpus_arg,
        st.one_of(
            st.just("all"),
            st.lists(_words(SUITE_TAGS), max_size=3).map(",".join),
        ),
        _jobs,
    ).map(lambda t: ["suite", "--corpus", t[0], "--suites", t[1], *t[2]]),
    st.tuples(
        st.sampled_from(["OUT/matrix.json", "OUT/matrix.csv", "OUT/missing.csv"]),
        _option("--inv", st.sampled_from(["transpose", "conjugate-transpose", "x"])),
        _option("--tol", _words(["0", "1e-8", "-1", "nan", "inf"])),
    ).map(lambda t: ["numeric", t[0], *t[1], *t[2]]),
    st.tuples(_corpus_arg, _jobs).map(lambda t: ["corpus-matrix", "--corpus", t[0], *t[1]]),
    st.one_of(
        st.just(["fixture", "--list"]),
        st.lists(_words(sorted(FIXTURES)), max_size=1).map(lambda names: ["fixture", *names]),
    ),
    st.lists(st.text(max_size=8), max_size=4),
)


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    command=_command,
    fmt=_fmt,
    out=_out,
    corpus=_corpus_file,
    table=_table_file,
    matrix=_matrix_file,
)
def test_every_input_gets_a_documented_exit_code(
    capsys, tmp_path, command, fmt, out, corpus, table, matrix
):
    (tmp_path / "corpus.json").write_bytes(corpus)
    (tmp_path / "inv.json").write_bytes(table)
    (tmp_path / "matrix.json").write_bytes(matrix)
    (tmp_path / "matrix.csv").write_bytes(matrix)
    absolute_table = f"table:{tmp_path / 'inv.json'}"
    argv = [
        arg.replace("CORPUS", str(tmp_path / "corpus.json"))
        .replace("OUT", str(tmp_path))
        .replace("table:inv.json", absolute_table)
        for arg in [*command, *fmt, *out, "--cap", "64"]
    ]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --help
        assert exc.code in (0, 2), argv
        return
    stdout = capsys.readouterr().out
    assert code in (0, 1, 2, 3), argv
    if code in (0, 1) and "--list" not in argv and fmt in ([], ["--format", "json"]):
        json.loads(stdout, parse_constant=_reject_constant)
