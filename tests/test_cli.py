import json
import math
import os
import time
import tracemalloc
import warnings

from starclean import cli
from starclean.cli import main
from starclean.rings import TABLE_BYTES_PER_PAIR
from starclean.suites import SuiteRow


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_json_shape(capsys):
    code, out = run_cli(
        capsys, "check", "--ring", "Z4", "--inv", "id", "--prop", "strongly-pi-star-regular"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["witness"] is None
    assert "elapsed_ms" in payload


def test_check_psr_witness(capsys):
    code, out = run_cli(capsys, "check", "--ring", "M2(Z2)", "--inv", "tr(id)", "--prop", "psr1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witness"]["kind"] == "pair"
    assert "[[" in payload["witness"]["text"]  # structural rendering, not bare ids


def test_element_output(capsys):
    code, out = run_cli(capsys, "element", "--ring", "Z4", "--inv", "id", "--elem", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["strongly-star-regular"]["holds"] is False
    assert all(payload["power-conditions"][t]["holds"] for t in ("c1", "c2", "c3", "c4"))
    assert payload["clean"]["certificates"]
    assert payload["element"]["text"] == "2"


def test_element_out_of_range(capsys):
    code, _ = run_cli(capsys, "element", "--ring", "Z4", "--inv", "id", "--elem", "9")
    assert code == 2


def test_suite_subset_and_exit(capsys):
    code, out = run_cli(capsys, "suite", "--suites", "BOOL,LOCAL-EQUIV", "--format", "text")
    assert code == 0
    assert "overall: PASS" in out


def test_suite_unknown_tag(capsys):
    code, _ = run_cli(capsys, "suite", "--suites", "NOPE")
    assert code == 2


def test_suite_violation_exit_code(capsys, monkeypatch):
    import starclean.suites as suites_mod

    def fake(corpus):
        return [SuiteRow("X", False, "synthetic failure")]

    monkeypatch.setitem(suites_mod.SUITES, "FAKE", fake)
    code, out = run_cli(capsys, "suite", "--suites", "FAKE")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["suites"][0]["rings"][0]["status"] == "violation"


def test_numeric_verdicts(capsys, tmp_path):
    sym = tmp_path / "sym.csv"
    sym.write_text("2,1\n1,2\n")
    code, out = run_cli(capsys, "numeric", str(sym))
    assert code == 0 and json.loads(out)["verdict"] == "true"

    asym = tmp_path / "asym.json"
    asym.write_text("[[1,1],[0,0]]")
    code, out = run_cli(capsys, "numeric", str(asym))
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "false"
    assert payload["index"] == 1 and payload["rank"] == 1

    ill = tmp_path / "ill.csv"
    ill.write_text("1,0\n0,1e-8\n")
    code, out = run_cli(capsys, "numeric", str(ill))
    assert code == 0 and json.loads(out)["verdict"] == "ill-conditioned"

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code, _ = run_cli(capsys, "numeric", str(bad))
    assert code == 2


def test_numeric_missing_file_exit(capsys, tmp_path):
    code = main(["numeric", str(tmp_path / "missing.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read matrix file")
    assert captured.err.count("\n") == 1


def test_numeric_conjugate_mode(capsys, tmp_path):
    herm = tmp_path / "herm.csv"
    herm.write_text("2,1i\n-1i,1\n")
    code, out = run_cli(capsys, "numeric", str(herm), "--inv", "conjugate-transpose")
    assert code == 0 and json.loads(out)["verdict"] == "true"


def test_corpus_matrix_csv(capsys):
    code, out = run_cli(capsys, "corpus-matrix", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,size,clean,")
    assert len(lines) == 1 + 18  # header + default corpus members


def test_corpus_file_roundtrip(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(
        json.dumps(
            [
                {"ring": "Z4", "inv": "id", "label": "four"},
                {"ring": "Z2xZ2", "inv": "swap"},
            ]
        )
    )
    code, out = run_cli(
        capsys, "suite", "--corpus", str(corpus), "--suites", "BOOL,ELEM-EQUIV"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["corpus"] == ["four", "Z2xZ2/swap"]


def test_corpus_file_entry_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"ring": "Z4", "inv": "id"}, {"ring": "W1", "inv": "id"}]))
    code, _ = run_cli(capsys, "suite", "--corpus", str(corpus))
    assert code == 2
    corpus.write_text("[]")
    code, _ = run_cli(capsys, "suite", "--corpus", str(corpus))
    assert code == 2


def test_unknown_property_exit(capsys):
    code, _ = run_cli(capsys, "check", "--ring", "Z4", "--inv", "id", "--prop", "shiny")
    assert code == 2


def test_corpus_matrix_deterministic_under_jobs(capsys):
    code1, out1 = run_cli(capsys, "corpus-matrix", "--jobs", "4")
    code2, out2 = run_cli(capsys, "corpus-matrix", "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_file_table_involution(capsys, tmp_path):
    (tmp_path / "inv.json").write_text(json.dumps([0, 1, 2, 3]))
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"ring": "Z4", "inv": "table:inv.json"}]))
    code, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--suites", "ELEM-EQUIV")
    assert code == 0


def test_table_involution_rejects_non_integer_entries(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"ring": "Z4", "inv": "table:inv.json"}]))
    for entries in (["a", 1, 2, 3], [0, 1.7, 2, 3], [0, True, 2, 3], [0, 1, 2, 2**70]):
        (tmp_path / "inv.json").write_text(json.dumps(entries))
        code, out = run_cli(capsys, "suite", "--corpus", str(corpus), "--suites", "ELEM-EQUIV")
        assert code == 2, entries
        assert out == ""


def test_corpus_label_must_be_a_string(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"ring": "Z4", "inv": "id", "label": 5}]))
    code, out = run_cli(capsys, "suite", "--corpus", str(corpus), "--format", "text")
    assert code == 2
    assert out == ""


def test_cap_beyond_physical_memory_is_refused_fast(capsys):
    start = time.perf_counter()
    code = main(["check", "--cap", "2000000", "--ring", "TP(Z2,20)", "--inv", "tp(id)",
                 "--prop", "boolean"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 0.5
    assert "more than the 65536 that 16-bit element ids can name" in err


def test_ring_beyond_16_bit_ids_is_refused_without_allocating(capsys):
    tracemalloc.start()
    try:
        code = main(["check", "--cap", "70000", "--ring", "Z65537", "--inv", "id",
                     "--prop", "boolean"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert err == (
        "error: ring would have 65537 elements, more than the 65536 that 16-bit "
        "element ids can name\n"
    )
    assert peak < 1 << 20  # the add and mul tables alone would take 16 GiB


def test_tables_beyond_physical_memory_are_refused(capsys, monkeypatch):
    real = os.sysconf
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}  # 1 MiB of memory
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))
    code = main(["check", "--ring", "Z1000", "--inv", "id", "--prop", "boolean"])
    err = capsys.readouterr().err
    assert code == 3
    assert str(TABLE_BYTES_PER_PAIR * 1000**2) in err
    assert str(1 << 20) in err


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _ = run_cli(capsys, "check", "--ring", "Z5000", "--inv", "id", "--prop", "boolean")
    assert code == 3
    # the flag overrides the default in both directions
    code, _ = run_cli(
        capsys, "check", "--ring", "Z9", "--inv", "id", "--prop", "boolean", "--cap", "8"
    )
    assert code == 3
    code, _ = run_cli(
        capsys, "check", "--ring", "Z9", "--inv", "id", "--prop", "boolean", "--cap", "9"
    )
    assert code == 0
    monkeypatch.setenv("STARCLEAN_CAP", "8")
    code, _ = run_cli(capsys, "check", "--ring", "Z9", "--inv", "id", "--prop", "boolean")
    assert code == 3
    monkeypatch.setenv("STARCLEAN_CAP", "4096")
    code, _ = run_cli(capsys, "check", "--ring", "Z9", "--inv", "id", "--prop", "boolean")
    assert code == 0


def test_fixture_command(capsys):
    code, out = run_cli(capsys, "fixture", "--list")
    assert code == 0 and "m2-z3-transpose" in out
    code, out = run_cli(capsys, "fixture", "boolean-swap")
    assert code == 0
    assert json.loads(out)["results"][0]["pass"] is True
    code, _ = run_cli(capsys, "fixture", "no-such-fixture")
    assert code == 2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "check", "--ring", "Z4", "--inv", "id", "--prop", "clean", "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == out


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(["check", "--ring", "Z4", "--inv", "id", "--prop", "boolean", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.err.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


def test_numeric_overflow_is_ill_conditioned_not_nan(capsys, tmp_path):
    for rows in ([[1e300, 1e300], [0, 0]], [[1e200, 0], [0, 1]]):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "numeric", str(path))
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        # the same matrix scaled by a power of two to unit size
        e = math.frexp(max(abs(x) for row in rows for x in row))[1]
        path.write_text(json.dumps([[math.ldexp(x, -e) for x in row] for row in rows]))
        _, unit = run_cli(capsys, "numeric", str(path))
        assert payload["verdict"] == json.loads(unit)["verdict"], rows


def _undecodable(tmp_path):
    path = tmp_path / "undecodable.bin"
    path.write_bytes(b"\xff\xfe")
    return path


def _assert_cannot_read(capsys, argv, what):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {what}")
    assert captured.err.count("\n") == 1


def test_numeric_undecodable_file_exits_2(capsys, tmp_path):
    _assert_cannot_read(capsys, ["numeric", str(_undecodable(tmp_path))], "matrix file")


def test_suite_undecodable_corpus_exits_2(capsys, tmp_path):
    argv = ["suite", "--corpus", str(_undecodable(tmp_path))]
    _assert_cannot_read(capsys, argv, "corpus file")


def test_check_undecodable_involution_table_exits_2(capsys, tmp_path):
    argv = ["check", "--ring", "Z4", "--inv", f"table:{_undecodable(tmp_path)}",
            "--prop", "clean"]
    _assert_cannot_read(capsys, argv, "involution table")


def test_numeric_bad_tol_exits_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1,1],[0,0]]")
    for tol in ("-1", "nan", "inf", "-inf", "abc"):
        code = main(["numeric", str(path), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2, tol
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a finite number >= 0, got {tol!r}\n"
    code, out = run_cli(capsys, "numeric", str(path), "--tol", "0")
    assert code == 0 and json.loads(out)["tol"] == 0.0


def test_zero_ring_recipe_exits_2(capsys):
    for ring in ("Q(Z4,[1])", "Q(Z6,[2,3])", "M2(Q(Z4,[3]))"):
        code = main(["check", "--ring", ring, "--inv", "id", "--prop", "clean"])
        captured = capsys.readouterr()
        assert code == 2, ring
        assert captured.out == ""
        assert captured.err.endswith("is the zero ring, where 1 = 0\n"), ring
    # a product with the zero ring is a ring where 1 != 0
    code, out = run_cli(capsys, "check", "--ring", "Q(Z4,[1])xZ2", "--inv", "prod(id,id)",
                        "--prop", "clean")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(S, prop):
        raise RuntimeError("table lookup\nwent wrong")

    monkeypatch.setattr(cli, "ring_property", broken)
    code = main(["check", "--ring", "Z4", "--inv", "id", "--prop", "clean"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == (
        "error: internal: RuntimeError: table lookup went wrong (at test_cli.py:"
        f"{broken.__code__.co_firstlineno + 1} in broken)\n"
    )
