import hashlib
import os
import subprocess
import sys
import time

import pytest

import addcomb
from addcomb import CertificateError, cli, search
from addcomb.cli import main

MSTD8 = "0\n2\n3\n4\n7\n11\n12\n14\n"
REFLECTED = "0\n2\n3\n7\n10\n11\n12\n14\n"
SQRT2_SET = "basis: 1=1.0, sqrt2=1.4142135623730951\n0, 0\n1, 0\n0, 1\n"


@pytest.fixture
def m8(tmp_path):
    p = tmp_path / "m8.set"
    p.write_text(MSTD8)
    return str(p)


@pytest.fixture
def refl(tmp_path):
    p = tmp_path / "refl.set"
    p.write_text(REFLECTED)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mstd_output(capsys, m8):
    code, out, _ = run(capsys, "mstd", m8)
    assert code == 0
    assert out == "sum=26 diff=25 MSTD=yes\n"


def test_mstd_records(capsys, m8):
    code, out, _ = run(capsys, "mstd", "--records", m8)
    assert code == 0
    assert out == "26\t25\tyes\n"


def test_image_singleton(capsys, tmp_path):
    p = tmp_path / "s.set"
    p.write_text("0\n")
    code, out, _ = run(capsys, "image", "--form", "1,1", str(p))
    assert code == 0
    assert out.splitlines()[0] == "{0}"
    assert "size=1" in out


def test_image_records_with_multiplicities(capsys, tmp_path):
    p = tmp_path / "t.set"
    p.write_text("0\n1\n")
    code, out, _ = run(capsys, "image", "--form", "1,1", "--records", str(p))
    assert code == 0
    assert out == "0\t1\n1\t2\n2\t1\n"


def test_iso_check_order_identity(capsys, m8):
    code, out, _ = run(capsys, "iso-check", "--form", "1,1", m8, m8)
    assert code == 0
    assert "homomorphism=yes isomorphism=yes" in out


def test_iso_check_with_pairing_file(capsys, tmp_path, m8, refl):
    pairing = tmp_path / "map.txt"
    pairing.write_text("".join(f"{i} {9 - i}\n" for i in range(1, 9)))
    code, out, _ = run(capsys, "iso-check", "--form", "1,1", "--map", str(pairing), m8, refl)
    assert code == 0
    assert "isomorphism=yes" in out


def test_iso_check_failure_has_witness(capsys, tmp_path):
    a = tmp_path / "a.set"
    a.write_text("0\n1\n2\n")
    b = tmp_path / "b.set"
    b.write_text("0\n1\n3\n")
    code, out, _ = run(capsys, "iso-check", "--form", "1,1", str(a), str(b))
    assert code == 0
    assert "isomorphism=no" in out
    assert "witness" in out


def test_iso_check_pairing_missing_an_element_exit_code(capsys, tmp_path):
    a = tmp_path / "a.set"
    a.write_text("0\n1\n2\n")
    pairing = tmp_path / "map.txt"
    argv = ("iso-check", "--form", "1,1", "--map", str(pairing), str(a), str(a))
    for text, missing in (("1 1\n", "1 has no image"), ("", "0 has no image")):
        pairing.write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert missing in err


def test_iso_check_pairing_non_integer_exit_code(capsys, tmp_path):
    a = tmp_path / "a.set"
    a.write_text("0\n1\n2\n")
    pairing = tmp_path / "map.txt"
    pairing.write_text("# comment\n1 x\n")
    argv = ("iso-check", "--form", "1,1", "--map", str(pairing), str(a), str(a))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2:") and err.count("\n") == 1


def test_iso_check_pairing_repeated_index_exit_code(capsys, tmp_path):
    a = tmp_path / "a.set"
    a.write_text("0\n1\n3\n")
    pairing = tmp_path / "map.txt"
    pairing.write_text("1 1\n1 2\n2 3\n3 1\n")
    argv = ("iso-check", "--form", "1,1", "--map", str(pairing), str(a), str(a))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2:") and err.count("\n") == 1


def test_iso_check_pairing_two_indices_onto_one_exit_code(capsys, tmp_path):
    a = tmp_path / "a.set"
    a.write_text("0\n1\n3\n")
    pairing = tmp_path / "map.txt"
    pairing.write_text("1 1\n2 1\n3 2\n")
    argv = ("iso-check", "--form", "1,1", "--map", str(pairing), str(a), str(a))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: line 2: index 1 of the second set is paired twice\n"


def test_classify8(capsys, m8, refl):
    code, out, _ = run(capsys, "classify8", m8)
    assert (code, out) == (0, "lambda=1 mu=0 matched=canonical\n")
    code, out, _ = run(capsys, "classify8", refl)
    assert (code, out) == (0, "lambda=-1 mu=14 matched=reflection\n")


def test_realize_all_methods(capsys, tmp_path):
    p = tmp_path / "r.set"
    p.write_text(SQRT2_SET)
    for method, marker in (("group", "lambda="), ("dirichlet", "q="), ("lp", "pivots=")):
        code, out, _ = run(capsys, "realize", "--method", method, "--form", "1,1", str(p))
        assert code == 0
        assert "certificate=OK" in out
        assert marker in out


def test_realize_records_line(capsys, tmp_path):
    p = tmp_path / "r.set"
    p.write_text(SQRT2_SET)
    code, out, _ = run(capsys, "realize", "--method", "group", "--form", "1,1", "--records", str(p))
    assert code == 0
    assert out == "1,2,7\tgroup\tlambda=6\tcertificate=OK\n"


def test_realize_certificate_failure_exits_3(capsys, monkeypatch, m8):
    import addcomb.cli as cli_mod

    def boom(A, form, method):
        raise CertificateError("forced")

    monkeypatch.setattr(cli_mod, "realize", boom)
    code, _, err = run(capsys, "realize", "--form", "1,1", "--method", "lp", m8)
    assert code == 3
    assert "certificate" in err


@pytest.mark.parametrize("command", ["image", "iso-check", "realize"])
def test_zero_denominator_in_form_is_one_line(capsys, m8, command):
    sets = (m8, m8) if command == "iso-check" else (m8,)
    code, _, err = run(capsys, command, "--form", "1/0", *sets)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "'1/0'" in err


def test_search_mstd_golden(capsys):
    code, out, _ = run(capsys, "search", "mstd", "--max-diameter", "14")
    assert code == 0
    assert out == "0,1,2,4,5,9,12,13,14\t28\t27\n0,2,3,4,7,11,12,14\t26\t25\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_triple_report_equal_golden(capsys, monkeypatch, jobs):
    # eight tasks of 2^11 sets, and a pool at this size too, so --jobs 2
    # starts two workers
    monkeypatch.setattr(search, "TASK_WORDS", 8 << 11)
    monkeypatch.setattr(search, "POOL_WORDS", 1)
    code, out, _ = run(
        capsys, "search", "triple", "--max-diameter", "14", "--report-equal", "--jobs", jobs
    )
    assert code == 0
    assert len(out.splitlines()) == 1861
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3ae7910a571409eb01e8d628b47307ecbd83ba28cdb5a2f2bee584fe554bcfd6"


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ("triple", "--report-equal", "--max-diameter", "17"),
            13449,
            "4035d7be298c19d67c1c587fb6817fbfd0ad2c6deca3f35a321481f1b612cbb0",
        ),
        (
            ("mstd", "--max-diameter", "18", "--size", "9", "--require-endpoints"),
            1,
            "a22dca03902ebe4464b3bfd041b0387e9786b2e6b660688a4187680d29ea7b21",
        ),
    ],
)
def test_search_outputs_are_pinned(capsys, argv, lines, digest):
    code, out, _ = run(capsys, "search", *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_stats_on_stderr(capsys):
    code, out, err = run(capsys, "search", "mstd", "--max-diameter", "8", "--stats")
    assert code == 0
    assert out == ""
    assert "examined=256" in err and "wall=" in err


def test_search_stats_count_only_sets_with_both_endpoints(capsys):
    argv = ("search", "mstd", "--max-diameter", "8", "--require-endpoints", "--stats")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == ""
    assert "examined=128 " in err


def test_search_stats_split_the_phases(capsys):
    """The phase keys follow examined= and wall= in order: the class count,
    the scan and the records, whose times add up to the wall time."""
    argv = ("search", "triple", "--max-diameter", "8", "--report-equal", "--stats")
    code, out, err = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 50
    fields = dict(word.split("=") for word in err.split())
    assert list(fields) == ["examined", "wall", "classes", "scan", "records"]
    assert err.startswith("examined=256 ") and fields["classes"] == "50"
    wall, scan, records = (float(fields[k].removesuffix("s")) for k in ("wall", "scan", "records"))
    assert abs(wall - scan - records) <= 0.0015
    code, out, err = run(capsys, "search", "mstd", "--max-diameter", "8", "--stats")
    assert (code, out) == (0, "") and " classes=0 scan=" in err


def test_search_records_are_written_in_chunks(capsys, monkeypatch):
    """Records go out RECORD_CHUNK lines at a time, one write each, with
    the same text as in one piece."""
    argv = ("search", "triple", "--max-diameter", "8", "--report-equal")
    _, whole, _ = run(capsys, *argv)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(cli, "RECORD_CHUNK", 7)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(list(argv)) == 0
    assert "".join(writes) == whole
    assert [w.count("\n") for w in writes] == [7] * 7 + [1]


def test_search_triple(capsys):
    code, out, _ = run(capsys, "search", "triple", "--max-diameter", "6")
    assert code == 0
    assert out == ""


def test_mptq_command(capsys, tmp_path):
    p = tmp_path / "p.set"
    p.write_text("1\n4\n8\n16\n128\n2048\n4096\n16384\n")
    code, out, _ = run(capsys, "mptq", p.as_posix())
    assert code == 0
    assert out == "products=26 quotients=25 MPTQ=yes\n"


def test_transport_round_trip(capsys, tmp_path, m8):
    code, out, _ = run(capsys, "transport", "exp", "--base", "2", "--records", m8)
    assert code == 0
    assert out.strip() == "1,4,8,16,128,2048,4096,16384"
    powers = tmp_path / "pow.set"
    powers.write_text("\n".join(out.strip().split(",")) + "\n")
    code, out, _ = run(capsys, "transport", "log", "--base", "2", "--records", str(powers))
    assert code == 0
    assert out.strip() == "0,2,3,4,7,11,12,14"


@pytest.mark.parametrize(
    "argv", [("mptq",), ("transport", "log", "--base", "2")], ids=["mptq", "transport-log"]
)
def test_symbolic_set_on_multiplicative_side_exit_code(capsys, tmp_path, argv):
    p = tmp_path / "sqrt2.set"
    p.write_text(SQRT2_SET)
    code, out, err = run(capsys, *argv, str(p))
    assert code == 1
    assert out == ""
    assert err == "error: products and quotients need rational elements\n"


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.set"
    p.write_text("1\nnonsense\n")
    code, _, err = run(capsys, "mstd", str(p))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "text, form, message",
    [
        ("1e100000000\n", None, "error: line 1: bad rational '1e100000000': exponent past"),
        ("0\n1e-100000000\n", None, "error: line 2: bad rational '1e-100000000': exponent past"),
        (MSTD8, "1e100000000,1", "error: bad form coefficient '1e100000000'"),
    ],
    ids=["set-file", "set-file-negative", "form"],
)
def test_huge_decimal_exponent_is_refused_at_once(capsys, tmp_path, text, form, message):
    """Fraction would build 10^100000000 and hang: an exponent past the
    int-string digit limit is a parse error, one line and exit code 1 in
    well under a second. The CLI also runs in a child with a timeout, so
    that a hang fails rather than stalls the suite."""
    p = tmp_path / "huge.set"
    p.write_text(text)
    argv = ["mstd", str(p)] if form is None else ["image", "--form", form, str(p)]
    src = os.path.dirname(os.path.dirname(addcomb.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert child.returncode == 1
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (1, "", child.stderr)
    assert len(err.splitlines()) == 1 and err.startswith(message)


@pytest.mark.parametrize(
    "argv, text, form",
    [
        (("image", "--form", "1,1"), "0\n1e{limit}\n", None),
        (("realize", "--form", "1,1"), "0\n1e{limit}\n", None),
        (("image", "--form", "1e{limit},1"), "0\n1\n", "1e{limit}"),
    ],
    ids=["image", "realize", "form"],
)
def test_value_past_the_digit_limit_is_one_line(capsys, tmp_path, argv, text, form):
    """10^limit has one digit more than Python prints: it is refused where
    it is read, with the line or the coefficient named, and 10^(limit-1)
    goes through."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no digit limit in this interpreter")
    p = tmp_path / "big.set"
    p.write_text(text.format(limit=limit))
    code, out, err = run(capsys, *(a.format(limit=limit) for a in argv), str(p))
    if form is None:
        want = f"error: line 2: bad rational '1e{limit}': value past the {limit}-digit limit\n"
    else:
        want = f"error: bad form coefficient '{form.format(limit=limit)}'\n"
    assert (code, out, err) == (1, "", want)
    p.write_text(text.format(limit=limit - 1))
    code, out, err = run(capsys, *(a.format(limit=limit - 1) for a in argv), str(p))
    assert code == 0 and err == ""


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "mstd", "/nonexistent/path.set")
    assert code == 1
    assert "error" in err


def test_search_jobs_below_one_exit_code(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "search", "mstd", "--max-diameter", "8", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_search_triple_jobs_below_one_exit_code(capsys):
    code, out, err = run(capsys, "search", "triple", "--max-diameter", "6", "--jobs", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_search_bad_jobs_environment_exit_code(capsys, monkeypatch):
    for value in ("0", "-2", "two"):
        monkeypatch.setenv("ADDCOMB_JOBS", value)
        for mode in ("mstd", "triple"):
            code, out, err = run(capsys, "search", mode, "--max-diameter", "6")
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "ADDCOMB_JOBS" in err


def test_search_diameter_over_node_budget_exit_code(capsys):
    code, out, err = run(capsys, "search", "mstd", "--max-diameter", "40")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_mstd_on_nan_basis_exit_code(capsys, tmp_path):
    p = tmp_path / "nan.set"
    p.write_text("basis: 1=1.0, r=nan\n0, 0\n1, 0\n0, 1\n")
    code, out, err = run(capsys, "mstd", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_dirichlet_on_element_too_large_for_float_exit_code(capsys, tmp_path):
    p = tmp_path / "huge.set"
    p.write_text(f"{10**309}\n1\n")
    code, out, err = run(capsys, "realize", "--method", "dirichlet", "--form", "1,1", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


#: A = {0, 1, t, 3} with t declared as 2.0: the sums 2 and t tie in floats
TIE_SET = "basis: 1=1.0, t=2.0\n0, 0\n1, 0\n0, 1\n3, 0\n"
TIE_MESSAGE = (
    "float tie between distinct symbolic reals (0, 1) and (2, 0); "
    "basis approximations cannot order them"
)


@pytest.fixture
def tie(tmp_path):
    p = tmp_path / "tie.set"
    p.write_text(TIE_SET)
    return str(p)


def test_mstd_counts_a_float_tie_without_ordering(capsys, tie):
    code, out, err = run(capsys, "mstd", tie)
    assert (code, out, err) == (0, "sum=10 diff=13 MSTD=no\n", "")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("image", "--form", "1,1"), ""),
        (("realize", "--method", "dirichlet", "--form", "1,1"), "cannot order the form image: "),
        (("realize", "--method", "lp", "--form", "1,1"), "cannot order the form values: "),
    ],
)
def test_ordering_a_float_tie_is_one_line(capsys, tie, argv, prefix):
    code, out, err = run(capsys, *argv, tie)
    assert (code, out) == (1, "")
    assert err == f"error: {prefix}{TIE_MESSAGE}\n"


def test_tie_message_prints_rational_coordinates_by_str(capsys, tie):
    code, out, err = run(capsys, "image", "--form", "1/2,-3/4", tie)
    assert (code, out) == (1, "")
    assert err == (
        "error: float tie between distinct symbolic reals (0, 0) and (3/2, -3/4); "
        "basis approximations cannot order them\n"
    )


def test_set_too_large_for_a_float_is_answered(capsys, tmp_path):
    """{10**400, s} orders on its integer coordinates; no float is computed."""
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, s=1.4142135623730951\n{10**400}, 0\n0, 1\n")
    assert run(capsys, "mstd", str(p)) == (0, "sum=3 diff=3 MSTD=no\n", "")


DIRICHLET_FLOAT_ERROR = (
    "error: an element or form value is too large for a float; "
    "the denominator search needs float approximations\n"
)


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("image", "--form", "1,1"),
            (0, f"{{<2*s>, <{10**308}*1 + 1*s>, <{2 * 10**308}*1>}}\nsize=3\n", ""),
        ),
        (
            ("realize", "--method", "lp", "--form", "1,1"),
            (0, "B = {1, 2}\nmethod=lp pivots=1\ncertificate=OK\n", ""),
        ),
        (("realize", "--method", "dirichlet", "--form", "1,1"), (1, "", DIRICHLET_FLOAT_ERROR)),
    ],
)
def test_image_too_large_for_a_float(capsys, tmp_path, argv, want):
    """A = {10**308, s}: the sum 2 * 10**308 is past the float range, which
    only the dirichlet route's float search needs."""
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, s=1.4142135623730951\n{10**308}, 0\n0, 1\n")
    assert run(capsys, *argv, str(p)) == want


@pytest.mark.parametrize(
    "coords",
    [
        (10**400, 0, 0),  # float() of the coordinate overflows
        (0, 10, 0),  # a term is inf
        (10**308, 1, 0),  # fsum overflows
        (0, 10, -10),  # inf - inf
    ],
)
def test_dirichlet_refuses_values_past_the_float_range(capsys, tmp_path, coords):
    """Each value, with bigger = (0, 0, 1) far from it, orders exactly; the
    q-scan then needs floats that do not exist."""
    row = ", ".join(map(str, coords))
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, big=1e308, bigger=1e308\n{row}\n0, 0, 1\n")
    code, out, err = run(capsys, "realize", "--method", "dirichlet", "--form", "1,1", str(p))
    assert (code, out, err) == (1, "", DIRICHLET_FLOAT_ERROR)


#: 1000 * sqrt2 - 1414 = 0.2135623730950488... is below 0.2135623730951, but
#: the declared sqrt2, trusted to half an ulp, cannot tell the two apart
CLOSE_SET = (
    "basis: 1=1.0, sqrt2=1.4142135623730951\n-1414, 1000\n2135623730951/10000000000000, 0\n"
)


@pytest.mark.parametrize("argv", [("image", "--form", "1"), ("iso-check", "--form", "1,1")])
def test_values_closer_than_the_basis_resolves_are_a_tie(capsys, tmp_path, argv):
    p = tmp_path / "close.set"
    p.write_text(CLOSE_SET)
    files = (str(p), str(p)) if argv[0] == "iso-check" else (str(p),)
    assert run(capsys, *argv, *files) == (
        1,
        "",
        "error: float tie between distinct symbolic reals (2135623730951/10000000000000, 0) "
        "and (-1414, 1000); basis approximations cannot order them\n",
    )


def test_dirichlet_stops_where_q_times_a_overflows(capsys, tmp_path):
    """q * 10**308 leaves the float range at q = 2: the scan ends in its
    first block, without a numpy warning, once q = 1 failed for sqrt2."""
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, s=1.4142135623730951\n{10**308}, 0\n0, 1\n")
    code, out, err = run(capsys, "realize", "--method", "dirichlet", "--form", "1,-1", str(p))
    assert (code, out) == (1, "")
    assert err == (
        "error: q * a overflows a float for some q <= 1024; "
        "the denominator search needs finite residuals\n"
    )


def test_dirichlet_answers_at_q_below_the_overflow(capsys, tmp_path):
    """{1, 10**308} is realized at q = 1, in the block where q * a overflows."""
    p = tmp_path / "huge.set"
    p.write_text(f"1\n{10**308}\n")
    code, out, err = run(capsys, "realize", "--method", "dirichlet", "--form", "1,-1", str(p))
    assert (code, err) == (0, "")
    assert "method=dirichlet q=1\ncertificate=OK\n" in out
