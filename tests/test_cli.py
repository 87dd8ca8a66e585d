import hashlib

import pytest

from addcomb import CertificateError, search
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
    # eight tasks, and a pool at this size too, so --jobs 2 starts two workers
    monkeypatch.setattr(search, "SUFFIX_LEVELS", 11)
    monkeypatch.setattr(search, "POOL_NODES", 1)
    code, out, _ = run(
        capsys, "search", "triple", "--max-diameter", "14", "--report-equal", "--jobs", jobs
    )
    assert code == 0
    assert len(out.splitlines()) == 1861
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3ae7910a571409eb01e8d628b47307ecbd83ba28cdb5a2f2bee584fe554bcfd6"


def test_search_stats_on_stderr(capsys):
    code, out, err = run(capsys, "search", "mstd", "--max-diameter", "8", "--stats")
    assert code == 0
    assert out == ""
    assert "examined=256" in err and "wall=" in err


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


def test_set_too_large_for_a_float_is_one_line(capsys, tmp_path):
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, s=1.4142135623730951\n{10**400}, 0\n0, 1\n")
    code, out, err = run(capsys, "mstd", str(p))
    assert (code, out) == (1, "")
    assert err == f"error: symbolic real ({10**400}, 0) is too large for a float\n"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("image", "--form", "1,1"), ""),
        (("realize", "--method", "dirichlet", "--form", "1,1"), "cannot order the form image: "),
        (("realize", "--method", "lp", "--form", "1,1"), "cannot order the form values: "),
    ],
)
def test_image_too_large_for_a_float_is_one_line(capsys, tmp_path, argv, prefix):
    """A = {10**308, s} orders, but the sum 2 * 10**308 overflows a float."""
    p = tmp_path / "huge.set"
    p.write_text(f"basis: 1=1.0, s=1.4142135623730951\n{10**308}, 0\n0, 1\n")
    code, out, err = run(capsys, *argv, str(p))
    assert (code, out) == (1, "")
    assert err == f"error: {prefix}symbolic real ({2 * 10**308}, 0) is too large for a float\n"
