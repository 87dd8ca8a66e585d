import pytest

from addcomb import CertificateError
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


def test_search_mstd_golden(capsys):
    code, out, _ = run(capsys, "search", "mstd", "--max-diameter", "14")
    assert code == 0
    assert out == "0,1,2,4,5,9,12,13,14\t28\t27\n0,2,3,4,7,11,12,14\t26\t25\n"


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
