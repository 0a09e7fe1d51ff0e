"""End-to-end command-line behavior: outputs, exit codes, byte stability."""

import math
import random

import numpy as np
import pytest

from conftest import feasible_form
from stablulc.cli import main
from stablulc.embedding import complete_graph, double_edge, format_graph, toric_grid
from stablulc.factory import (CounterexampleSeed, format_css_code,
                              format_seed, parse_seed, rep2)
from stablulc.gf2 import BitMatrix, BitVector, format_matrix, nullspace, rref
from stablulc.matroid import BinaryMatroid, format_matroid
from stablulc.oracle import DiagonalLocalUnitary, format_quadratic_form
from stablulc.pauli import format_stabilizer
from stablulc.surface import graph_state_group, grid_cluster_state


@pytest.fixture
def files(tmp_path):
    """A directory of small input files used across the commands."""
    d = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="ascii")
        d[name] = str(p)
        return d[name]

    ring5 = graph_state_group(5, [(i, (i + 1) % 5) for i in range(5)])
    put("ring5.stab", format_stabilizer(ring5))
    put("bell.stab", format_stabilizer(grid_cluster_state(1, 2)))
    put("toric.graph", format_graph(toric_grid(3, 3)))
    put("doubled.graph",
        format_graph(double_edge(toric_grid(3, 3), "h0_0", "p")))

    k4, _, _ = rref(complete_graph(4).incidence_matrix())
    put("k4_g.mat", format_matrix(k4))
    put("k4_h.mat", format_matrix(nullspace(k4)))
    checks = BitMatrix(7, tuple(BitVector.from_string(s) for s in
                                ("1010101", "0110011", "0001111")))
    put("ham_g.mat", format_matrix(nullspace(checks)))
    put("ham_h.mat", format_matrix(checks))

    put("k4.matroid",
        format_matroid(BinaryMatroid(complete_graph(4).incidence_matrix(),
                                     complete_graph(4).edge_order())))
    put("triangle.matroid",
        format_matroid(BinaryMatroid(complete_graph(3).incidence_matrix(),
                                     complete_graph(3).edge_order())))

    toy = CounterexampleSeed(
        BitMatrix(2, (BitVector.from_string("11"),)),
        frozenset({(0, 1)}),
        DiagonalLocalUnitary((math.pi / 4, 3 * math.pi / 4)))
    put("toy.seed", format_seed(toy))
    put("cz.seed", "# provenance: synthetic-infeasible\n"
                   "2\n10\n01\nq:\n1 2\ndlu: 0 0\n")
    put("rep2.code", format_css_code(rep2()))
    put("feasible.qf", "2\n11\nq:\n1 2\n")
    put("code422.stab", "+XXXX\n+ZZZZ\n")
    put("cz.qf", "2\n10\n01\nq:\n1 2\n")
    d["dir"] = tmp_path
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- certificates --------------------------------------------------------------------

def test_analyze_state(files, capsys):
    code, out, err = run(capsys, "analyze-state", files["ring5.stab"])
    assert code == 0 and err == ""
    assert out == "CERTIFIED theorem=msc details=qubits=5\n"

    code, out, _ = run(capsys, "analyze-state", files["bell.stab"])
    assert code == 2
    assert out == ("INCONCLUSIVE theorem=msc reason=bell_pair"
                   " witness=(0,1)\n")


def test_analyze_state_requires_a_state(files, capsys):
    # The [[4,2,2]] code has 2 generators on 4 qubits: not a state, so
    # the minimal-support theorem does not apply and nothing is certified.
    code, out, err = run(capsys, "analyze-state", files["code422.stab"])
    assert code == 1 and out == ""
    assert "error:" in err and "state" in err


def test_surface_certify(files, capsys):
    for l in range(3):
        code, out, _ = run(capsys, "surface-certify", files["toric.graph"],
                           "--l", str(l))
        assert code == 0
        assert out == (f"CERTIFIED theorem=surfaceCode details=qubits=18,"
                       f"genus=1,l={l},girth=3,cogirth=3\n")

    code, out, _ = run(capsys, "surface-certify", files["doubled.graph"])
    assert code == 2
    assert out == "HYPOTHESIS_FAILED theorem=surfaceCode reason=girth=2\n"

    code, _, err = run(capsys, "surface-certify", files["toric.graph"],
                       "--l", "5")
    assert code == 1 and "error:" in err


def test_grid_certify(files, capsys):
    code, out, _ = run(capsys, "grid-certify", "--rows", "5", "--cols", "5")
    assert code == 0
    assert out == "CERTIFIED theorem=grid details=rows=5,cols=5,qubits=25\n"

    code, out, _ = run(capsys, "grid-certify", "--rows", "1", "--cols", "2")
    assert code == 2
    assert out == "FAILED theorem=grid reason=bell_pair witness=(0,1)\n"


def test_grid_certify_honours_enum_cap(files, capsys, monkeypatch):
    # Interior vertex 6 of the 5x5 grid has 2^5 = 32 neighbourhood products.
    monkeypatch.setenv("STABLULC_ENUM_CAP", "16")
    code, out, err = run(capsys, "grid-certify", "--rows", "5", "--cols", "5")
    assert code == 1 and out == ""
    assert "error:" in err and "cap of 16" in err

    monkeypatch.setenv("STABLULC_ENUM_CAP", "32")
    code, out, _ = run(capsys, "grid-certify", "--rows", "5", "--cols", "5")
    assert code == 0
    assert out == "CERTIFIED theorem=grid details=rows=5,cols=5,qubits=25\n"


# -- matroid commands ---------------------------------------------------------------

def test_matroid_screen(files, capsys):
    code, out, _ = run(capsys, "matroid-screen",
                       "--g", files["k4_g.mat"], "--h", files["k4_h.mat"])
    assert code == 0 and out == "RULED_OUT graphic\n"

    code, out, _ = run(capsys, "matroid-screen",
                       "--g", files["ham_g.mat"], "--h", files["ham_h.mat"])
    assert code == 2 and out == "INCONCLUSIVE\n"


def test_matroid_minor(files, capsys):
    code, out, _ = run(capsys, "matroid-minor", "--m", files["k4.matroid"],
                       "--target", "F7")
    assert code == 0 and out == "NO_MINOR target=F7\n"

    code, out, _ = run(capsys, "matroid-minor", "--m", files["k4.matroid"],
                       "--target", files["triangle.matroid"])
    assert code == 0
    assert out.startswith(f"MINOR target={files['triangle.matroid']}"
                          " delete=")
    assert " contract=" in out

    # a matroid trivially contains itself: both witness sets are empty
    code, out, _ = run(capsys, "matroid-minor",
                       "--m", files["triangle.matroid"],
                       "--target", files["triangle.matroid"])
    assert code == 0
    assert out.endswith("delete=- contract=-\n")


# -- factory commands ----------------------------------------------------------------

def test_factory_lengths(files, capsys):
    code, out, _ = run(capsys, "factory-lengths", "--n", "41")
    assert code == 0
    assert out == "PLAN n=41 (i=1,j=0,t=0) distance=d>=3\n"

    code, out, _ = run(capsys, "factory-lengths", "--n", "26")
    assert code == 2 and out == "UNREACHABLE n=26\n"

    code, out, _ = run(capsys, "factory-lengths", "--n", "31", "--no-rep")
    assert code == 2 and out == "UNREACHABLE n=31\n"

    code, out, _ = run(capsys, "factory-lengths", "--max", "29")
    assert code == 0
    assert out == ("n=27 (i=0,j=0,t=0) d>=3\n"
                   "n=28 (i=0,j=0,t=1) d=2\n"
                   "n=29 (i=0,j=0,t=2) d=2\n")

    with pytest.raises(SystemExit) as exc:
        main(["factory-lengths", "--n", "41", "--max", "50"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_factory_encode_to_stdout(files, capsys):
    code, out, _ = run(capsys, "factory-encode", "--seed", files["toy.seed"],
                       "--qubit", "1", "--code", "rep2")
    assert code == 0
    encoded = parse_seed(out)
    assert encoded.n == 3
    assert encoded.provenance == "file;encode(j=0,code=rep2)"
    assert encoded.verify_dlu()


def test_factory_encode_to_file_and_verify(files, capsys, tmp_path):
    out_path = str(tmp_path / "encoded.seed")
    code, out, err = run(capsys, "factory-encode",
                         "--seed", files["toy.seed"], "--qubit", "2",
                         "--code", files["rep2.code"], "--out", out_path,
                         "--verify")
    assert code == 0
    assert out == f"ENCODED n=3 code=rep2 qubit=2 out={out_path}\n"
    assert err == "VERIFIED n=3\n"
    assert parse_seed(open(out_path).read()).n == 3


def test_factory_encode_verify_failure(files, capsys):
    # the claimed DLU in the synthetic seed is a placeholder; encoding
    # carries it along and the oracle rejects the encoded pair
    code, out, err = run(capsys, "factory-encode", "--seed",
                         files["cz.seed"], "--qubit", "1",
                         "--code", "rep2", "--verify")
    assert code == 2
    assert err.startswith("VERIFY_FAILED")
    assert parse_seed(out).n == 3     # the report itself is still produced


def test_factory_encode_unverifiable(files, capsys):
    code, out, err = run(capsys, "factory-encode", "--seed",
                         files["toy.seed"], "--qubit", "1",
                         "--code", "rm31", "--verify")
    assert code == 2
    assert err.startswith("UNVERIFIABLE n=32")
    assert parse_seed(out).n == 32


def test_factory_encode_input_errors(files, capsys):
    code, _, err = run(capsys, "factory-encode", "--seed",
                       files["toy.seed"], "--qubit", "3", "--code", "rep2")
    assert code == 1 and "error:" in err

    code, _, err = run(capsys, "factory-encode", "--seed",
                       files["toy.seed"], "--qubit", "1",
                       "--code", "no_such_file.code")
    assert code == 1 and "error:" in err


def test_dlc_check(files, capsys):
    code, out, _ = run(capsys, "dlc-check", files["feasible.qf"])
    assert code == 0
    assert out.startswith("FEASIBLE assignment=")
    values = [int(v) for v in out.split("=", 1)[1].split(",")]
    assert (values[0] + values[1]) % 4 == 2

    code, out, _ = run(capsys, "dlc-check", files["cz.qf"])
    assert code == 2 and out == "INFEASIBLE\n"


def _span(rows):
    out = np.zeros(1, dtype=np.int64)
    for r in rows:
        out = np.concatenate([out, out ^ r])
    return out


def _witness_holds_on_span(qf, a):
    """sum_j a_j x_j = 2 q(x) (mod 4) at every x in S, in chunks of S."""
    ones = sum(1 << j for j, v in enumerate(a) if v & 1)
    twos = sum(1 << j for j, v in enumerate(a) if v & 2)
    rows = qf.basis.row_ints()
    low = _span(rows[:12])
    for high in _span(rows[12:]).tolist():
        x = low ^ high
        q = np.zeros_like(x)
        for i, j in qf.coeffs:
            q ^= (x >> i) & (x >> j) & 1
        lin = (np.bitwise_count(x & ones).astype(np.int64)
               + 2 * np.bitwise_count(x & twos).astype(np.int64))
        if np.any((lin - 2 * q) % 4):
            return False
    return True


@pytest.mark.parametrize("cap", [None, "4"])
def test_dlc_check_decides_past_the_enumeration_cap(files, capsys,
                                                    monkeypatch, cap):
    # 2^24 subspace elements exceed the default cap of 2^20; the decision
    # enumerates nothing, so no cap applies to it.
    if cap is not None:
        monkeypatch.setenv("STABLULC_ENUM_CAP", cap)
    qf = feasible_form(random.Random(24), 40, 24)
    path = files["dir"] / "k24.qf"
    path.write_text(format_quadratic_form(qf), encoding="ascii")
    code, out, _ = run(capsys, "dlc-check", str(path))
    assert code == 0 and out.startswith("FEASIBLE assignment=")
    a = [int(v) for v in out.split("=", 1)[1].split(",")]
    assert len(a) == 40 and set(a) <= {0, 1, 2, 3}
    assert _witness_holds_on_span(qf, a)


# -- harness behavior ----------------------------------------------------------------

def test_stamp_goes_to_stderr_only(files, capsys):
    _, plain_out, plain_err = run(capsys, "grid-certify",
                                  "--rows", "2", "--cols", "3")
    assert plain_err == ""
    _, stamped_out, stamped_err = run(capsys, "--stamp", "grid-certify",
                                      "--rows", "2", "--cols", "3")
    assert stamped_out == plain_out
    assert stamped_err.startswith("# stablulc 0.1.0 | ")
    assert "grid-certify" in stamped_err


def test_repeated_runs_are_byte_identical(files, capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "analyze-state", files["ring5.stab"])
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("value", ["4", "0", "-3", "many"])
def test_enum_cap_env(files, capsys, monkeypatch, value):
    # 4 is too small for ring5's 2^5 elements; the others are not caps.
    monkeypatch.setenv("STABLULC_ENUM_CAP", value)
    code, _, err = run(capsys, "analyze-state", files["ring5.stab"])
    assert code == 1
    assert "error:" in err and "cap" in err
    assert "STABLULC_ENUM_CAP" in err


def test_argument_errors_exit_one(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["grid-certify", "--rows", "2"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_file_is_an_input_error(files, capsys):
    code, _, err = run(capsys, "analyze-state", "missing.stab")
    assert code == 1 and "error:" in err
