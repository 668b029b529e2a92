"""The CLI ``explain`` command over the acceptance kernels."""

import json

import pytest

from repro.__main__ import main
from repro.kernels import PROGRAM_JACOBI, SOR_MONOLITHIC, WAVEFRONT_F


@pytest.fixture
def source_file(tmp_path):
    def write(source):
        path = tmp_path / "kernel.hs"
        path.write_text(source)
        return str(path)

    return write


def test_explain_sor_monolithic(source_file, capsys):
    code = main(["explain", source_file(SOR_MONOLITHIC),
                 "-p", "m=8", "-p", "omega=1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision trace (definition)" in out
    assert "schedule:" in out and "parallel:" in out
    assert "rejected" in out  # no legal hyperplane on plain SOR


def test_explain_wavefront_parallel(source_file, capsys):
    code = main(["explain", source_file(WAVEFRONT_F),
                 "-p", "n=8", "--vectorize"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wavefront h=" in out
    assert "accepted" in out


def test_explain_inplace_flag(source_file, capsys):
    from repro.kernels import SOR

    code = main(["explain", source_file(SOR),
                 "-p", "n=8", "-p", "omega=1.0", "--inplace", "u"])
    out = capsys.readouterr().out
    assert code == 0
    assert "inplace:" in out
    assert "storage reuse: accepted" in out


def test_explain_program_jacobi(source_file, capsys):
    code = main(["explain", source_file(PROGRAM_JACOBI), "-p", "m=6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision trace (program)" in out
    assert "topo order" in out
    assert "in-place sweeps rejected" in out  # with its reason
    assert "iterate:" in out


def test_explain_json(source_file, capsys):
    code = main(["explain", source_file(WAVEFRONT_F),
                 "-p", "n=8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "definition"
    areas = {d["area"] for d in data["decisions"]}
    assert {"strategy", "schedule", "checks"} <= areas


def test_second_file_rejected_outside_bench_check(source_file):
    path = source_file(WAVEFRONT_F)
    with pytest.raises(SystemExit):
        main(["explain", path, path])
