"""The ``python -m repro`` command-line driver."""

import re

import pytest

from repro.__main__ import main


@pytest.fixture
def squares_file(tmp_path):
    path = tmp_path / "squares.hs"
    path.write_text(
        "letrec* a = array (1,n) [ i := i*i | i <- [1..n] ] in a"
    )
    return str(path)


@pytest.fixture
def wavefront_file(tmp_path):
    from repro.kernels import WAVEFRONT

    path = tmp_path / "wavefront.hs"
    path.write_text(WAVEFRONT)
    return str(path)


class TestCommands:
    def test_run(self, squares_file, capsys):
        assert main(["run", squares_file, "-p", "n=4"]) == 0
        assert "[1, 4, 9, 16]" in capsys.readouterr().out

    def test_oracle_matches_run(self, squares_file, capsys):
        main(["run", squares_file, "-p", "n=4"])
        run_out = capsys.readouterr().out
        main(["oracle", squares_file, "-p", "n=4"])
        assert capsys.readouterr().out == run_out

    def test_analyze(self, wavefront_file, capsys):
        assert main(["analyze", wavefront_file, "-p", "n=5"]) == 0
        out = capsys.readouterr().out
        assert "3 -> 3 (<,=)" in out
        assert "collisions: none" in out
        assert "forward" in out

    def test_compile_prints_source(self, squares_file, capsys):
        assert main(["compile", squares_file, "-p", "n=4"]) == 0
        out = capsys.readouterr().out
        assert "def _build(_env):" in out
        assert "strategy: thunkless" in out

    def test_compile_vectorize(self, squares_file, capsys):
        assert main(
            ["compile", squares_file, "-p", "n=4", "--vectorize"]
        ) == 0
        assert "_vslice(" in capsys.readouterr().out

    def test_forced_thunked(self, squares_file, capsys):
        assert main(
            ["compile", squares_file, "-p", "n=4",
             "--strategy", "thunked"]
        ) == 0
        assert "NonStrictArray" in capsys.readouterr().out

    def test_two_dimensional_grid_output(self, wavefront_file, capsys):
        main(["run", wavefront_file, "-p", "n=3"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_bad_param(self, squares_file):
        with pytest.raises(SystemExit):
            main(["run", squares_file, "-p", "n"])

    def test_inplace_compile(self, tmp_path, capsys):
        from repro.kernels import JACOBI

        path = tmp_path / "jacobi.hs"
        path.write_text(JACOBI)
        assert main(
            ["compile", str(path), "-p", "m=8", "--inplace", "u"]
        ) == 0
        out = capsys.readouterr().out
        assert "_snap_" in out  # node-splitting rings present


class TestParams:
    """``-p`` accepts ints and floats, and explains anything else."""

    def test_float_param(self, tmp_path, capsys):
        from repro.kernels import SOR

        path = tmp_path / "sor.hs"
        path.write_text(SOR)
        assert main(
            ["compile", str(path), "-p", "m=6", "-p", "omega=1.5",
             "--inplace", "u"]
        ) == 0
        assert "def _build(_env):" in capsys.readouterr().out

    def test_scientific_notation_becomes_int(self, squares_file,
                                             capsys):
        # Regression: ``-p n=1e3`` used to crash with an opaque
        # ValueError from int().
        assert main(["run", squares_file, "-p", "n=1e1"]) == 0
        assert "100" in capsys.readouterr().out

    def test_non_number_has_clear_message(self, squares_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", squares_file, "-p", "n=abc"])
        message = str(exc_info.value)
        assert "n=abc" in message
        assert "not a number" in message

    def test_missing_value_still_rejected(self, squares_file):
        with pytest.raises(SystemExit):
            main(["run", squares_file, "-p", "n="])


class TestInplaceOptions:
    """``--inplace`` must propagate codegen options (regression)."""

    def test_vectorize_reaches_inplace_pipeline(self, tmp_path):
        # SOR's anti reads would vectorize into dangling numpy views;
        # the compile must fail loudly, not emit broken code (the old
        # driver silently dropped --vectorize here).
        from repro.kernels import SOR

        path = tmp_path / "sor.hs"
        path.write_text(SOR)
        with pytest.raises(SystemExit) as exc_info:
            main(["compile", str(path), "-p", "m=6", "-p", "omega=1",
                  "--inplace", "u", "--vectorize"])
        assert "vectorize" in str(exc_info.value)

    def test_vectorize_noop_inplace_still_compiles(self, tmp_path,
                                                   capsys):
        # Jacobi: no loop qualifies, so the flag is an honoured no-op.
        from repro.kernels import JACOBI

        path = tmp_path / "jacobi.hs"
        path.write_text(JACOBI)
        assert main(
            ["compile", str(path), "-p", "m=8", "--inplace", "u",
             "--vectorize"]
        ) == 0
        assert "_snap_" in capsys.readouterr().out


class TestParallelFlag:
    @pytest.fixture
    def sor_file(self, tmp_path):
        from repro.kernels import SOR_MONOLITHIC

        path = tmp_path / "sor_mono.hs"
        path.write_text(SOR_MONOLITHIC)
        return str(path)

    def test_compile_parallel_emits_wavefront(self, sor_file, capsys):
        # The (1,1) wavefront is a vectorize lowering.
        assert main(
            ["compile", sor_file, "-p", "m=12", "-p", "omega=1.5",
             "--vectorize"]
        ) == 0
        out = capsys.readouterr().out
        assert "parallel: clause 5: wavefront h=(1,1)" in out
        assert "_vslice(" in out

    def test_run_parallel_matches_plain(self, tmp_path, capsys):
        # Float kernel: the numpy lowering computes in float64, so an
        # integer kernel would print 1.0 where the scalar loops print
        # 1.
        from repro.kernels import WAVEFRONT_F

        path = tmp_path / "wavefront_f.hs"
        path.write_text(WAVEFRONT_F)
        main(["run", str(path), "-p", "n=5"])
        plain = capsys.readouterr().out
        assert main(["run", str(path), "-p", "n=5",
                     "--vectorize"]) == 0
        assert capsys.readouterr().out == plain

    def test_parallel_threads_flag(self, tmp_path, capsys):
        # The thread-chunk path is gone, and its flag with it.
        from repro.kernels import MATMUL

        path = tmp_path / "matmul.hs"
        path.write_text(MATMUL)
        with pytest.raises(SystemExit) as exc_info:
            main(["compile", str(path), "-p", "n=6",
                  "--parallel-threads", "2"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --parallel-threads" \
            in capsys.readouterr().err

    def test_threads_without_parallel_rejected(self, squares_file,
                                               capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["compile", squares_file, "-p", "n=4",
                  "--parallel-threads", "2"])
        assert exc_info.value.code == 2
        assert "--parallel-threads" in capsys.readouterr().err

    def test_parallel_with_inplace_rejected(self, tmp_path, capsys):
        # --parallel is gone (--vectorize runs the wavefronts), so
        # argparse rejects it with or without --inplace.
        from repro.kernels import JACOBI

        path = tmp_path / "jacobi.hs"
        path.write_text(JACOBI)
        for extra in (["--inplace", "u"], []):
            with pytest.raises(SystemExit) as exc_info:
                main(["compile", str(path), "-p", "m=8", *extra,
                      "--parallel"])
            assert exc_info.value.code == 2
            assert "unrecognized arguments: --parallel" \
                in capsys.readouterr().err


class TestCacheFlag:
    def test_run_with_cache_twice(self, wavefront_file, tmp_path,
                                  capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", wavefront_file, "-p", "n=3",
                     "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["run", wavefront_file, "-p", "n=3",
                     "--cache", cache]) == 0
        assert capsys.readouterr().out == cold

    def test_compile_with_cache_matches_uncached(self, squares_file,
                                                 tmp_path, capsys):
        assert main(["compile", squares_file, "-p", "n=4"]) == 0
        uncached = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        for _ in range(2):  # second round is a disk hit
            assert main(["compile", squares_file, "-p", "n=4",
                         "--cache", cache]) == 0
            assert capsys.readouterr().out == uncached

    def test_serve_stats(self, squares_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["compile", squares_file, "-p", "n=4", "--cache", cache])
        capsys.readouterr()
        assert main(["serve-stats", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "strategy thunkless: 1" in out

    def test_serve_stats_empty_dir(self, tmp_path, capsys):
        assert main(["serve-stats", "--cache",
                     str(tmp_path / "nowhere")]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_file_required_for_compile(self):
        with pytest.raises(SystemExit):
            main(["compile"])


class TestOptionFlags:
    """The flags build ``CodegenOptions`` directly: a malformed value
    exits with its message, and a C refusal is a reasoned fallback."""

    @pytest.fixture
    def example2_file(self, tmp_path):
        from repro.kernels import EXAMPLE2

        path = tmp_path / "example2.hs"
        path.write_text(EXAMPLE2)
        return str(path)

    @pytest.mark.parametrize("tile", ["0", "-3"])
    def test_bad_tile_exits_with_the_message(self, squares_file, tile):
        with pytest.raises(SystemExit, match="tile must be None, 'auto' "
                           "or an integer >= 1"):
            main(["run", squares_file, "-p", "n=4", f"--tile={tile}"])

    def test_non_integer_tile_exits(self, squares_file):
        with pytest.raises(SystemExit, match="--tile must be 'auto'"):
            main(["run", squares_file, "-p", "n=4", "--tile", "big"])

    def test_backend_c_with_vectorize_compiles(self, squares_file,
                                               capsys):
        assert main(["compile", squares_file, "-p", "n=4",
                     "--backend", "c", "--vectorize"]) == 0
        out = capsys.readouterr().out
        assert "_vslice(" in out
        assert "backend c" in out and "python emitter used" in out

    def test_vectorized_partial_array_raises_like_the_oracle(
            self, example2_file):
        from repro.runtime.errors import UndefinedElementError

        with pytest.raises(UndefinedElementError,
                           match="element 1 has no definition"):
            main(["run", example2_file, "--vectorize"])

    #: Histograms over an index array ``k``: in bounds, and with
    #: ``k!1 = -3`` out of the bins.
    HISTOGRAMS = {
        "in-bounds": "i",
        "out-of-bins": "(i*3) - 6",
    }

    @pytest.mark.parametrize("case", sorted(HISTOGRAMS))
    def test_vectorized_index_array_runs_like_the_oracle(
            self, tmp_path, capsys, case):
        # k keeps integer cells under --vectorize, so main's scatter
        # gives the oracle's bins or the oracle's BoundsError.
        path = tmp_path / "hist.hs"
        path.write_text(
            f"k = array (1,n) [ i := {self.HISTOGRAMS[case]} "
            "| i <- [1..n] ];\n"
            "main = accumArray (\\a b -> a + b) 0 (1,m) "
            "[ (k!i) := 1 | i <- [1..n] ]\n"
        )
        argv = [str(path), "-p", "n=4", "-p", "m=6"]
        try:
            main(["oracle"] + argv)
        except Exception as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                main(["run"] + argv + ["--vectorize"])
        else:
            expected = capsys.readouterr().out.splitlines()[-1]
            assert main(["run"] + argv + ["--vectorize"]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == expected
            assert expected == "[1, 1, 1, 1, 0, 0]"


class TestProgramCommands:
    """Multi-binding programs through the CLI."""

    @pytest.fixture
    def jacobi_file(self, tmp_path):
        from repro.kernels import PROGRAM_JACOBI

        path = tmp_path / "jacobi_prog.hs"
        path.write_text(PROGRAM_JACOBI)
        return str(path)

    @pytest.fixture
    def pipeline_file(self, tmp_path):
        from repro.kernels import PROGRAM_PIPELINE

        path = tmp_path / "pipeline.hs"
        path.write_text(PROGRAM_PIPELINE)
        return str(path)

    def test_run_prints_report_and_grid(self, jacobi_file, capsys):
        assert main(["run", jacobi_file, "-p", "m=6",
                     "-p", "tol=1e-3"]) == 0
        out = capsys.readouterr().out
        assert "topo order: u0 -> step -> main" in out
        assert "iterate:" in out
        # 6x6 grid after the blank line separating report from result
        grid = out.split("\n\n", 1)[1]
        assert len(grid.strip().splitlines()) == 6

    def test_run_matches_oracle(self, pipeline_file, capsys):
        main(["oracle", pipeline_file, "-p", "n=8"])
        oracle = capsys.readouterr().out
        assert main(["run", pipeline_file, "-p", "n=8"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n", 1)[1].lstrip() == oracle.lstrip()

    def test_iterate_override(self, jacobi_file, capsys):
        assert main(["run", jacobi_file, "-p", "m=6",
                     "-p", "tol=1e-3", "--iterate", "steps=2"]) == 0
        two = capsys.readouterr().out.split("\n\n", 1)[1]
        assert main(["run", jacobi_file, "-p", "m=6",
                     "-p", "tol=1e-3", "--iterate", "steps=9"]) == 0
        nine = capsys.readouterr().out.split("\n\n", 1)[1]
        assert two != nine

    def test_iterate_override_on_oracle_rejected(self, jacobi_file,
                                                 capsys):
        # The oracle used to drop the override and run the program's
        # own convergence loop, printing a different grid from run.
        with pytest.raises(SystemExit) as exc_info:
            main(["oracle", jacobi_file, "-p", "m=6", "-p", "tol=1e-3",
                  "--iterate", "steps=2"])
        assert "--iterate does not apply to oracle" in str(exc_info.value)
        assert "as a parameter" in str(exc_info.value)
        assert capsys.readouterr().out == ""

    def test_fixed_step_run_matches_oracle(self, tmp_path, capsys):
        from repro.kernels import PROGRAM_JACOBI_STEPS

        path = tmp_path / "jacobi_steps.hs"
        path.write_text(PROGRAM_JACOBI_STEPS)
        main(["oracle", str(path), "-p", "m=6", "-p", "k=4"])
        oracle = capsys.readouterr().out
        assert main(["run", str(path), "-p", "m=6", "-p", "k=4"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n", 1)[1].lstrip() == oracle.lstrip()

    def test_analyze_names_reuse(self, pipeline_file, capsys):
        assert main(["analyze", pipeline_file, "-p", "n=8"]) == 0
        out = capsys.readouterr().out
        # b now fuses into c, so the reuse edge moved to x <- c and
        # the fused chain is reported alongside it.
        assert "fused: b -> c" in out
        assert "reuse: x overwrites c" in out
        assert "elided" in out

    def test_compile_prints_per_binding_sources(self, pipeline_file,
                                                capsys):
        assert main(["compile", pipeline_file, "-p", "n=8"]) == 0
        out = capsys.readouterr().out
        # b is fused away — its loop body lives inside c's module.
        assert "# --- binding b ---" not in out
        assert "# --- binding c ---" in out
        assert "def _build(_env):" in out

    def test_iterate_on_expression_rejected(self, squares_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", squares_file, "-p", "n=4",
                  "--iterate", "steps=3"])
        assert "single definition" in str(exc_info.value)

    def test_strategy_flag_on_program_rejected(self, pipeline_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["compile", pipeline_file, "-p", "n=8",
                  "--strategy", "thunked"])
        assert "per binding" in str(exc_info.value)

    def test_inplace_flag_on_program_rejected(self, pipeline_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["compile", pipeline_file, "-p", "n=8",
                  "--inplace", "b"])
        assert "reuse" in str(exc_info.value)

    def test_bad_iterate_value(self, jacobi_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", jacobi_file, "-p", "m=6",
                  "--iterate", "sweeps=3"])
        assert "tol=FLOAT" in str(exc_info.value)

    def test_program_run_with_cache(self, pipeline_file, tmp_path,
                                    capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", pipeline_file, "-p", "n=8",
                     "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["run", pipeline_file, "-p", "n=8",
                     "--cache", cache]) == 0
        assert capsys.readouterr().out == cold
        assert main(["serve-stats", "--cache", cache]) == 0
        assert "strategy program: 1" in capsys.readouterr().out
