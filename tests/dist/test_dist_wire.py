"""Distribution through the service and CLI surfaces.

``dist``/``workers`` ride the wire format, salt the pipeline
fingerprint, flow through :class:`CompileService`, and reach the
driver via ``--dist-workers`` — with validation at every border.
"""

import pytest

import repro
from repro import CompileRequest, CompileService, kernels
from repro.__main__ import main
from repro.service.api import WireError
from repro.service.fingerprint import fingerprint


class TestWireFormat:
    def test_defaults_stay_off_the_wire(self):
        wire = CompileRequest(kernels.PROGRAM_JACOBI,
                              params={"m": 6, "tol": 1e-2}).to_wire()
        assert "dist" not in wire
        assert "workers" not in wire

    def test_roundtrip(self):
        request = CompileRequest(
            kernels.PROGRAM_JACOBI, params={"m": 6, "tol": 1e-2},
            dist=True, workers=4,
        )
        wire = request.to_wire()
        assert wire["dist"] is True
        assert wire["workers"] == 4
        back = CompileRequest.from_wire(wire)
        assert back.dist is True
        assert back.workers == 4
        assert back == request

    @pytest.mark.parametrize("workers", [-1, 2.5, "4", True])
    def test_bad_workers_rejected(self, workers):
        wire = {"src": kernels.PROGRAM_JACOBI, "workers": workers}
        with pytest.raises(WireError, match="workers"):
            CompileRequest.from_wire(wire)

    def test_dist_must_be_a_json_boolean(self):
        # Nothing is coerced: "false" would have been dist=True.
        for dist in (1, "false", None):
            with pytest.raises(WireError,
                               match="dist must be a JSON boolean"):
                CompileRequest.from_wire(
                    {"src": kernels.PROGRAM_JACOBI, "dist": dist})


class TestFingerprints:
    PARAMS = {"m": 6, "tol": 1e-2}

    def test_dist_and_workers_salt_the_program_fingerprint(self):
        base = fingerprint(CompileRequest(kernels.PROGRAM_JACOBI,
                                          params=self.PARAMS))
        two = fingerprint(CompileRequest(kernels.PROGRAM_JACOBI,
                                         params=self.PARAMS,
                                         dist=True, workers=2))
        four = fingerprint(CompileRequest(kernels.PROGRAM_JACOBI,
                                          params=self.PARAMS,
                                          dist=True, workers=4))
        assert len({base, two, four}) == 3

    def test_service_request_fingerprints_differ(self):
        service = CompileService()
        base = service.fingerprint_request(
            CompileRequest(kernels.PROGRAM_JACOBI, params=self.PARAMS)
        )
        dist = service.fingerprint_request(
            CompileRequest(kernels.PROGRAM_JACOBI, params=self.PARAMS,
                           dist=True, workers=2)
        )
        assert base != dist

    def test_service_caches_per_worker_count(self):
        service = CompileService()
        plain = service.submit(
            CompileRequest(kernels.PROGRAM_JACOBI, params=self.PARAMS)
        )
        dist = service.submit(
            CompileRequest(kernels.PROGRAM_JACOBI, params=self.PARAMS,
                           dist=True, workers=2)
        )
        assert plain.ok and dist.ok
        assert plain.compiled is not dist.compiled
        again = service.submit(
            CompileRequest(kernels.PROGRAM_JACOBI, params=self.PARAMS,
                           dist=True, workers=2)
        )
        assert again.compiled is dist.compiled

    def test_service_submit_carries_plan(self):
        result = CompileService().submit(
            CompileRequest(kernels.PROGRAM_JACOBI,
                           params={"m": 8, "tol": 1e-3},
                           dist=True, workers=2)
        )
        assert result.ok
        step = result.compiled.steps[-1]
        assert step.iterate is not None
        assert step.iterate.dist is not None


class TestFacade:
    def test_single_definition_rejects_dist(self):
        with pytest.raises(repro.CompileError, match="multi-binding"):
            repro.compile(kernels.JACOBI, params={"m": 6},
                          dist=True, workers=2)

    def test_facade_compile_dispatches_programs(self):
        prog = repro.compile(kernels.PROGRAM_JACOBI,
                             params={"m": 8, "tol": 1e-3},
                             dist=True, workers=2)
        assert prog.steps[-1].iterate.dist is not None


@pytest.fixture
def jacobi_program_file(tmp_path):
    path = tmp_path / "jacobi.hs"
    path.write_text(kernels.PROGRAM_JACOBI)
    return str(path)


class TestCLI:
    def test_run_with_dist_workers(self, jacobi_program_file, capsys):
        args = ["run", jacobi_program_file, "-p", "m=8",
                "-p", "tol=1e-3"]
        assert main(args) == 0
        expect = capsys.readouterr().out
        assert main(args + ["--dist-workers", "2"]) == 0
        out = capsys.readouterr().out
        # The report grows dist lines, but the grid itself — the last
        # m lines of output — is identical.
        assert out.splitlines()[-8:] == expect.splitlines()[-8:]
        assert "dist: main: stencil" in out

    def test_analyze_reports_dist_area(self, jacobi_program_file,
                                       capsys):
        assert main(["analyze", jacobi_program_file, "-p", "m=8",
                     "-p", "tol=1e-3", "--dist-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "dist" in out

    def test_explain_prints_the_dist_lines_run_prints(
            self, jacobi_program_file, capsys):
        args = [jacobi_program_file, "-p", "m=8", "-p", "tol=1e-3",
                "--dist-workers", "2"]
        assert main(["run"] + args) == 0
        planned = [line[len("dist: "):] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("dist: ")]
        assert planned and planned[0].startswith("main: stencil")
        assert main(["explain"] + args) == 0
        explained = capsys.readouterr().out.splitlines()
        for line in planned:
            assert f"  planner: accepted — {line}" in explained

    def test_explain_names_the_dist_fallback(self, tmp_path, capsys):
        path = tmp_path / "sor.hs"
        path.write_text(kernels.PROGRAM_SOR)
        assert main(["explain", str(path), "-p", "m=8", "-p", "k=3",
                     "-p", "omega=1.5", "--dist-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert ("program: rejected — dist 'main': needs double-buffer "
                "sweeps — the 'inplace' sweep mutates one buffer, so its "
                "row blocks cannot run independently") in out

    @pytest.mark.parametrize("flag", [["--dist-workers", "2"], ["--ooc"]])
    def test_explain_rejects_program_flags_on_a_definition(
            self, tmp_path, flag):
        path = tmp_path / "jacobi.hs"
        path.write_text(kernels.JACOBI)
        with pytest.raises(SystemExit,
                           match=f"{flag[0]} only applies to multi-binding"):
            main(["explain", str(path), "-p", "m=6"] + flag)

    def test_explain_rejects_a_negative_count(self, jacobi_program_file):
        with pytest.raises(SystemExit, match="non-negative"):
            main(["explain", jacobi_program_file, "-p", "m=8",
                  "-p", "tol=1e-3", "--dist-workers", "-2"])

    def test_negative_count_rejected(self, jacobi_program_file):
        with pytest.raises(SystemExit, match="non-negative"):
            main(["run", jacobi_program_file, "-p", "m=8",
                  "-p", "tol=1e-3", "--dist-workers", "-2"])

    def test_single_definition_rejected(self, tmp_path):
        path = tmp_path / "jacobi.hs"
        path.write_text(kernels.JACOBI)
        with pytest.raises(SystemExit, match="multi-binding"):
            main(["run", str(path), "-p", "m=6",
                  "--dist-workers", "2"])
