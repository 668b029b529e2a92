"""One parse per compile request, and the same artifacts from the tree.

A request's kind and its build come from one parse; a request the
service has already seen is not parsed at all, and its fingerprint is
not hashed again.  The counts spy on the tokenizer every ``Parser``
runs.
"""

import hashlib

import pytest

import repro
import repro.lang.parser as parser_mod
from repro import CodegenOptions, CompileRequest, CompileService, kernels
from repro.__main__ import main
from repro.obs.explain import explain
from repro.program import classify_source
from repro.service.fingerprint import fingerprint, fingerprint_program

DEFINITION = (kernels.WAVEFRONT, {"n": 6})
PROGRAM = (kernels.PROGRAM_JACOBI_STEPS, {"m": 6, "k": 2})
KINDS = {"definition": DEFINITION, "program": PROGRAM}


@pytest.fixture
def tokenized(monkeypatch):
    """Count tokenizer calls; ``tokenized()`` reads and resets."""
    calls = [0]
    real = parser_mod.tokenize

    def spy(src):
        calls[0] += 1
        return real(src)

    monkeypatch.setattr(parser_mod, "tokenize", spy)

    def read():
        seen, calls[0] = calls[0], 0
        return seen

    return read


@pytest.fixture
def digested(monkeypatch):
    """Count sha256 digests; ``digested()`` reads and resets."""
    calls = [0]
    real = hashlib.sha256

    def spy(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", spy)

    def read():
        seen, calls[0] = calls[0], 0
        return seen

    return read


class TestTokenizerCalls:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_warm_hit_neither_tokenizes_nor_digests(
            self, tokenized, digested, tmp_path, kind):
        src, params = KINDS[kind]
        service = CompileService(disk_dir=tmp_path)
        tokenized(), digested()
        first = service.submit(CompileRequest(src, params))
        assert first.ok and not first.cached
        assert tokenized() == 1 and digested() == 1
        # None and CodegenOptions() are one request.
        for options in (None, CodegenOptions()):
            hit = service.submit(
                CompileRequest(src, dict(params), options=options))
            assert hit.tier == "memory" and hit.compiled is first.compiled
            assert hit.fingerprint == first.fingerprint
        assert tokenized() == 0 and digested() == 0

    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_service_new_once_repeat_never(self, tokenized, kind,
                                           explicit):
        src, params = KINDS[kind]
        request = CompileRequest(src, params,
                                 kind=kind if explicit else "auto")
        service = CompileService()
        tokenized()
        first = service.submit(request)
        assert first.ok and first.kind == kind and not first.cached
        assert tokenized() == 1
        again = service.submit(CompileRequest(src, dict(params),
                                              kind=request.kind))
        assert again.cached and again.compiled is first.compiled
        assert tokenized() == 0

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_facade_and_explain_parse_once(self, tokenized, kind):
        src, params = KINDS[kind]
        tokenized()
        repro.compile(src, params=params)
        assert tokenized() == 1
        explain(src, params=params)
        assert tokenized() == 1

    def test_compile_program_parses_once(self, tokenized):
        src, params = PROGRAM
        tokenized()
        repro.compile_program(src, params=params)
        assert tokenized() == 1

    @pytest.mark.parametrize(
        "command", ["compile", "run", "analyze", "explain", "oracle"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cli_parses_once(self, tokenized, tmp_path, capsys, kind,
                             command):
        src, params = KINDS[kind]
        path = tmp_path / "source.hs"
        path.write_text(src)
        flags = [arg for name, value in params.items()
                 for arg in ("-p", f"{name}={value}")]
        tokenized()
        assert main([command, str(path)] + flags) == 0
        assert tokenized() == 1
        assert capsys.readouterr().out


class TestClassifier:
    def test_expression_wins_over_program(self):
        kind, tree = classify_source("a")
        assert kind == "definition" and tree.name == "a"

    def test_program_is_a_binding_list(self):
        kind, binds = classify_source("a = 1; main = a")
        assert kind == "program"
        assert [bind.name for bind in binds] == ["a", "main"]

    def test_parsed_input_passes_through(self):
        kind, binds = classify_source(kernels.PROGRAM_SWAP)
        assert classify_source(binds) == ("program", binds)
        _, tree = classify_source(kernels.SQUARES)
        assert classify_source(tree) == ("definition", tree)


#: Size parameters of the catalog definitions that need more than n.
CATALOG_PARAMS = {
    "sor_monolithic": {"m": 6, "omega": 1.25},
    "swap": {"m": 5, "n": 7, "i": 2, "k": 4},
    "jacobi": {"m": 6},
    "sor": {"m": 6, "omega": 1.3},
    "gauss_seidel": {"m": 6},
    "saxpy_row": {"m": 5, "n": 7, "i": 2, "k": 3, "s": 0.5},
    "scale_row": {"m": 5, "n": 7, "i": 2, "s": 1.5},
    "histogram": {"n": 20, "m": 6},
    "spmv_csr": {"m": 4},
}


class TestSameArtifacts:
    """A service miss builds from the tree it parsed; what it emits
    must equal a compile of the text, under the fingerprint of the
    request's own arguments."""

    @pytest.mark.parametrize("name", sorted(kernels.CATALOG))
    def test_catalog_definition(self, name):
        entry = kernels.CATALOG[name]
        params = CATALOG_PARAMS.get(name, {"n": 8})
        old = entry.get("old")
        strategy = "inplace" if old else "auto"
        result = CompileService().submit(CompileRequest(
            entry["source"], params, strategy=strategy, old_array=old,
            kind="definition",
        ))
        assert result.ok and not result.cached, result.error
        direct = repro.compile(entry["source"], params=params,
                               strategy=strategy, old_array=old)
        assert result.fingerprint == fingerprint(
            entry["source"], params, strategy=strategy, old_array=old,
        )
        assert result.compiled.source == direct.source
        assert result.compiled.report.summary() == direct.report.summary()

    @pytest.mark.parametrize("name", sorted(kernels.PROGRAM_CATALOG))
    def test_catalog_program(self, name):
        entry = kernels.PROGRAM_CATALOG[name]
        result = CompileService().submit(CompileRequest(
            entry["source"], entry["params"], kind="program"))
        assert result.ok and result.kind == "program", result.error
        direct = repro.compile_program(entry["source"],
                                       params=entry["params"])
        assert result.fingerprint == fingerprint_program(
            entry["source"], entry["params"])
        assert result.compiled.sources() == direct.sources()
        assert result.compiled.report.summary() == direct.report.summary()
