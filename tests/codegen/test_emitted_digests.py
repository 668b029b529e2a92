"""Emitted code is tied to the pipeline salt.

The compile service's disk tier serves stored generated source by
request fingerprint plus :data:`~repro.service.fingerprint.PIPELINE_SALT`,
so a codegen change that does not bump the salt would serve stale
modules from a warm cache.  ``emitted_digests.json`` records the salt
and a sha256 of every module the kernel catalogs compile to:

* every :data:`~repro.kernels.CATALOG` entry, with the differential
  suite's params, under the default options, ``vectorize``, all three
  runtime checks, ``backend="c"`` and ``backend="c", tile=4``;
* every :data:`~repro.kernels.PROGRAM_CATALOG` entry under the default
  options, ``vectorize``, ``backend="c"``, ``ooc=True`` and
  ``dist=True, workers=2``: each binding's module plus each iterate
  binding's one-block, dist and out-of-core kernel source.

A compile the pipeline refuses is recorded as ``refused: <error>``.
The test fails when a digest changes while the salt does not, and
when the salt changes without the table being regenerated.  After a
codegen change, bump the salt and rewrite the table with::

    PYTHONPATH=src python tests/codegen/test_emitted_digests.py

C rows need a C toolchain: they skip without one, and the script
refuses to write a table without them.
"""

import hashlib
import json
import pathlib
import sys

import pytest

if __name__ == "__main__":
    _ROOT = pathlib.Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import repro
from repro.backends.native import toolchain_status
from repro.codegen.emit import CodegenOptions
from repro.kernels import CATALOG, PROGRAM_CATALOG
from repro.service.fingerprint import PIPELINE_SALT
from tests.backends.test_differential import _PARAMS

TABLE = pathlib.Path(__file__).with_name("emitted_digests.json")

#: Config name -> CodegenOptions fields.
CATALOG_CONFIGS = {
    "default": {},
    "vectorize": {"vectorize": True},
    "checks": {"bounds_checks": True, "collision_checks": True,
               "empties_check": True},
    "c": {"backend": "c"},
    "c-tile4": {"backend": "c", "tile": 4},
}
#: Config name -> (CodegenOptions fields, compile_program arguments).
PROGRAM_CONFIGS = {
    "default": ({}, {}),
    "vectorize": ({"vectorize": True}, {}),
    "c": ({"backend": "c"}, {}),
    "ooc": ({}, {"ooc": True}),
    "dist2": ({}, {"dist": True, "workers": 2}),
}


def _digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def catalog_digests(config: str) -> dict:
    options = CATALOG_CONFIGS[config]
    out = {}
    for name, spec in sorted(CATALOG.items()):
        kwargs = {"params": _PARAMS[name]}
        if spec["kind"] == "inplace":
            kwargs.update(strategy="inplace", old_array=spec["old"])
        key = f"catalog/{name}/{config}"
        try:
            compiled = repro.compile(
                spec["source"], options=CodegenOptions(**options), **kwargs,
            )
        except repro.CompileError as exc:
            out[key] = f"refused: {type(exc).__name__}"
        else:
            out[key] = _digest(compiled.source)
    return out


def program_digests(config: str) -> dict:
    options, kwargs = PROGRAM_CONFIGS[config]
    out = {}
    for name, spec in sorted(PROGRAM_CATALOG.items()):
        program = repro.compile_program(
            spec["source"], params=spec["params"],
            options=CodegenOptions(**options), **kwargs,
        )
        prefix = f"program/{name}/{config}"
        for binding, source in program.sources().items():
            out[f"{prefix}/{binding}"] = _digest(source)
        for step in program.steps:
            if step.iterate is None:
                continue
            for placement in ("block", "dist", "ooc"):
                plan = getattr(step.iterate, placement)
                if plan is not None and plan.kernel is not None:
                    out[f"{prefix}/{step.name}/{placement}"] = _digest(
                        plan.kernel.source
                    )
    return out


def all_digests() -> dict:
    digests = {}
    for config in CATALOG_CONFIGS:
        digests.update(catalog_digests(config))
    for config in PROGRAM_CONFIGS:
        digests.update(program_digests(config))
    return dict(sorted(digests.items()))


def _check(kind: str, config: str, got: dict) -> None:
    table = json.loads(TABLE.read_text())
    assert table["salt"] == PIPELINE_SALT, (
        f"PIPELINE_SALT is {PIPELINE_SALT!r} but the digest table was "
        f"recorded under {table['salt']!r}: regenerate it "
        "(python tests/codegen/test_emitted_digests.py)"
    )
    want = {key: value for key, value in table["digests"].items()
            if key.split("/")[0] == kind and key.split("/")[2] == config}
    changed = sorted(key for key in set(want) | set(got)
                     if want.get(key) != got.get(key))
    assert not changed, (
        f"emitted code changed under the unchanged salt {PIPELINE_SALT!r}"
        f" ({len(changed)} entries, first {changed[:5]}): bump "
        "PIPELINE_SALT and regenerate the table"
    )


NO_CC = toolchain_status() is not None


def _skip_native(options: dict) -> None:
    if options.get("backend") == "c" and NO_CC:
        pytest.skip(f"native toolchain unavailable: {toolchain_status()}")


@pytest.mark.parametrize("config", list(CATALOG_CONFIGS))
def test_catalog_modules_match_the_salted_table(config):
    _skip_native(CATALOG_CONFIGS[config])
    _check("catalog", config, catalog_digests(config))


@pytest.mark.parametrize("config", list(PROGRAM_CONFIGS))
def test_program_modules_match_the_salted_table(config):
    _skip_native(PROGRAM_CONFIGS[config][0])
    _check("program", config, program_digests(config))


if __name__ == "__main__":
    if NO_CC:
        sys.exit("refusing to write a table without C rows: "
                 f"{toolchain_status()}")
    digests = all_digests()
    TABLE.write_text(json.dumps(
        {"salt": PIPELINE_SALT, "digests": digests}, indent=1,
    ) + "\n")
    print(f"wrote {len(digests)} digests under {PIPELINE_SALT} to {TABLE}")
