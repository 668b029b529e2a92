"""Cache keys of compile requests.

A request is keyed as it was sent (:func:`request_key`): its source
text, the size ``params``, the
:class:`~repro.codegen.emit.CodegenOptions` (``None`` and
``CodegenOptions()`` are the same request), ``strategy``,
``force_strategy``, ``old_array``, ``kind``, and the program fields
``result``, ``fuse``, ``dist``, ``workers`` and ``ooc``, plus
:data:`PIPELINE_SALT`.  A parsed tree keys by its
:func:`~repro.lang.pretty.pretty` rendering, and ``workers`` by the
count a build uses (``0`` without ``dist``; this host's core count
for ``dist`` with ``workers <= 0``).  The pipeline is a pure function
of these fields (``tests/test_determinism.py``), so two requests with
one key get the same generated source and report.  A
source that differs only in layout or in the names it binds is another
request, with its own entry compiled to its own names.

The memory tier looks the key up as a tuple, so a repeated request
neither parses nor hashes its source.  :func:`key_digest`, the sha256
of the key's rendering, names the entry on disk and is the
``fingerprint`` a result reports; it is the same in every process.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional

from repro.codegen.emit import CodegenOptions
from repro.lang.pretty import pretty
from repro.service.api import CompileRequest

#: Version salt mixed into every key.  Bump the trailing counter
#: whenever a change anywhere in the pipeline can alter generated
#: source or reports: every cached artifact, in memory and on disk,
#: is then invalidated at once (the salt also keys the native ``.so``
#: cache).
PIPELINE_SALT = "repro-pipeline/16"


def request_key(request: CompileRequest,
                salt: str = PIPELINE_SALT) -> tuple:
    """The cache key of one request: its fields as sent, and ``salt``.

    A hashable tuple, built without parsing.  ``options`` must be a
    :class:`CodegenOptions` or ``None``; anything else is a
    :class:`TypeError` (:meth:`CodegenOptions.of`).  The defaults key
    as ``None`` however they were spelled, so the common request hashes
    no options object; ``workers`` keys as
    :func:`~repro.program.compile.compile_program` resolves it.
    """
    src = request.src
    options = request.options
    if options is not None and CodegenOptions.of(options).is_default:
        options = None
    workers = 0
    if request.dist:
        workers = request.workers if request.workers > 0 else \
            os.cpu_count() or 1
    return (
        salt,
        src if isinstance(src, str) else pretty(src),
        repr(sorted((request.params or {}).items())),
        options,
        request.strategy,
        request.force_strategy,
        request.old_array,
        request.kind,
        request.result,
        request.fuse,
        request.dist,
        workers,
        request.ooc,
    )


def key_digest(key: tuple) -> str:
    """SHA-256 hex digest of a :func:`request_key` (deterministic
    across processes: it hashes the key's ``repr``, never ``hash()``)."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def fingerprint(
    src,
    params: Optional[Dict] = None,
    options=None,
    force_strategy: Optional[str] = None,
    strategy: str = "auto",
    old_array: Optional[str] = None,
    salt: str = PIPELINE_SALT,
) -> str:
    """The fingerprint of one definition request.

    The arguments, and their defaults, are ``repro.compile``'s, so a
    ``repro.compile(..., cache=...)`` call is stored under the
    fingerprint of the same arguments.  ``src`` may be source text or
    a parsed tree.
    """
    return key_digest(request_key(CompileRequest(
        src, params, options, force_strategy, strategy, old_array,
        kind="definition",
    ), salt))


def fingerprint_program(
    src,
    params: Optional[Dict] = None,
    options=None,
    result: Optional[str] = None,
    fuse: bool = True,
    salt: str = PIPELINE_SALT,
    dist: bool = False,
    workers: int = 0,
    ooc: bool = False,
) -> str:
    """The fingerprint of one whole-program request.

    The arguments are ``repro.compile_program``'s; ``src`` may be
    program text or a parsed binding list.
    """
    return key_digest(request_key(CompileRequest(
        src, params, options, kind="program", result=result, fuse=fuse,
        dist=dist, workers=workers, ooc=ooc,
    ), salt))
