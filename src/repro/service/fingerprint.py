"""Cache keys of compile requests.

A request is keyed as it was sent (:func:`request_key`): its source
text, the size ``params``, the
:class:`~repro.codegen.emit.CodegenOptions` (``None`` and
``CodegenOptions()`` are the same request), ``strategy``,
``force_strategy``, ``old_array``, and the program fields
``result``, ``fuse``, ``dist``, ``workers`` and ``ooc``, plus
:data:`PIPELINE_SALT`.  ``kind`` is not keyed: a text parses under at
most one grammar (a binding list needs a top-level ``name ... =``,
which no expression has), so ``kind`` only decides whether a build
fails, and a failure is never stored; the service refuses a hit
whose explicit ``kind`` contradicts the entry as a cold build would.
A parsed tree keys by its
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

from repro.codegen.emit import CodegenOptions
from repro.lang.pretty import pretty
from repro.service.api import CompileRequest, require_request

#: Version salt mixed into every key.  Bump the trailing counter
#: whenever a change anywhere in the pipeline can alter generated
#: source or reports: every cached artifact, in memory and on disk,
#: is then invalidated at once (the salt also keys the native ``.so``
#: cache).
PIPELINE_SALT = "repro-pipeline/17"


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


def fingerprint(request: CompileRequest,
                salt: str = PIPELINE_SALT) -> str:
    """The fingerprint of one :class:`CompileRequest`: the
    :func:`key_digest` of its :func:`request_key`.

    A result reports the fingerprint of the request it answered, and
    ``repro.compile(..., cache=...)`` (or ``repro.compile_program``)
    stores its arguments under the fingerprint of the request with
    the same fields.
    """
    return key_digest(request_key(require_request(request), salt))
