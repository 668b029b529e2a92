"""Shared pytest configuration for the test suite.

Registers hypothesis settings profiles when hypothesis is installed:

* ``nightly`` — the raised budget the scheduled CI workflow runs with
  (``HYPOTHESIS_PROFILE=nightly``): more examples, no deadline, so
  slow shrinks never flake the cron job.

A profile is only *loaded* when ``HYPOTHESIS_PROFILE`` names it;
plain local runs keep hypothesis's defaults.

``libcst`` (when installed) is imported here once, with its
``DeprecationWarning`` ignored: hypothesis imports it lazily while
reporting a failure, and under ``-W error::DeprecationWarning`` the
warning its ``mypy_extensions.TypedDict`` use raises would replace the
falsifying example with an INTERNALERROR.
"""

import os
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # CI does not install it
        pass

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # hypothesis-free environments still run the rest
    settings = None

if settings is not None:
    settings.register_profile(
        "nightly",
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    profile = os.environ.get("HYPOTHESIS_PROFILE")
    if profile:
        settings.load_profile(profile)
