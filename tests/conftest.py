"""Suite-wide setup.

When a property test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import warns
``DeprecationWarning``; ``filterwarnings = ["error"]`` would turn that into
an ``INTERNALERROR`` that hides the failing test and its example. Importing
the module once here, with the warning ignored, keeps the report.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
