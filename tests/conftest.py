"""Suite-wide pytest plumbing.

Owns the ``--regen-golden`` flag used by the golden-trace regression
corpus (``tests/golden/``): when passed, the expected artifacts are
rewritten from the current code instead of being asserted against, so a
*deliberate* numerics change is a one-command regeneration plus a
reviewable diff of the checked-in fingerprints.

Also owns :func:`threads_at_any_size`, the one way tests and benchmarks
put small matrix builds on the thread pool.
"""

import pytest

from repro.core import matrix as matrix_module


def pytest_addoption(parser):
    group = parser.getgroup("repro golden corpus")
    group.addoption(
        "--regen-golden",
        action="store_true",
        help="rewrite tests/golden/expected/*.json from the current code "
        "instead of asserting against the checked-in artifacts",
    )


@pytest.fixture
def threads_at_any_size(monkeypatch):
    """Run matrix builds with more than one worker threaded at any size.

    Below :data:`repro.core.matrix.PARALLEL_THRESHOLD` unique segments a
    build walks its tile queue inline whatever the worker count; the
    parity suites use small inputs, so they lower the threshold to 0.
    """
    monkeypatch.setattr(matrix_module, "PARALLEL_THRESHOLD", 0)
