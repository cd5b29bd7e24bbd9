import pytest

from closurelab import closure as closure_module


@pytest.fixture(autouse=True)
def fresh_presentations():
    """Each test starts and ends with no resumable run or certificate chain:
    one kept from an earlier test would serve calls from objects built
    before this test's patches, and would hide the calls that it counts."""
    closure_module._last = closure_module._chain = None
    yield
    closure_module._last = closure_module._chain = None
