"""``MemoryScheme.locate``, the one ``locate`` every scheme shares."""

import pytest

from repro.experiments.runner import SCHEMES
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES, default_config
from repro.xmem.address import AddressSpace

SPACE = AddressSpace(4 * BLOCK_BYTES, 16 * BLOCK_BYTES)


@pytest.mark.parametrize("key", sorted(SCHEMES))
@pytest.mark.parametrize("paddr", [-SUBBLOCK_BYTES, SPACE.total_bytes],
                         ids=["below", "past"])
def test_locate_outside_the_flat_space_raises(key, paddr):
    """Below address 0 or one past the last byte there is no data to
    find, whatever the scheme: not an offset past the FM device, nor an
    NM home named for a negative unit."""
    scheme = SCHEMES[key].factory(SPACE, default_config())
    with pytest.raises(ValueError, match="outside flat space"):
        scheme.locate(paddr)
