"""numpy's random generator, imported without OpenSSL.

`numpy.random.bit_generator` runs `from secrets import randbits` at import;
the stdlib `secrets` imports `hmac`, which imports `_hashlib` and maps
OpenSSL's libcrypto (about 3.6 MB resident). `randbits` is the only name
numpy takes, and in the stdlib it is `random.SystemRandom().getrandbits`.
So the first import of `numpy.random` sees a stand-in `secrets` holding
only that; the stand-in leaves `sys.modules` as soon as the import ends,
and a later `import secrets` loads the real module.
"""

from __future__ import annotations

import random
import sys
import types

import numpy as np


def default_rng(seed: int | None) -> np.random.Generator:
    """`np.random.default_rng(seed)`. A process that has loaded neither
    `numpy.random` nor `secrets` first imports `numpy.random` with the
    stand-in, which every thread sees for the length of that import."""
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
        try:
            import numpy.random  # noqa: F401
        finally:
            if sys.modules.get("secrets") is stand_in:
                del sys.modules["secrets"]
    return np.random.default_rng(seed)
