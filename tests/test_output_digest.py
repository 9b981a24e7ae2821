"""The spherical values and the series, byte for byte, as one SHA-256.

The dump is ``json.dumps`` of the ``to_json`` of: ``omega_hl`` on every
signature with parts at most 6 for n = 1..3, ``r_series(n, 12)`` and
``p_numerator(n, 2^n + 4)`` for n = 1..3, and ``p3_closed_form(12)``.  The
digest is that of commit 56e49ed, where the alternant sums still crossed
from ``spherical`` to ``series`` packed; a change to any term, coefficient
or term order changes it.  The cached functions are called through
``__wrapped__``, so the dump is computed fresh.
"""

import hashlib
import json

from heckeseries.series import p3_closed_form, p_numerator, r_series
from heckeseries.spherical import omega_hl
from heckeseries.symmetric import signatures

DUMP_BYTES = 596_798
DUMP_SHA256 = "945328a8a4f80f99f9d50f2df70408bbcd7c886f0ae5db4fbd4c3a0f060a55d1"


def test_dump_matches_the_pinned_digest():
    out = [omega_hl.__wrapped__(lam, n).to_json() for n in (1, 2, 3) for lam in signatures(6, n)]
    out += [r_series.__wrapped__(n, 12).to_json() for n in (1, 2, 3)]
    out += [p_numerator.__wrapped__(n, 2**n + 4).to_json() for n in (1, 2, 3)]
    out.append(p3_closed_form(12).to_json())
    dump = json.dumps(out).encode()
    assert len(dump) == DUMP_BYTES
    assert hashlib.sha256(dump).hexdigest() == DUMP_SHA256
