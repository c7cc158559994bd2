"""Size caps for enumeration-heavy operations.

Every operation that quantifies over the subset space of a base declares
which cap applies:

* ``single`` -- one subset quantifier (default 16);
* ``respects`` -- cover-respect validation, one subset quantifier on the
  target base plus a saturation per pair (default 12);
* ``double`` -- two nested subset quantifiers (default 8).

The environment variable ``COVLAT_MAX_BASE`` overrides all three, bounded
above by the hard cap 16.  A value that is not an integer leaves the
defaults in force and raises a ``RuntimeWarning`` naming it.
"""

import os
import warnings

from .errors import CapExceededError

HARD_CAP = 16

_DEFAULTS = {"single": 16, "respects": 12, "double": 8}


def cap_for(kind):
    override = os.environ.get("COVLAT_MAX_BASE")
    if override is not None:
        try:
            value = int(override)
        except ValueError:
            # one fixed call site and message: the default filter shows it once
            warnings.warn(
                f"ignoring COVLAT_MAX_BASE={override!r}: not an integer; "
                "the default caps apply",
                RuntimeWarning,
            )
            value = _DEFAULTS[kind]
        return max(0, min(value, HARD_CAP))
    return _DEFAULTS[kind]


def require_cap(what, size, kind):
    cap = cap_for(kind)
    if size > cap:
        raise CapExceededError(what, size, cap)
