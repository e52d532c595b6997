"""Ring configurations, the sitewise partial order, and discrepancy bookkeeping.

Configurations live on a periodic one-dimensional lattice of ``L`` sites and
are represented as plain tuples of 0/1 integers (site 0 first).  Tuples are
immutable and hashable, which makes state enumeration and memoisation cheap;
all operations here are pure functions.
"""

from __future__ import annotations

from typing import NamedTuple

Config = tuple  # occupancy vector, entries in {0, 1}


class CoupledState(NamedTuple):
    """A pair of same-size configurations evolving under a coupling."""

    first: Config
    second: Config

    @property
    def discrepancies(self) -> int:
        return discrepancy_count(self.first, self.second)

    @property
    def ordered(self) -> bool:
        return is_ordered(self.first, self.second)


def parse_configuration(text: str) -> Config:
    """Parse a '0'/'1' string, site 0 leftmost (e.g. "1010")."""
    if not text or any(c not in "01" for c in text):
        raise ValueError("configuration string must be nonempty over '0'/'1': %r" % text)
    return tuple(1 if c == "1" else 0 for c in text)


def format_configuration(eta: Config) -> str:
    return "".join("1" if b else "0" for b in eta)


def apply_jump(eta: Config, x: int, y: int) -> Config:
    """Exchange the occupancies at sites x and y (a particle jump when
    eta[x]=1 and eta[y]=0; an involution in general)."""
    size = len(eta)
    if not (0 <= x < size and 0 <= y < size):
        raise IndexError("jump sites (%d, %d) out of range for L=%d" % (x, y, size))
    if x == y:
        raise ValueError("jump endpoints must differ")
    out = list(eta)
    out[x], out[y] = out[y], out[x]
    return tuple(out)


def is_active(eta: Config, x: int, y: int) -> bool:
    """True iff the jump x -> y is allowed by exclusion: x occupied, y empty."""
    return eta[x] == 1 and eta[y] == 0


#: the values a site may hold, and their one type: 1.0 and True equal 1
#: and hash alike, so the values pass them and the type check refuses them
_BITS = frozenset((0, 1))
_INT = frozenset((int,))


def _check_occupancy(eta: Config) -> None:
    """Refuse a configuration that holds anything but the integers 0 and 1
    (a float or a bool included), naming the first site that does."""
    if not (_BITS.issuperset(eta) and _INT.issuperset(map(type, eta))):
        x = next(x for x, b in enumerate(eta) if type(b) is not int or b not in _BITS)
        raise ValueError("site %d holds %r; a configuration holds only 0 and 1" % (x, eta[x]))


def _check_sizes(xi: Config, zeta: Config) -> None:
    if len(xi) != len(zeta):
        raise ValueError("size mismatch: %d vs %d" % (len(xi), len(zeta)))


def leq(xi: Config, zeta: Config) -> bool:
    """Sitewise partial order: True iff xi(x) <= zeta(x) everywhere."""
    _check_sizes(xi, zeta)
    return all(a <= b for a, b in zip(xi, zeta))


def is_ordered(xi: Config, zeta: Config) -> bool:
    """True iff the pair is comparable (either leq(xi,zeta) or leq(zeta,xi))."""
    _check_sizes(xi, zeta)
    below = above = True
    for a, b in zip(xi, zeta):
        if a > b:
            below = False
        elif a < b:
            above = False
    return below or above


def discrepancy_count(xi: Config, zeta: Config) -> int:
    """Number of sites where the two configurations disagree."""
    _check_sizes(xi, zeta)
    return sum(a != b for a, b in zip(xi, zeta))


def join(xi: Config, zeta: Config) -> Config:
    """Sitewise maximum; the smallest configuration above both."""
    _check_sizes(xi, zeta)
    return tuple(a | b for a, b in zip(xi, zeta))


def signed_offset(x: int, y: int, size: int) -> int:
    """Displacement y - x reduced to the representative range (-L/2, L/2]."""
    d = (y - x) % size
    if d > size // 2:
        d -= size
    return d
